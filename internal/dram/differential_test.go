package dram

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ipcp/internal/memsys"
)

// The differential tests drive one request stream through a controller
// under the wake-driven scheduler and under the dense every-cycle
// reference, and require the same transactions to start on the same
// cycles: NextEvent's bound must be neither late (a start would slip)
// nor replayed wrongly by AccountSkip (the drain mode would differ).

// blockAddr builds the address of column col of row on bank bk of
// channel ch, inverting decode for the default row and bank geometry.
func blockAddr(c *Controller, ch, bk int, row uint64, col int) memsys.Addr {
	bn := (row<<trailingBits(c.bankMask)|uint64(bk))<<c.colBits | uint64(col)
	bn = bn<<trailingBits(c.chanMask) | uint64(ch)
	return memsys.Addr(bn * memsys.BlockSize)
}

// arrival is one request a sender offers the controller from cycle at on.
type arrival struct {
	at    int64
	addr  memsys.Addr
	write bool
}

// sender offers its arrivals in order, each on its cycle; a request
// the full queue refuses is offered again every cycle until accepted.
type sender struct {
	c     *Controller
	queue []arrival
	to    *completions
}

func (s *sender) Cycle(now int64) {
	for len(s.queue) > 0 && s.queue[0].at <= now {
		a := s.queue[0]
		r := &memsys.Request{Addr: a.addr, Type: memsys.Load, ReturnTo: s.to}
		var ok bool
		if a.write {
			r.Type = memsys.Writeback
			ok = s.c.AddWrite(r)
		} else {
			ok = s.c.AddRead(r)
		}
		if !ok {
			return
		}
		s.to.born[r] = s.c.nowApprox
		s.queue = s.queue[1:]
	}
}

func (s *sender) NextEvent(now int64) int64 {
	if len(s.queue) == 0 {
		return math.MaxInt64
	}
	if at := s.queue[0].at; at > now {
		return at
	}
	return now + 1 // refused: offer it again next cycle
}

// completions records every read the controller schedules, in order:
// the cycle its transaction started, its completion cycle, and how long
// it had waited since arrival.
type completions struct {
	c    *Controller
	born map[*memsys.Request]int64
	log  []completion
}

type completion struct {
	addr                  memsys.Addr
	started, done, waited int64
}

func (s *completions) ReturnData(done int64, r *memsys.Request) {
	now := s.c.nowApprox // the cycle Cycle is running
	s.log = append(s.log, completion{addr: r.Addr, started: now, done: done, waited: now - s.born[r]})
}

// countingController counts the cycles the scheduler actually clocks
// and logs every transaction start as (cycle, write?).
type countingController struct {
	*Controller
	clocked int
	starts  []start
}

type start struct {
	at    int64
	write bool
}

func (cc *countingController) Cycle(now int64) {
	r, w := cc.Stats.Reads, cc.Stats.Writes
	cc.clocked++
	cc.Controller.Cycle(now)
	if cc.Stats.Reads != r {
		cc.starts = append(cc.starts, start{at: now})
	}
	if cc.Stats.Writes != w {
		cc.starts = append(cc.starts, start{at: now, write: true})
	}
}

// drainProbe watches every channel's drain mode on every cycle (dense
// runs only), recording the cycles it switched on and off.
type drainProbe struct {
	c       *Controller
	last    []bool
	on, off int
}

func (p *drainProbe) Cycle(int64) {
	for i := range p.c.chans {
		d := p.c.chans[i].drainWrites
		switch {
		case d && !p.last[i]:
			p.on++
		case !d && p.last[i]:
			p.off++
		}
		p.last[i] = d
	}
}

func (p *drainProbe) NextEvent(now int64) int64 { return now + 1 }

// queuedView is a queued request without its pointer, for comparing
// the final queues of two runs.
type queuedView struct {
	born    int64
	row     uint64
	bank    int
	isWrite bool
}

type channelView struct {
	banks             []bank
	reads, writes     []queuedView
	readsAt, writesAt []int
	busFreeAt         int64
	drainWrites       bool
}

func viewOf(c *Controller) []channelView {
	view := func(q []pending) []queuedView {
		out := make([]queuedView, len(q))
		for i, p := range q {
			out[i] = queuedView{born: p.born, row: p.row, bank: p.bank, isWrite: p.isWrite}
		}
		return out
	}
	out := make([]channelView, len(c.chans))
	for i := range c.chans {
		cn := &c.chans[i]
		out[i] = channelView{
			banks:       append([]bank(nil), cn.banks...),
			reads:       view(cn.readQ),
			writes:      view(cn.writeQ),
			readsAt:     append([]int(nil), cn.readsAt...),
			writesAt:    append([]int(nil), cn.writesAt...),
			busFreeAt:   cn.busFreeAt,
			drainWrites: cn.drainWrites,
		}
	}
	return out
}

// diffOutcome is what one run of a stream leaves behind.
type diffOutcome struct {
	reads     []completion
	starts    []start
	stats     Stats
	nowApprox int64
	final     []channelView
	clocked   int
	drainOn   int
	drainOff  int
}

// runStream drives the controller built by cfg with two senders, one
// clocked before it and one after it, until cycle end.
func runStream(t *testing.T, cfg Config, before, after []arrival, end int64, dense bool) diffOutcome {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := &completions{c: c, born: map[*memsys.Request]int64{}}
	early := &sender{c: c, queue: before, to: done}
	late := &sender{c: c, queue: after, to: done}
	cc := &countingController{Controller: c}

	s := memsys.NewScheduler(dense)
	s.Add(early)
	c.SetWake(s.Add(cc))
	s.Add(late)
	var probe *drainProbe
	if dense {
		probe = &drainProbe{c: c, last: make([]bool, cfg.Channels)}
		s.Add(probe)
	}
	out := drive(s, end, cc, done)
	if probe != nil {
		out.drainOn, out.drainOff = probe.on, probe.off
	}
	return out
}

// drive runs the scheduler from cycle 0 to end and collects what the
// controller behind cc produced.
func drive(s *memsys.Scheduler, end int64, cc *countingController, done *completions) diffOutcome {
	s.Reset(0)
	for s.Advance(end) < end {
		s.Clock()
	}
	s.Sync()
	c := cc.Controller
	return diffOutcome{
		reads: done.log, starts: cc.starts, stats: c.Stats, nowApprox: c.nowApprox,
		final: viewOf(c), clocked: cc.clocked,
	}
}

// requireSame fails unless the wake-driven and dense outcomes agree on
// everything the controller produced.
func requireSame(t *testing.T, sparse, ref diffOutcome) {
	t.Helper()
	if !reflect.DeepEqual(sparse.starts, ref.starts) {
		t.Fatalf("transaction starts diverge at %s", firstDiff(sparse.starts, ref.starts))
	}
	if !reflect.DeepEqual(sparse.reads, ref.reads) {
		t.Fatalf("read completions diverge at %s", firstDiff(sparse.reads, ref.reads))
	}
	if sparse.stats != ref.stats {
		t.Fatalf("counters diverge:\nwake-driven %+v\ndense       %+v", sparse.stats, ref.stats)
	}
	if sparse.nowApprox != ref.nowApprox {
		t.Fatalf("nowApprox %d (wake-driven) vs %d (dense)", sparse.nowApprox, ref.nowApprox)
	}
	if !reflect.DeepEqual(sparse.final, ref.final) {
		t.Fatalf("final queue/drain state diverges:\nwake-driven %+v\ndense       %+v", sparse.final, ref.final)
	}
}

func firstDiff[T any](a, b []T) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if !reflect.DeepEqual(a[i], b[i]) {
			return fmt.Sprintf("entry %d: %+v (wake-driven) vs %+v (dense)", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("length %d (wake-driven) vs %d (dense)", len(a), len(b))
}

// randomStream builds a two-channel stream from three rounds of four
// phases in random order: scattered traffic over a few rows per bank
// (row hits, misses and conflicts), write bursts that fill a channel's
// write queue past 3/4 and let it drain below 1/4, a row-hit stream
// that starves a conflicting read past the starvation cap, and idle
// gaps. Requests are dealt at random to the sender clocked before the
// controller and the one clocked after it.
func randomStream(c *Controller, seed int64) (before, after []arrival, end int64) {
	rng := rand.New(rand.NewSource(seed))
	var all []arrival
	now := int64(0)
	deal := func(a arrival) { all = append(all, a) }
	var phases []int
	for round := 0; round < 3; round++ {
		phases = append(phases, rng.Perm(4)...)
	}
	for _, phase := range phases {
		switch phase {
		case 0: // scattered reads and writes
			for i := 0; i < 150; i++ {
				now += int64(rng.Intn(40))
				deal(arrival{at: now, write: rng.Intn(10) < 3,
					addr: blockAddr(c, rng.Intn(2), rng.Intn(8), uint64(rng.Intn(3)), rng.Intn(128))})
			}
		case 1: // write burst on one channel, with a trickle of reads
			ch := rng.Intn(2)
			for i := 0; i < 60; i++ {
				now += int64(rng.Intn(4))
				deal(arrival{at: now, write: true,
					addr: blockAddr(c, ch, rng.Intn(8), uint64(rng.Intn(4)), rng.Intn(128))})
				if rng.Intn(4) == 0 {
					deal(arrival{at: now, addr: blockAddr(c, ch, rng.Intn(8), uint64(rng.Intn(4)), rng.Intn(128))})
				}
			}
		case 2: // a conflicting read starved by a stream of row hits
			ch, bk := rng.Intn(2), rng.Intn(8)
			deal(arrival{at: now, addr: blockAddr(c, ch, bk, 0, 0)})
			deal(arrival{at: now + 1, addr: blockAddr(c, ch, bk, 9, 0)})
			for i := 1; i < 200; i++ {
				now += 10 + int64(rng.Intn(8))
				deal(arrival{at: now, addr: blockAddr(c, ch, bk, 0, i%128)})
			}
		case 3: // idle gap: every queue drains and the controller sleeps
			now += 2000 + int64(rng.Intn(8000))
		}
	}
	for _, a := range all {
		if rng.Intn(2) == 0 {
			before = append(before, a)
		} else {
			after = append(after, a)
		}
	}
	return before, after, now + 5000
}

// TestWakeDrivenMatchesDenseRandom is the controller's differential
// test: randomized two-channel streams through the wake-driven and the
// dense scheduler must start the same transactions on the same cycles,
// complete reads in the same order at the same cycles, and end with the
// same counters, queues and drain modes. The stream is checked to cover
// what the bound must get right, and the wake-driven run to skip.
func TestWakeDrivenMatchesDenseRandom(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.QueueSize = 16 // drain thresholds at 4 and 12 writes
	for seed := int64(1); seed <= 6; seed++ {
		probe, _ := New(cfg)
		before, after, end := randomStream(probe, seed)
		sparse := runStream(t, cfg, before, after, end, false)
		ref := runStream(t, cfg, before, after, end, true)
		requireSame(t, sparse, ref)

		aged := 0
		for _, r := range ref.reads {
			if r.waited > 1500 {
				aged++
			}
		}
		st := ref.stats
		if st.RowHits == 0 || st.RowMisses == 0 || st.RowConflicts == 0 {
			t.Errorf("seed %d: stream lacks a row-buffer outcome: %+v", seed, st)
		}
		if ref.drainOn == 0 || ref.drainOff == 0 {
			t.Errorf("seed %d: write queue never crossed both drain thresholds (on %d, off %d)", seed, ref.drainOn, ref.drainOff)
		}
		if aged == 0 {
			t.Errorf("seed %d: no read waited past the starvation cap", seed)
		}
		if len(before) == 0 || len(after) == 0 {
			t.Errorf("seed %d: a sender got no requests", seed)
		}
		if sparse.clocked*2 > ref.clocked {
			t.Errorf("seed %d: wake-driven run clocked the controller on %d of %d cycles; the bound is not skipping", seed, sparse.clocked, ref.clocked)
		}
	}
}

// latePusher is clocked after the controller on every cycle. Once it
// has seen channel 0's write queue sit at exactly mark on two
// consecutive clocks — so the dense reference has re-applied the drain
// mode to that length — it pushes one more write.
type latePusher struct {
	c      *Controller
	mark   int
	seenAt int64
	pushed int64
}

func (p *latePusher) Cycle(now int64) {
	if p.pushed >= 0 || len(p.c.chans[0].writeQ) != p.mark {
		return
	}
	if p.seenAt < 0 {
		p.seenAt = now
		return
	}
	r := &memsys.Request{Addr: blockAddr(p.c, 0, 7, 3, 0), Type: memsys.Writeback}
	if !p.c.AddWrite(r) {
		panic("write queue full")
	}
	p.pushed = now
}

func (p *latePusher) NextEvent(now int64) int64 {
	if p.pushed >= 0 {
		return math.MaxInt64
	}
	return now + 1
}

// TestDrainHysteresisReplay pins AccountSkip's replay of the write-drain
// mode. The controller starts draining with Q/4+2 writes and two reads
// queued. The first write start leaves Q/4+1 writes, so draining goes
// on through the skipped cycles that follow (clearing the mode there
// starts a read too early). The second leaves Q/4, which switches
// draining off on the next cycle; a write pushed while the controller
// sleeps brings the queue back to Q/4+1, where the mode holds, so the
// next start must still be a read (leaving the mode untouched across
// the skip starts a write).
func TestDrainHysteresisReplay(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.QueueSize = 16
	mark := cfg.QueueSize / 4
	run := func(dense bool) (diffOutcome, int64) {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		done := &completions{c: c, born: map[*memsys.Request]int64{}}
		for i := 0; i < mark+2; i++ {
			c.AddWrite(&memsys.Request{Addr: blockAddr(c, 0, i, 1, 0), Type: memsys.Writeback})
		}
		for i := 0; i < 2; i++ {
			r := &memsys.Request{Addr: blockAddr(c, 0, 6, 2, i), Type: memsys.Load, ReturnTo: done}
			c.AddRead(r)
			done.born[r] = 0
		}
		c.chans[0].drainWrites = true
		cc := &countingController{Controller: c}
		pusher := &latePusher{c: c, mark: mark, seenAt: -1, pushed: -1}
		s := memsys.NewScheduler(dense)
		c.SetWake(s.Add(cc))
		s.Add(pusher)
		return drive(s, 3000, cc, done), pusher.pushed
	}
	sparse, pushedSparse := run(false)
	ref, pushed := run(true)
	if pushedSparse != pushed {
		t.Fatalf("write pushed at %d (wake-driven) vs %d (dense)", pushedSparse, pushed)
	}
	// The dense reference itself: two writes, then the pushed write
	// arrives before the third start, which is a read.
	if pushed < 0 || len(ref.starts) < 3 {
		t.Fatalf("scenario did not unfold: pushed at %d, starts %v", pushed, ref.starts)
	}
	if s := ref.starts; !s[0].write || !s[1].write || s[2].write || s[2].at <= pushed {
		t.Fatalf("dense starts %v with the write pushed at %d; want write, write, then a read after the push", s, pushed)
	}
	if sparse.clocked >= ref.clocked/2 {
		t.Fatalf("wake-driven run clocked %d of %d cycles; the scenario needs skipped spans", sparse.clocked, ref.clocked)
	}
	requireSame(t, sparse, ref)
}
