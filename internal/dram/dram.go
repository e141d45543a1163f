// Package dram models the main-memory controller: one or more DDR
// channels, each with banks, an open-row policy, FR-FCFS-style
// scheduling, and a hard data-bus bandwidth limit. Timing follows
// DDR4-1600 scaled to CPU cycles (4 GHz core, as in the paper's
// Table II).
package dram

import (
	"fmt"
	"math"

	"ipcp/internal/memsys"
)

// Config describes the memory system.
type Config struct {
	// Channels must be a power of two (1 for single-core, 2 for
	// multi-core in the paper).
	Channels int
	// BanksPerChannel must be a power of two.
	BanksPerChannel int
	// RowBytes is the row-buffer size per bank.
	RowBytes int

	// Timing in CPU cycles.
	TRP, TRCD, TCAS int
	// BurstCycles is the data-bus occupancy of one 64-byte transfer;
	// it sets the per-channel bandwidth ceiling:
	//   bandwidth = 64 B * cpuHz / BurstCycles.
	BurstCycles int

	// QueueSize bounds each channel's read and write queues.
	QueueSize int
}

// DefaultConfig returns the paper's DDR4-1600 single-channel
// configuration at a 4 GHz core clock: 12.8 GB/s per channel
// (64 B / 20 cycles / 4 GHz), tRP = tRCD = tCAS = 11 ns ≈ 44 cycles.
func DefaultConfig(channels int) Config {
	return Config{
		Channels:        channels,
		BanksPerChannel: 8,
		RowBytes:        8192,
		TRP:             44,
		TRCD:            44,
		TCAS:            44,
		BurstCycles:     20,
		QueueSize:       64,
	}
}

// WithBandwidthGBps returns a copy of c with BurstCycles set so each
// channel provides the given bandwidth at a 4 GHz core clock.
func (c Config) WithBandwidthGBps(gbps float64) Config {
	// cycles = 64 B * 4e9 cyc/s / (gbps * 1e9 B/s)
	cycles := int(64 * 4 / gbps)
	if cycles < 1 {
		cycles = 1
	}
	c.BurstCycles = cycles
	return c
}

// Stats aggregates controller counters.
type Stats struct {
	Reads, Writes                    uint64
	RowHits, RowMisses, RowConflicts uint64
	BusBusyCycles                    uint64
	Cycles                           uint64
	ReadQueueFullRejects             uint64
	WriteQueueFullRejects            uint64
}

// BytesTransferred returns total data moved.
func (s *Stats) BytesTransferred() uint64 { return (s.Reads + s.Writes) * memsys.BlockSize }

// BusUtilization returns the fraction of cycles the data bus was busy.
func (s *Stats) BusUtilization() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.BusBusyCycles) / float64(s.Cycles)
}

type bank struct {
	openRow   uint64
	rowValid  bool
	busyUntil int64
}

// pending is one queued request, with its bank and row decoded once
// on arrival.
type pending struct {
	req     *memsys.Request
	born    int64
	row     uint64
	bank    int
	isWrite bool
}

type channel struct {
	banks     []bank
	readQ     []pending
	writeQ    []pending
	busFreeAt int64
	// readsAt and writesAt count the queued reads and writes per bank,
	// so NextEvent finds the banks holding work without a queue scan.
	readsAt, writesAt []int
	// drainWrites flips the scheduler into write-drain mode when the
	// write queue is nearly full or there are no reads.
	drainWrites bool
}

// Controller is the memory controller; it implements memsys.Sink and
// calls each completed read's ReturnTo.
type Controller struct {
	cfg   Config
	chans []channel

	chanMask uint64
	bankMask uint64
	colBits  uint
	// nowApprox timestamps arrivals for the starvation cap: the last
	// cycle the controller has accounted for, whether Cycle ran it or
	// AccountSkip replayed it. An arrival wakes the controller first,
	// which replays a sleeping controller, queued requests and all, up
	// to the cycle before the one that can first see the arrival, so
	// the stamp equals the dense reference's under sparse clocking too.
	nowApprox int64
	// pool recycles writeback requests once they are scheduled.
	pool *memsys.RequestPool
	// wake is the controller's scheduler handle.
	wake  memsys.Wake
	Stats Stats
}

// New validates cfg and returns a Controller.
func New(cfg Config) (*Controller, error) {
	if cfg.Channels <= 0 || cfg.Channels&(cfg.Channels-1) != 0 {
		return nil, fmt.Errorf("dram: channels must be a positive power of two, got %d", cfg.Channels)
	}
	if cfg.BanksPerChannel <= 0 || cfg.BanksPerChannel&(cfg.BanksPerChannel-1) != 0 {
		return nil, fmt.Errorf("dram: banks must be a positive power of two, got %d", cfg.BanksPerChannel)
	}
	if cfg.RowBytes < memsys.BlockSize {
		return nil, fmt.Errorf("dram: row smaller than a block")
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 64
	}
	c := &Controller{
		cfg:      cfg,
		chans:    make([]channel, cfg.Channels),
		chanMask: uint64(cfg.Channels - 1),
		bankMask: uint64(cfg.BanksPerChannel - 1),
	}
	blocksPerRow := cfg.RowBytes / memsys.BlockSize
	for 1<<c.colBits < blocksPerRow {
		c.colBits++
	}
	for i := range c.chans {
		c.chans[i].banks = make([]bank, cfg.BanksPerChannel)
		c.chans[i].readsAt = make([]int, cfg.BanksPerChannel)
		c.chans[i].writesAt = make([]int, cfg.BanksPerChannel)
		// Queues never exceed QueueSize; reserving it up front keeps the
		// steady state free of append growth.
		c.chans[i].readQ = make([]pending, 0, cfg.QueueSize)
		c.chans[i].writeQ = make([]pending, 0, cfg.QueueSize)
	}
	return c, nil
}

// SetRequestPool attaches the system-wide request free list (nil keeps
// plain allocation).
func (c *Controller) SetRequestPool(p *memsys.RequestPool) { c.pool = p }

// SetWake attaches the controller's scheduler handle.
func (c *Controller) SetWake(w memsys.Wake) { c.wake = w }

// decode maps a physical block address onto (channel, bank, row).
// Layout from LSB: channel | column | bank | row, so consecutive
// blocks stripe across channels and consecutive rows across banks.
func (c *Controller) decode(addr memsys.Addr) (ch, bk int, row uint64) {
	bn := memsys.BlockNumber(addr)
	ch = int(bn & c.chanMask)
	bn >>= uint(trailingBits(c.chanMask))
	bn >>= c.colBits // column within row
	bk = int(bn & c.bankMask)
	row = bn >> uint(trailingBits(c.bankMask))
	return
}

func trailingBits(mask uint64) int {
	n := 0
	for mask != 0 {
		n++
		mask >>= 1
	}
	return n
}

// --- memsys.Sink --------------------------------------------------------

// AddRead enqueues a demand or forwarded read.
func (c *Controller) AddRead(r *memsys.Request) bool { return c.add(r, false) }

// AddPrefetch enqueues a prefetch read (same queue; FR-FCFS decides).
func (c *Controller) AddPrefetch(r *memsys.Request) bool { return c.add(r, false) }

// AddWrite enqueues a writeback.
func (c *Controller) AddWrite(r *memsys.Request) bool { return c.add(r, true) }

func (c *Controller) add(r *memsys.Request, write bool) bool {
	ch, bk, row := c.decode(r.Addr)
	cn := &c.chans[ch]
	if write {
		if len(cn.writeQ) >= c.cfg.QueueSize {
			c.Stats.WriteQueueFullRejects++
			return false
		}
		c.wake.Input()
		cn.writeQ = append(cn.writeQ, pending{req: r, born: c.nowApprox, row: row, bank: bk, isWrite: true})
		cn.writesAt[bk]++
		return true
	}
	if len(cn.readQ) >= c.cfg.QueueSize {
		c.Stats.ReadQueueFullRejects++
		return false
	}
	c.wake.Input()
	cn.readQ = append(cn.readQ, pending{req: r, born: c.nowApprox, row: row, bank: bk})
	cn.readsAt[bk]++
	return true
}

// Cycle advances the controller one CPU cycle.
func (c *Controller) Cycle(now int64) {
	c.nowApprox = now
	c.Stats.Cycles++
	busy := false
	for i := range c.chans {
		if c.cycleChannel(now, &c.chans[i]) {
			busy = true
		}
	}
	if busy {
		c.Stats.BusBusyCycles++
	}
}

// cycleChannel tries to start one transaction on the channel and
// reports whether its data bus is busy this cycle.
func (c *Controller) cycleChannel(now int64, cn *channel) bool {
	cn.drainWrites = c.drainMode(cn)

	// Commands pipeline ahead of the data bus: a new transaction may
	// start while the bus is still transferring, as long as the bus
	// backlog stays within two bursts (so row activations overlap
	// with data transfer, as in a real controller).
	if cn.busFreeAt-now < int64(2*c.cfg.BurstCycles) {
		if q, _ := cn.serving(cn.drainWrites); q != nil {
			if idx := c.pick(now, cn, *q); idx >= 0 {
				c.start(now, cn, q, idx)
			}
		}
	}
	return cn.busFreeAt > now
}

// drainMode applies the write-drain policy to the channel's current
// write-queue length: drain when writes pile past 3/4 full, stop once
// below 1/4, and otherwise keep the current mode. Applying it again
// while the queue length stays put changes nothing.
func (c *Controller) drainMode(cn *channel) bool {
	switch n := len(cn.writeQ); {
	case n <= c.cfg.QueueSize/4:
		return false
	case n >= c.cfg.QueueSize*3/4:
		return true
	}
	return cn.drainWrites
}

// serving returns the queue the channel serves in drain mode drain,
// with that queue's per-bank counts: writes while draining, and also
// opportunistically when no reads wait; otherwise reads. Both are nil
// when the channel has no work.
func (cn *channel) serving(drain bool) (*[]pending, []int) {
	if drain || (len(cn.readQ) == 0 && len(cn.writeQ) > 0) {
		return &cn.writeQ, cn.writesAt
	}
	if len(cn.readQ) > 0 {
		return &cn.readQ, cn.readsAt
	}
	return nil, nil
}

// pick implements FR-FCFS with a starvation cap: the oldest row-buffer
// hit on a ready bank wins, unless the oldest ready request has waited
// past the cap — row-missing random traffic must not starve behind an
// endless row-hit stream (real controllers bound reordering the same
// way).
func (c *Controller) pick(now int64, cn *channel, q []pending) int {
	const starvationCap = 1500 // cycles
	oldest, firstHit := -1, -1
	for i := range q {
		b := &cn.banks[q[i].bank]
		if b.busyUntil > now {
			continue
		}
		if firstHit < 0 && b.rowValid && b.openRow == q[i].row {
			firstHit = i
		}
		if oldest < 0 {
			oldest = i
		}
	}
	if oldest >= 0 && now-q[oldest].born > starvationCap {
		return oldest
	}
	if firstHit >= 0 {
		return firstHit
	}
	return oldest
}

// start launches the transaction at q[idx] and removes it.
func (c *Controller) start(now int64, cn *channel, q *[]pending, idx int) {
	p := (*q)[idx]
	*q = append((*q)[:idx], (*q)[idx+1:]...)
	if p.isWrite {
		cn.writesAt[p.bank]--
	} else {
		cn.readsAt[p.bank]--
	}

	b := &cn.banks[p.bank]
	// tCCD: successive column reads to an open row pipeline; the bank
	// only stays unavailable through precharge/activate.
	const tCCD = 8
	var access, bankBusy int64
	switch {
	case b.rowValid && b.openRow == p.row:
		access = int64(c.cfg.TCAS)
		bankBusy = tCCD
		c.Stats.RowHits++
	case !b.rowValid:
		access = int64(c.cfg.TRCD + c.cfg.TCAS)
		bankBusy = int64(c.cfg.TRCD) + tCCD
		c.Stats.RowMisses++
	default:
		access = int64(c.cfg.TRP + c.cfg.TRCD + c.cfg.TCAS)
		bankBusy = int64(c.cfg.TRP+c.cfg.TRCD) + tCCD
		c.Stats.RowConflicts++
	}
	b.openRow, b.rowValid = p.row, true

	dataStart := now + access
	if dataStart < cn.busFreeAt {
		dataStart = cn.busFreeAt
	}
	done := dataStart + int64(c.cfg.BurstCycles)
	b.busyUntil = now + bankBusy
	cn.busFreeAt = done

	if p.isWrite {
		c.Stats.Writes++
		c.pool.Put(p.req) // writebacks terminate here
		return
	}
	c.Stats.Reads++
	if p.req.ReturnTo != nil {
		p.req.ReturnTo.ReturnData(done, p.req)
	}
}

// NextEvent reports the first cycle after now at which Cycle can start
// a transaction, absent new requests. A channel starts one as soon as
// three things hold. First, the queue it serves, chosen by the drain
// mode the current queue lengths give, is not empty. Second, its bus
// backlog is under two bursts, from busFreeAt-2*BurstCycles+1 on.
// Third, a bank holding a request of that queue is ready, from its
// busyUntil on. The starvation cap only changes which request pick
// takes, never whether one starts. Before that cycle Cycle only bumps
// the counters, stamps nowApprox and re-applies the drain mode, all of
// which AccountSkip replays. The cost is O(banks) per channel, from the
// per-bank queue counts. With every queue empty only an arrival can
// make the controller due.
func (c *Controller) NextEvent(now int64) int64 {
	next := int64(math.MaxInt64)
	backlog := int64(2*c.cfg.BurstCycles) - 1
	for i := range c.chans {
		cn := &c.chans[i]
		_, perBank := cn.serving(c.drainMode(cn))
		if perBank == nil {
			continue
		}
		t := now + 1
		if b := cn.busFreeAt - backlog; b > t {
			t = b
		}
		ready := int64(math.MaxInt64)
		for bk, n := range perBank {
			if n > 0 && cn.banks[bk].busyUntil < ready {
				ready = cn.banks[bk].busyUntil
			}
		}
		if ready > t {
			t = ready
		}
		if t < next {
			next = t
		}
	}
	return next
}

// AccountSkip replays the skipped cycles [from, to), which NextEvent
// guarantees start no transaction, so queues, banks and bus horizons
// stay put across them. Each such cycle would count Cycles, count
// BusBusyCycles while any channel's transfer is in flight, re-apply
// the drain mode to the unchanged queue lengths (idempotent, so once
// suffices) and stamp nowApprox.
func (c *Controller) AccountSkip(from, to int64) {
	c.nowApprox = to - 1
	c.Stats.Cycles += uint64(to - from)
	var maxBusFree int64
	for i := range c.chans {
		cn := &c.chans[i]
		cn.drainWrites = c.drainMode(cn)
		if cn.busFreeAt > maxBusFree {
			maxBusFree = cn.busFreeAt
		}
	}
	if maxBusFree > from {
		end := maxBusFree
		if end > to {
			end = to
		}
		c.Stats.BusBusyCycles += uint64(end - from)
	}
}

// ResetStats zeroes the counters (end of warmup).
func (c *Controller) ResetStats() { c.Stats = Stats{} }

// QueueOccupancy returns total queued reads and writes (testing).
func (c *Controller) QueueOccupancy() (reads, writes int) {
	for i := range c.chans {
		reads += len(c.chans[i].readQ)
		writes += len(c.chans[i].writeQ)
	}
	return
}
