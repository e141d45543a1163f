package dram

import (
	"math"
	"testing"

	"ipcp/internal/memsys"
)

// lateSender is an upstream component clocked after the controller: it
// sleeps until cycle at, then pushes one read and records the arrival
// stamp the controller gave it.
type lateSender struct {
	c    *Controller
	at   int64
	to   *sink
	born int64
}

func (l *lateSender) Cycle(now int64) {
	if now != l.at {
		return
	}
	if !l.c.AddRead(read(0x4000, l.to)) {
		panic("read queue full")
	}
	q := l.c.chans[0].readQ
	l.born = q[len(q)-1].born
}

func (l *lateSender) NextEvent(now int64) int64 {
	if now < l.at {
		return l.at
	}
	return math.MaxInt64
}

// TestArrivalStampExactWhileAsleep: a read reaching a controller the
// wake-driven scheduler left asleep for thousands of cycles is stamped
// with the current cycle, as under dense clocking (the starvation cap
// ages requests from that stamp), and the replayed counters match.
func TestArrivalStampExactWhileAsleep(t *testing.T) {
	type outcome struct {
		born  int64
		done  []int64
		stats Stats
	}
	runMode := func(dense bool) outcome {
		c, err := New(DefaultConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		s := memsys.NewScheduler(dense)
		c.SetWake(s.Add(c))
		up := &lateSender{c: c, at: 3000, to: &sink{}}
		s.Add(up)
		s.Reset(0)
		for s.Advance(4000) < 4000 {
			s.Clock()
		}
		s.Sync()
		return outcome{born: up.born, done: up.to.done, stats: c.Stats}
	}
	sparse, ref := runMode(false), runMode(true)
	if sparse.born != 3000 || ref.born != 3000 {
		t.Fatalf("arrival stamped %d (wake-driven) / %d (dense), want 3000", sparse.born, ref.born)
	}
	if len(sparse.done) != 1 || len(ref.done) != 1 || sparse.done[0] != ref.done[0] {
		t.Fatalf("completions %v (wake-driven) vs %v (dense)", sparse.done, ref.done)
	}
	if sparse.stats != ref.stats {
		t.Fatalf("counters diverge:\nwake-driven %+v\ndense       %+v", sparse.stats, ref.stats)
	}
}
