package memsys

import (
	"math"
	"reflect"
	"testing"
)

// fakeComp is a scripted Clocked: next computes its NextEvent, onCycle
// runs inside its Cycle (to send inputs), and every clocked cycle is
// recorded (and its name appended to log, when set).
type fakeComp struct {
	name    string
	log     *[]string
	clocked []int64
	next    func(now int64) int64
	onCycle func(now int64)
}

func (f *fakeComp) Cycle(now int64) {
	f.clocked = append(f.clocked, now)
	if f.log != nil {
		*f.log = append(*f.log, f.name)
	}
	if f.onCycle != nil {
		f.onCycle(now)
	}
}

func (f *fakeComp) NextEvent(now int64) int64 {
	if f.next == nil {
		return math.MaxInt64
	}
	return f.next(now)
}

// fakeSkipper adds per-cycle counters: spans collects every replayed
// [from, to).
type fakeSkipper struct {
	fakeComp
	spans [][2]int64
}

func (f *fakeSkipper) AccountSkip(from, to int64) {
	f.spans = append(f.spans, [2]int64{from, to})
}

func every(k int64) func(int64) int64 { return func(now int64) int64 { return now + k } }

// run steps s until its clock reaches end, the way sim.System.step
// drives it.
func run(s *Scheduler, end int64) {
	for s.Advance(end) < end {
		s.Clock()
	}
}

func TestDenseClocksEveryComponentEveryCycle(t *testing.T) {
	var log []string
	s := NewScheduler(true)
	a := &fakeComp{name: "a", log: &log} // never due by its own bound
	b := &fakeComp{name: "b", log: &log, next: every(100)}
	s.Add(a)
	s.Add(b)
	s.Reset(0)
	run(s, 3)
	if want := []string{"a", "b", "a", "b", "a", "b"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("dense clock order %v, want %v", log, want)
	}
}

func TestSparseClocksOnlyDueComponents(t *testing.T) {
	s := NewScheduler(false)
	a := &fakeComp{next: every(3)}
	idle := &fakeComp{}
	s.Add(a)
	s.Add(idle)
	s.Reset(0)
	run(s, 10)
	if want := []int64{0, 3, 6, 9}; !reflect.DeepEqual(a.clocked, want) {
		t.Errorf("a clocked at %v, want %v", a.clocked, want)
	}
	if want := []int64{0}; !reflect.DeepEqual(idle.clocked, want) {
		t.Errorf("idle component clocked at %v, want only the start %v", idle.clocked, want)
	}
}

// TestWakeFollowsClockOrder pins the wake rule: an input to a component
// later in clock order makes it due in the same cycle, one to an earlier
// component (or itself) in the next.
func TestWakeFollowsClockOrder(t *testing.T) {
	s := NewScheduler(false)
	lower := &fakeComp{}
	upper := &fakeComp{}
	wl := s.Add(lower)
	wu := s.Add(upper)
	s.Reset(0)
	run(s, 1) // both clocked once at the start

	lower.next = func(now int64) int64 {
		if now < 5 {
			return 5
		}
		return math.MaxInt64
	}
	wl.Input() // between cycles: due at the current cycle (1)
	upper.onCycle = func(now int64) {
		if now == 5 {
			wl.Input() // earlier in order: next cycle
		}
	}
	lower.onCycle = func(now int64) {
		if now == 5 {
			wu.Input() // later in order: this cycle
		}
	}
	run(s, 10)
	if want := []int64{0, 1, 5, 6}; !reflect.DeepEqual(lower.clocked, want) {
		t.Errorf("lower clocked at %v, want %v", lower.clocked, want)
	}
	if want := []int64{0, 5}; !reflect.DeepEqual(upper.clocked, want) {
		t.Errorf("upper clocked at %v, want %v", upper.clocked, want)
	}

	// A self-input during its own Cycle makes the component due next
	// cycle even though its NextEvent says never.
	self := &fakeComp{}
	s2 := NewScheduler(false)
	ws := s2.Add(self)
	self.onCycle = func(now int64) {
		if now == 0 {
			ws.Input()
		}
	}
	s2.Reset(0)
	run(s2, 5)
	if want := []int64{0, 1}; !reflect.DeepEqual(self.clocked, want) {
		t.Errorf("self-woken component clocked at %v, want %v", self.clocked, want)
	}
}

// TestFarEventsAndStaleBits covers due cycles beyond the wheel's span
// and due cycles that an earlier wake superseded.
func TestFarEventsAndStaleBits(t *testing.T) {
	s := NewScheduler(false)
	far := &fakeComp{next: every(3 * wheelSlots)}
	moved := &fakeComp{}
	s.Add(far)
	wm := s.Add(moved)
	s.Reset(0)
	// moved: due at 50 by its bound, woken at 20, then due at 70.
	moved.next = func(now int64) int64 {
		switch {
		case now == 0:
			return 50
		case now == 20:
			return 70
		}
		return math.MaxInt64
	}
	run(s, 20)
	wm.Input()
	if got := s.Advance(math.MaxInt64); got != 20 {
		t.Fatalf("woken component not due at once: clock advanced to %d", got)
	}
	run(s, 4*wheelSlots)
	if want := []int64{0, 20, 70}; !reflect.DeepEqual(moved.clocked, want) {
		t.Errorf("moved clocked at %v, want %v (the superseded 50 is stale)", moved.clocked, want)
	}
	if want := []int64{0, 3 * wheelSlots}; !reflect.DeepEqual(far.clocked, want) {
		t.Errorf("far clocked at %v, want %v", far.clocked, want)
	}
}

// TestAdvanceCapsAtLimit: a jump never passes the caller's limit (the
// run deadline or an interval-sample boundary).
func TestAdvanceCapsAtLimit(t *testing.T) {
	s := NewScheduler(false)
	s.Add(&fakeComp{next: every(1000)})
	s.Reset(0)
	s.Clock()
	if got := s.Advance(400); got != 400 {
		t.Fatalf("Advance(400) = %d", got)
	}
	if got := s.Advance(2000); got != 1000 {
		t.Fatalf("Advance(2000) = %d, want the due cycle 1000", got)
	}
}

// TestSkipperReplaysExactlyTheUnclockedCycles: the replayed spans and
// the clocked cycles tile the timeline with no gap and no overlap,
// whether the replay happens at the next clock, before an input, or on
// Sync.
func TestSkipperReplaysExactlyTheUnclockedCycles(t *testing.T) {
	s := NewScheduler(false)
	feeder := &fakeComp{}
	sk := &fakeSkipper{fakeComp: fakeComp{next: every(10)}}
	s.Add(feeder)
	wk := s.Add(sk)
	feeder.next = func(now int64) int64 {
		if now < 20 {
			return 23
		}
		return math.MaxInt64
	}
	feeder.onCycle = func(now int64) {
		if now == 23 {
			wk.Input() // later in order: replay [21, 23), clock at 23
		}
	}
	s.Reset(0)
	run(s, 45)
	s.Sync()

	wantClocked := []int64{0, 10, 20, 23, 33, 43}
	if !reflect.DeepEqual(sk.clocked, wantClocked) {
		t.Fatalf("skipper clocked at %v, want %v", sk.clocked, wantClocked)
	}
	wantSpans := [][2]int64{{1, 10}, {11, 20}, {21, 23}, {24, 33}, {34, 43}, {44, 45}}
	if !reflect.DeepEqual(sk.spans, wantSpans) {
		t.Fatalf("replayed spans %v, want %v", sk.spans, wantSpans)
	}
	s.Sync() // idempotent
	if len(sk.spans) != len(wantSpans) {
		t.Fatalf("second Sync replayed again: %v", sk.spans)
	}
}

// TestManyComponentsKeepOrder runs more components than one bitset word
// holds and checks every cycle's clock order.
func TestManyComponentsKeepOrder(t *testing.T) {
	const n = 150
	var order []int
	s := NewScheduler(false)
	comps := make([]*fakeComp, n)
	for i := range comps {
		i := i
		k := int64(i%7 + 1)
		comps[i] = &fakeComp{next: every(k)}
		comps[i].onCycle = func(int64) { order = append(order, i) }
		s.Add(comps[i])
	}
	s.Reset(0)
	for now := s.Advance(60); now < 60; now = s.Advance(60) {
		order = order[:0]
		s.Clock()
		for i := 1; i < len(order); i++ {
			if order[i] <= order[i-1] {
				t.Fatalf("cycle %d clocked %v out of order", now, order)
			}
		}
		for _, i := range order {
			if now%int64(i%7+1) != 0 {
				t.Fatalf("component %d clocked at %d, not a multiple of its period", i, now)
			}
		}
	}
	for i, c := range comps {
		if want := int(59/int64(i%7+1)) + 1; len(c.clocked) != want {
			t.Errorf("component %d clocked %d times, want %d", i, len(c.clocked), want)
		}
	}
}
