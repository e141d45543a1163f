package memsys

import (
	"math"
	"math/bits"
)

// Clocked is a component the scheduler clocks.
type Clocked interface {
	// Cycle advances the component one cycle.
	Cycle(now int64)
	// NextEvent reports the earliest cycle > now at which clocking the
	// component could have any effect, provided it receives no input
	// before then; math.MaxInt64 means only an input can make it due.
	// Every Cycle call in between is a no-op apart from the per-cycle
	// counters a Skipper replays.
	NextEvent(now int64) int64
}

// Skipper is implemented by components that keep per-cycle counters
// (the cores' stall accounting, DRAM's cycle and bus counters).
// AccountSkip replays the counters of the unclocked cycles [from, to)
// in closed form; NextEvent's breakpoints keep them constant across any
// such span.
type Skipper interface {
	AccountSkip(from, to int64)
}

// Wake is a component's handle on the scheduler that clocks it. The
// component calls Input whenever it accepts input from another
// component (a queue push, a data return). The zero Wake is inert, for
// components driven outside a Scheduler.
type Wake struct {
	s  *Scheduler
	id int
}

// Input makes the component due at once: it is clocked later in the
// current cycle when it comes after the caller in clock order, else in
// the next cycle — exactly when the dense reference would first let it
// act on the input. A sleeping Skipper's counters are replayed up to
// that cycle first, so the input cannot leak into the slept span.
func (w Wake) Input() {
	if w.s != nil {
		w.s.wake(w.id)
	}
}

// The timing wheel holds due cycles within wheelSlots of the current
// cycle, one bitset row per slot; later ones wait in the far set.
const (
	wheelSlots = 256
	wheelMask  = wheelSlots - 1
)

// Scheduler is the wake-driven clock of one simulated system. It clocks
// only the components that are due, in registration order (the
// memory-first order that makes data returned in a cycle visible above
// the next cycle), and jumps over cycles in which none is. A component
// is due at the NextEvent it reported when last clocked, or at once
// when an input wakes it. Per-cycle counters of components it skips are
// replayed lazily: when the component is next clocked, before an input
// reaches it, and on Sync.
//
// A dense Scheduler is the reference it is checked against: every
// component is clocked on every cycle and nothing is skipped.
type Scheduler struct {
	dense bool
	comps []Clocked
	skip  []Skipper // nil for components without per-cycle counters

	// due is each component's next due cycle (math.MaxInt64: none until
	// an input); acct is the first cycle its counters do not cover yet.
	due, acct []int64

	// now is the cycle being clocked, or the next one between cycles;
	// cur is the index of the component in Cycle (-1 outside one).
	now int64
	cur int

	// wheel[slot*words:] is the bitset of components due at the cycle
	// ≡ slot (mod wheelSlots) within [now, now+wheelSlots); occ marks the
	// non-empty slots. A bit whose component's due has since moved is
	// stale and is skipped when its slot comes up.
	words int
	wheel []uint64
	occ   [wheelSlots / 64]uint64
	// far holds components due at or past now+wheelSlots; farMin bounds
	// their earliest due cycle from below.
	far    []uint64
	farMin int64
}

// NewScheduler returns an empty scheduler; dense selects the
// every-component-every-cycle reference. Register components with Add,
// then call Reset before the first Clock.
func NewScheduler(dense bool) *Scheduler {
	return &Scheduler{dense: dense, cur: -1}
}

// Add registers c next in clock order and returns its wake handle.
func (s *Scheduler) Add(c Clocked) Wake {
	s.comps = append(s.comps, c)
	sk, _ := c.(Skipper)
	s.skip = append(s.skip, sk)
	s.due = append(s.due, math.MaxInt64)
	s.acct = append(s.acct, 0)
	return Wake{s: s, id: len(s.comps) - 1}
}

// Reset restarts the clock at now with every component due there and
// every counter taken as current up to now (a built or restored
// system's starting point).
func (s *Scheduler) Reset(now int64) {
	s.words = (len(s.comps) + 63) / 64
	s.wheel = make([]uint64, wheelSlots*s.words)
	s.far = make([]uint64, s.words)
	s.occ = [wheelSlots / 64]uint64{}
	s.farMin = math.MaxInt64
	s.now, s.cur = now, -1
	for j := range s.comps {
		s.acct[j] = now
		s.schedule(j, now)
	}
}

// WakeAll wakes every component, as after a change the components'
// NextEvent bounds did not foresee (prefetchers attached, fetch
// re-opened).
func (s *Scheduler) WakeAll() {
	for j := range s.comps {
		s.wake(j)
	}
}

// Advance moves the clock to the earliest cycle at which a component is
// due, but no later than limit, and returns the new current cycle. It
// never moves the clock backwards, and a dense scheduler never skips.
func (s *Scheduler) Advance(limit int64) int64 {
	if s.dense {
		return s.now
	}
	t := s.farMin
	if w := s.nextSlot(); w < t {
		t = w
	}
	if t > limit {
		t = limit
	}
	if t > s.now {
		s.now = t
	}
	return s.now
}

// Clock clocks the components due at the current cycle, in
// registration order, and moves the clock to the next cycle.
func (s *Scheduler) Clock() {
	now := s.now
	if s.dense {
		for _, c := range s.comps {
			c.Cycle(now)
		}
		s.now = now + 1
		return
	}
	if s.farMin-now < wheelSlots {
		s.migrate()
	}
	slot := int(now & wheelMask)
	row := s.wheel[slot*s.words : (slot+1)*s.words]
	for w := range row {
		// Re-read the row each time: an input may wake a later
		// component into this very cycle.
		for row[w] != 0 {
			b := bits.TrailingZeros64(row[w])
			row[w] &^= 1 << b
			j := w<<6 | b
			if s.due[j] != now {
				continue // stale: rescheduled since this bit was set
			}
			s.clock(j, now)
		}
	}
	s.occ[slot>>6] &^= 1 << (slot & 63)
	s.cur = -1
	s.now = now + 1
}

// clock runs component j's cycle now and schedules its next one.
func (s *Scheduler) clock(j int, now int64) {
	if sk := s.skip[j]; sk != nil && s.acct[j] < now {
		sk.AccountSkip(s.acct[j], now)
	}
	s.acct[j] = now + 1
	s.cur = j
	s.due[j] = math.MaxInt64 // lets an input during its own Cycle register
	c := s.comps[j]
	c.Cycle(now)
	t := c.NextEvent(now)
	if s.due[j] < t {
		t = s.due[j]
	}
	s.schedule(j, t)
}

// Sync replays the per-cycle counters of every skipped component up to
// the current cycle, so all statistics read as under dense clocking.
func (s *Scheduler) Sync() {
	if s.dense {
		return // every component was clocked on every cycle
	}
	for j, sk := range s.skip {
		if sk != nil && s.acct[j] < s.now {
			sk.AccountSkip(s.acct[j], s.now)
			s.acct[j] = s.now
		}
	}
}

// wake makes component j due at the first cycle it can see an input
// given now: this one if it is still to be clocked, else the next.
func (s *Scheduler) wake(j int) {
	if s.dense {
		return
	}
	t := s.now
	if j <= s.cur {
		t++
	}
	if sk := s.skip[j]; sk != nil && s.acct[j] < t {
		sk.AccountSkip(s.acct[j], t)
		s.acct[j] = t
	}
	if t < s.due[j] {
		s.schedule(j, t)
	}
}

// schedule records component j as due at t (>= now).
func (s *Scheduler) schedule(j int, t int64) {
	s.due[j] = t
	if t == math.MaxInt64 {
		return
	}
	w, b := j>>6, uint64(1)<<(j&63)
	if t-s.now >= wheelSlots {
		s.far[w] |= b
		if t < s.farMin {
			s.farMin = t
		}
		return
	}
	slot := int(t & wheelMask)
	s.wheel[slot*s.words+w] |= b
	s.occ[slot>>6] |= 1 << (slot & 63)
}

// migrate re-files the far set against the current cycle, moving the
// components now within the wheel's span onto it.
func (s *Scheduler) migrate() {
	s.farMin = math.MaxInt64
	for w := range s.far {
		m := s.far[w]
		s.far[w] = 0
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &^= 1 << b
			if j := w<<6 | b; s.due[j] != math.MaxInt64 {
				s.schedule(j, s.due[j])
			}
		}
	}
}

// nextSlot returns the cycle of the first non-empty wheel slot at or
// after now, or math.MaxInt64 when the wheel is empty.
func (s *Scheduler) nextSlot() int64 {
	start := int(s.now & wheelMask)
	n := len(s.occ)
	for i := 0; i <= n; i++ {
		w := (start>>6 + i) % n
		m := s.occ[w]
		switch i {
		case 0:
			m &= ^uint64(0) << (start & 63)
		case n:
			m &= 1<<(start&63) - 1
		}
		if m != 0 {
			slot := w<<6 | bits.TrailingZeros64(m)
			return s.now + int64((slot-start)&wheelMask)
		}
	}
	return math.MaxInt64
}
