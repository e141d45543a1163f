// Package cache implements the set-associative cache model used at
// every level of the simulated hierarchy: read/write/prefetch queues,
// MSHRs with request merging, a non-inclusive fill path, per-line
// prefetch class tags, and the prefetcher hook points.
//
// The model is cycle-stepped: each cache services a bounded number of
// lookups per clocked cycle (its "ports"), forwards misses downward
// through memsys.Sink and receives data back through memsys.Receiver.
// The scheduler clocks a cache only when it is due: at the NextEvent it
// reported when last clocked, or when an input wakes it (see the
// scheduler contract in DESIGN.md).
package cache

import (
	"fmt"
	"math"

	"ipcp/internal/memsys"
	"ipcp/internal/prefetch"
	"ipcp/internal/repl"
	"ipcp/internal/telemetry"
)

// Config describes one cache.
type Config struct {
	Name  string
	Level memsys.Level

	Sets int // must be a power of two
	Ways int

	// Latency is the lookup (hit) latency in cycles.
	Latency int
	// Ports bounds read-side lookups (demand + prefetch) per cycle.
	Ports int

	RQSize, WQSize, PQSize, MSHRs int

	// Repl names the replacement policy ("lru" if empty).
	Repl string
}

// SizeBytes returns the capacity of the configured cache.
func (c Config) SizeBytes() int { return c.Sets * c.Ways * memsys.BlockSize }

// Line is one cache block's bookkeeping state.
type Line struct {
	Tag        uint64 // block number
	Valid      bool
	Dirty      bool
	Prefetched bool // brought in by a prefetch and not yet demanded
	Class      memsys.PrefetchClass
}

// Stats aggregates a cache's counters. Demand counters exclude
// writebacks and prefetches.
type Stats struct {
	Access [5]uint64
	Hit    [5]uint64
	Miss   [5]uint64

	MSHRMerges   uint64
	LatePrefetch uint64 // demand merged into an outstanding prefetch miss

	PrefetchIssued       uint64
	PrefetchDropPQFull   uint64
	PrefetchMSHRStall    uint64
	PrefetchDropUnmapped uint64
	PrefetchFills        uint64
	PrefetchUseful       uint64
	UselessEvicted       uint64 // prefetched lines evicted untouched

	IssuedByClass [memsys.NumClasses]uint64
	FillsByClass  [memsys.NumClasses]uint64
	UsefulByClass [memsys.NumClasses]uint64

	Writebacks uint64

	DemandMissLatency uint64 // summed cycles
	DemandMissSamples uint64
}

// DemandAccesses returns loads + RFOs + code reads handled.
func (s *Stats) DemandAccesses() uint64 {
	return s.Access[memsys.Load] + s.Access[memsys.RFO] + s.Access[memsys.CodeRead]
}

// DemandMisses returns demand misses (loads + RFOs + code reads).
func (s *Stats) DemandMisses() uint64 {
	return s.Miss[memsys.Load] + s.Miss[memsys.RFO] + s.Miss[memsys.CodeRead]
}

// DemandHits returns demand hits.
func (s *Stats) DemandHits() uint64 {
	return s.Hit[memsys.Load] + s.Hit[memsys.RFO] + s.Hit[memsys.CodeRead]
}

// Accuracy returns useful/filled prefetch accuracy in [0,1], or 0 when
// no prefetch has filled.
func (s *Stats) Accuracy() float64 {
	if s.PrefetchFills == 0 {
		return 0
	}
	return float64(s.PrefetchUseful) / float64(s.PrefetchFills)
}

// Translator maps a virtual prefetch address to a physical one without
// allocating pages; ok=false drops the candidate.
type Translator func(v memsys.Addr) (memsys.Addr, bool)

// Auditor observes the cache's architectural events so an external
// reference model (internal/audit) can shadow the line array and cross-
// check hits, victims and bookkeeping. Every hook fires next to the
// corresponding Stats update; nil (the default) costs one predictable
// branch per site. OnAccess fires once per serviced request — never for
// a request parked at its queue head (MSHR full) or a pass-through
// prefetch drop, which touch no stats or replacement state either.
// Ordering caveat: a write-allocate miss installs the block before it is
// counted, so for Writeback accesses the OnInstall event precedes the
// OnAccess event of the same request.
type Auditor interface {
	OnAccess(now int64, addr memsys.Addr, typ memsys.AccessType, hit, hitPrefetched bool, hitClass memsys.PrefetchClass)
	OnInstall(now int64, addr memsys.Addr, typ memsys.AccessType, prefetched bool, class memsys.PrefetchClass,
		victim memsys.Addr, victimValid, victimDirty, victimPrefetched bool)
	OnResetStats()
}

// Cache is one level of the hierarchy.
type Cache struct {
	cfg   Config
	lines []Line
	pol   repl.Policy

	lower memsys.Sink
	pf    prefetch.Prefetcher
	// pfNil caches whether pf is the no-op prefetcher (fast-path key).
	pfNil bool
	// pfNext caches pf's NextEventer, nil when pf gives no bound (the
	// cache then never reports quiescence past the next cycle).
	pfNext prefetch.NextEventer

	// translate is set on the L1-D: prefetcher candidates there are
	// virtual addresses.
	translate Translator

	rq, wq, pq *queue
	mshr       *mshrTable
	fills      fillRing

	// pool recycles Requests across the whole system (nil: allocate).
	pool *memsys.RequestPool

	// wake is the cache's scheduler handle, called on every accepted
	// input; feeder is woken when a slot opens in a full read queue.
	wake, feeder memsys.Wake

	// installCb adapts installFill to the fill ring without a per-call
	// closure allocation (c.now carries the cycle).
	installCb func(*memsys.Request) bool

	// iss is the prefetcher-facing issuer, boxed once instead of per
	// Operate call.
	iss prefetch.Issuer
	// opAcc and fillEv are the reusable hook-argument buffers; the
	// prefetcher contract forbids retaining the pointers.
	opAcc  prefetch.Access
	fillEv prefetch.FillEvent

	// rqBlocked records that the read-queue head was tried this cycle
	// and could not make progress (MSHR full, no merge): it cannot
	// unblock before a fill completes, so the cache may sleep.
	rqBlocked bool

	setsMask uint64
	now      int64

	// tr is the optional event tracer (nil = tracing off); trCore tags
	// events with the owning core (-1 for the shared LLC).
	tr     *telemetry.Tracer
	trCore int

	// aud is the optional architectural auditor (nil = auditing off).
	aud Auditor

	Stats Stats
}

// New constructs a cache. The lower sink and prefetcher are attached
// with SetLower / SetPrefetcher before the first cycle.
func New(cfg Config) (*Cache, error) {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		return nil, fmt.Errorf("cache %s: sets must be a power of two, got %d", cfg.Name, cfg.Sets)
	}
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache %s: ways must be positive", cfg.Name)
	}
	if cfg.Ports <= 0 {
		cfg.Ports = 1
	}
	if cfg.Repl == "" {
		cfg.Repl = "lru"
	}
	pol, err := repl.New(cfg.Repl, cfg.Sets, cfg.Ways)
	if err != nil {
		return nil, fmt.Errorf("cache %s: %w", cfg.Name, err)
	}
	c := &Cache{
		cfg:      cfg,
		lines:    make([]Line, cfg.Sets*cfg.Ways),
		pol:      pol,
		rq:       newQueue(cfg.RQSize),
		wq:       newQueue(cfg.WQSize),
		pq:       newQueue(cfg.PQSize),
		mshr:     newMSHR(cfg.MSHRs),
		fills:    newFillRing(),
		setsMask: uint64(cfg.Sets - 1),
	}
	c.SetPrefetcher(nil)
	c.iss = issuer{c}
	c.installCb = func(req *memsys.Request) bool { return c.installFill(c.now, req) }
	return c, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// SetLower attaches the next level down.
func (c *Cache) SetLower(s memsys.Sink) { c.lower = s }

// SetRequestPool attaches the system-wide request free list (nil keeps
// plain allocation, the default for standalone caches).
func (c *Cache) SetRequestPool(p *memsys.RequestPool) { c.pool = p }

// SetWake attaches the cache's scheduler handle, and the handle of the
// producer that waits on a full read queue without a retry of its own
// (the core, at the L1-D); the zero Wake for feeder means none.
func (c *Cache) SetWake(self, feeder memsys.Wake) {
	c.wake = self
	c.feeder = feeder
}

// SetPrefetcher attaches a prefetcher (nil detaches).
func (c *Cache) SetPrefetcher(p prefetch.Prefetcher) {
	if p == nil {
		p = prefetch.Nil{}
	}
	c.pf = p
	_, c.pfNil = p.(prefetch.Nil)
	c.pfNext, _ = p.(prefetch.NextEventer)
}

// Prefetcher returns the attached prefetcher.
func (c *Cache) Prefetcher() prefetch.Prefetcher { return c.pf }

// SetTranslator supplies the virtual→physical mapping for prefetch
// candidates (L1-D only).
func (c *Cache) SetTranslator(t Translator) { c.translate = t }

// SetTracer implements telemetry.Traceable: attach (or detach, with
// nil) the event tracer. core tags emitted events (-1 for shared
// caches).
func (c *Cache) SetTracer(tr *telemetry.Tracer, core int) {
	c.tr = tr
	c.trCore = core
}

// SetAuditor attaches an architectural auditor (nil detaches).
func (c *Cache) SetAuditor(a Auditor) { c.aud = a }

// ResetStats zeroes the counters (end of warmup).
func (c *Cache) ResetStats() {
	c.Stats = Stats{}
	if c.aud != nil {
		c.aud.OnResetStats()
	}
}

// --- memsys.Sink ------------------------------------------------------

// AddRead enqueues a demand read from above.
func (c *Cache) AddRead(r *memsys.Request) bool { return c.accept(c.rq, r) }

// AddWrite enqueues a writeback from above.
func (c *Cache) AddWrite(r *memsys.Request) bool { return c.accept(c.wq, r) }

// AddPrefetch enqueues a prefetch from the level above.
func (c *Cache) AddPrefetch(r *memsys.Request) bool { return c.accept(c.pq, r) }

// accept pushes r onto q, waking the cache when it is taken.
func (c *Cache) accept(q *queue, r *memsys.Request) bool {
	if !q.push(r) {
		return false
	}
	c.wake.Input()
	return true
}

// --- memsys.Receiver ----------------------------------------------------

// ReturnData receives a completed forwarded request from below.
func (c *Cache) ReturnData(ready int64, req *memsys.Request) {
	c.fills.push(ready, req)
	c.wake.Input()
}

// --- clocking -----------------------------------------------------------

// Cycle advances the cache one cycle.
func (c *Cache) Cycle(now int64) {
	c.now = now

	// Idle fast path: with empty queues, no due fill, and nothing to
	// forward, the full pass below is a no-op — only the prefetcher's
	// clock remains. This is the common state for the L1-I and for
	// lower levels between bursts.
	if c.fills.minReady > now && c.mshr.pendingIssue == 0 &&
		c.wq.size == 0 && c.rq.size == 0 && c.pq.size == 0 {
		c.rqBlocked = false
		if !c.pfNil {
			c.pf.Cycle(now)
		}
		return
	}

	c.fills.process(now, c.installCb)
	c.issueMSHR(now)

	// One writeback handled per cycle.
	if r := c.wq.peek(); r != nil {
		if c.handleWrite(now, r) {
			c.wq.pop()
		}
	}

	// Read-side lookups: demand queue has priority over prefetches,
	// but the prefetch queue always gets one lookup of its own — the
	// paper's L1 prefetcher never probes the data ports (that is what
	// the RR filter is for), so prefetches do not starve behind a
	// saturated demand stream.
	c.rqBlocked = false
	budget := c.cfg.Ports
	for budget > 0 {
		if r := c.rq.peek(); r != nil {
			if !c.handleRead(now, r) {
				c.rqBlocked = true
				break // head blocked (MSHR full); retry next cycle
			}
			if c.rq.full() {
				c.feeder.Input() // a slot opens for a producer that bounced
			}
			c.rq.pop()
			budget--
			continue
		}
		break
	}
	pfBudget := budget
	if pfBudget < 1 {
		pfBudget = 1
	}
	for pfBudget > 0 {
		r := c.pq.peek()
		if r == nil {
			break
		}
		if !c.handlePrefetchPop(now, r) {
			break
		}
		c.pq.pop()
		pfBudget--
	}

	if !c.pfNil {
		c.pf.Cycle(now)
	}
}

// NextEvent reports the earliest future cycle at which clocking this
// cache could have any effect — on its own state, its statistics, or
// another component — provided no input arrives first. Between now and
// the returned cycle every Cycle call is provably a no-op, so the
// scheduler may leave the cache asleep until then. Inputs are the four
// entry points AddRead, AddWrite, AddPrefetch and ReturnData, and each
// wakes the cache through its scheduler handle; prefetch.NoEvent means
// only such an input can make it due.
func (c *Cache) NextEvent(now int64) int64 {
	// Queued writebacks and prefetches are retried every cycle, and
	// their handlers touch counters (e.g. PrefetchMSHRStall), so any
	// occupancy pins the cache awake.
	if c.wq.len() > 0 || c.pq.len() > 0 {
		return now + 1
	}
	// A read-queue head that was not even tried this cycle (ports
	// exhausted, or freshly pushed) must be tried next cycle; one that
	// bounced off a full MSHR can only unblock when a fill frees an
	// entry, which the fill bound below covers.
	if c.rq.len() > 0 && !c.rqBlocked {
		return now + 1
	}
	next := int64(math.MaxInt64)
	if c.fills.len() > 0 {
		if c.fills.minReady <= now {
			return now + 1 // blocked install retries every cycle
		}
		next = c.fills.minReady
	}
	if t, ok := c.mshr.nextIssue(); ok {
		if t <= now {
			return now + 1 // forward retry (lower queue full)
		}
		if t < next {
			next = t
		}
	}
	// The prefetcher's epoch/delay machinery: without a declared
	// bound we must assume its Cycle does work every cycle.
	if !c.pfNil {
		if c.pfNext == nil {
			return now + 1
		}
		if t := c.pfNext.NextEvent(now); t < next {
			next = t
		}
	}
	if next <= now {
		return now + 1
	}
	return next
}

// lookup finds the way holding block, or -1.
func (c *Cache) lookup(block uint64) (set, way int) {
	set = int(block & c.setsMask)
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		if l := &c.lines[base+w]; l.Valid && l.Tag == block {
			return set, w
		}
	}
	return set, -1
}

// Probe reports whether the block containing addr is resident (testing
// and statistics; does not touch replacement state).
func (c *Cache) Probe(addr memsys.Addr) bool {
	_, way := c.lookup(memsys.BlockNumber(addr))
	return way >= 0
}

// handleRead services the head of the read queue. It returns false if
// the request cannot make progress this cycle.
func (c *Cache) handleRead(now int64, r *memsys.Request) bool {
	return c.service(now, r, false)
}

// handlePrefetchPop services the head of the prefetch queue.
func (c *Cache) handlePrefetchPop(now int64, r *memsys.Request) bool {
	// A prefetch whose fill target is deeper than this cache is only
	// passing through: check residency, then forward without MSHR.
	if r.FillLevel > c.cfg.Level {
		_, way := c.lookup(memsys.BlockNumber(r.Addr))
		if way >= 0 {
			c.pool.Put(r) // already resident here; drop
			return true
		}
		return c.lower.AddPrefetch(r)
	}
	return c.service(now, r, true)
}

// service performs the tag lookup and hit/miss handling shared by
// demand reads and prefetches. fromPQ marks prefetch-queue pops.
func (c *Cache) service(now int64, r *memsys.Request, fromPQ bool) bool {
	block := memsys.BlockNumber(r.Addr)
	set, way := c.lookup(block)

	external := !fromPQ || r.PfOrigin != c.cfg.Level

	if way >= 0 {
		line := &c.lines[set*c.cfg.Ways+way]
		hitClass := memsys.ClassNone
		hitPrefetched := false
		if line.Prefetched && r.Type.IsDemand() {
			c.Stats.PrefetchUseful++
			c.Stats.UsefulByClass[line.Class]++
			hitClass = line.Class
			hitPrefetched = true
			line.Prefetched = false
			if c.tr != nil {
				c.tr.Emit(telemetry.Event{
					Cycle: now, Kind: telemetry.EvUseful,
					Level: c.cfg.Level, Core: c.trCore, Class: hitClass,
					Addr: r.Addr, IP: r.IP,
				})
			}
		}
		c.count(r.Type, true)
		c.pol.Hit(set, way, r)
		if r.Type == memsys.RFO {
			line.Dirty = true
		}
		if c.aud != nil {
			c.aud.OnAccess(now, r.Addr, r.Type, true, hitPrefetched, hitClass)
		}
		if external {
			c.operatePrefetcher(now, r, true, hitPrefetched, hitClass)
		}
		if r.ReturnTo != nil {
			r.ReturnTo.ReturnData(now+int64(c.cfg.Latency), r)
		} else {
			c.pool.Put(r) // terminal here: RFO or prefetch hit
		}
		return true
	}

	// Miss. Merge into an outstanding entry if one exists.
	if e := c.mshr.find(block); e != nil {
		c.count(r.Type, false)
		if c.aud != nil {
			c.aud.OnAccess(now, r.Addr, r.Type, false, false, memsys.ClassNone)
		}
		c.Stats.MSHRMerges++
		e.waiters = append(e.waiters, r)
		if r.Type.IsDemand() {
			if e.prefetchOnly {
				c.Stats.LatePrefetch++
				e.prefetchOnly = false
			}
			if r.FillLevel < e.fillLevel {
				e.fillLevel = r.FillLevel
			}
		}
		if external {
			c.operatePrefetcher(now, r, false, false, memsys.ClassNone)
		}
		return true
	}

	if c.mshr.full() {
		if r.IsPrefetch() && fromPQ {
			c.Stats.PrefetchMSHRStall++
		}
		// Both demands and prefetches wait at their queue heads for an
		// MSHR slot (as in ChampSim). A full PQ then drops newly
		// issued prefetches — the paper's natural throttling.
		return false
	}

	c.count(r.Type, false)
	if c.aud != nil {
		c.aud.OnAccess(now, r.Addr, r.Type, false, false, memsys.ClassNone)
	}
	fl := r.FillLevel
	if fl == 0 {
		fl = c.cfg.Level
	}
	e := c.mshr.alloc()
	e.block = block
	e.waiters = append(e.waiters, r)
	e.readyToIssue = now + int64(c.cfg.Latency)
	e.prefetchOnly = r.IsPrefetch()
	e.class = r.PfClass
	e.meta = r.PfMeta
	e.fillLevel = fl
	e.born = now
	if external {
		c.operatePrefetcher(now, r, false, false, memsys.ClassNone)
	}
	return true
}

func (c *Cache) count(t memsys.AccessType, hit bool) {
	c.Stats.Access[t]++
	if hit {
		c.Stats.Hit[t]++
	} else {
		c.Stats.Miss[t]++
	}
}

// operatePrefetcher invokes the attached prefetcher's Operate hook. The
// Access buffer is reused across calls; prefetchers must not retain it.
func (c *Cache) operatePrefetcher(now int64, r *memsys.Request, hit, hitPrefetched bool, hitClass memsys.PrefetchClass) {
	if c.pfNil {
		return
	}
	vaddr := r.VAddr
	if c.translate == nil {
		// Below the (virtually trained) L1-D, prefetchers operate on
		// physical addresses only: their candidates are issued
		// untranslated, so offering a virtual address here would make
		// them prefetch the wrong physical lines.
		vaddr = 0
	}
	c.opAcc = prefetch.Access{
		Addr:          r.Addr,
		VAddr:         vaddr,
		IP:            r.IP,
		Type:          r.Type,
		Hit:           hit,
		Meta:          r.PfMeta,
		HitPrefetched: hitPrefetched,
		HitClass:      hitClass,
	}
	c.pf.Operate(now, &c.opAcc, c.iss)
}

// issuer adapts the cache to prefetch.Issuer.
type issuer struct{ c *Cache }

// Issue accepts a prefetch candidate from the attached prefetcher.
func (i issuer) Issue(cand prefetch.Candidate) bool {
	return i.c.issuePrefetch(cand)
}

func (c *Cache) issuePrefetch(cand prefetch.Candidate) bool {
	paddr := cand.Addr
	vaddr := memsys.Addr(0)
	if c.translate != nil {
		vaddr = cand.Addr
		p, ok := c.translate(cand.Addr)
		if !ok {
			c.Stats.PrefetchDropUnmapped++
			return false
		}
		paddr = p
	}
	if c.pq.full() {
		c.Stats.PrefetchDropPQFull++
		return false
	}
	fl := cand.FillLevel
	if fl == 0 {
		fl = c.cfg.Level
	}
	r := c.pool.Get()
	*r = memsys.Request{
		Addr:      memsys.BlockAlign(paddr),
		VAddr:     memsys.BlockAlign(vaddr),
		IP:        cand.IP,
		Type:      memsys.Prefetch,
		FillLevel: fl,
		PfClass:   cand.Class,
		PfMeta:    cand.Meta,
		PfOrigin:  c.cfg.Level,
		Born:      c.now,
	}
	c.pq.push(r)
	c.Stats.PrefetchIssued++
	c.Stats.IssuedByClass[cand.Class]++
	if c.tr != nil {
		c.tr.Emit(telemetry.Event{
			Cycle: c.now, Kind: telemetry.EvIssued,
			Level: c.cfg.Level, Core: c.trCore, Class: cand.Class,
			Addr: r.Addr, IP: cand.IP,
		})
	}
	return true
}

// issueMSHR forwards unissued misses to the lower level.
func (c *Cache) issueMSHR(now int64) {
	c.mshr.unissued(func(e *mshrEntry) {
		if e.readyToIssue > now {
			return
		}
		first := e.waiters[0]
		fwd := c.pool.Get()
		*fwd = memsys.Request{
			Addr:      e.block << memsys.BlockBits,
			VAddr:     memsys.BlockAlign(first.VAddr),
			IP:        first.IP,
			CoreID:    first.CoreID,
			FillLevel: e.fillLevel,
			PfClass:   e.class,
			PfMeta:    e.meta,
			PfOrigin:  first.PfOrigin,
			ReturnTo:  c,
			Born:      e.born,
		}
		if e.prefetchOnly {
			fwd.Type = memsys.Prefetch
			if c.lower.AddPrefetch(fwd) {
				c.mshr.markIssued(e)
			} else {
				c.pool.Put(fwd)
			}
			return
		}
		fwd.Type = firstDemandType(e.waiters)
		if c.lower.AddRead(fwd) {
			c.mshr.markIssued(e)
		} else {
			c.pool.Put(fwd)
		}
	})
}

func firstDemandType(ws []*memsys.Request) memsys.AccessType {
	for _, w := range ws {
		if w.Type.IsDemand() {
			return w.Type
		}
	}
	return memsys.Load
}

// installFill installs the returned block for req and completes its
// MSHR entry. It returns false if the install cannot proceed (dirty
// victim with the lower write queue full).
func (c *Cache) installFill(now int64, req *memsys.Request) bool {
	block := memsys.BlockNumber(req.Addr)
	e := c.mshr.find(block)

	prefetched := e != nil && e.prefetchOnly
	class := memsys.ClassNone
	if e != nil {
		class = e.class
	}

	if _, way := c.lookup(block); way < 0 {
		if !c.install(now, req, prefetched, class) {
			return false
		}
	}

	if e == nil {
		c.pool.Put(req) // stale fill (entry already satisfied)
		return true
	}
	if e.prefetchOnly {
		c.Stats.PrefetchFills++
		c.Stats.FillsByClass[e.class]++
		if c.tr != nil {
			c.tr.Emit(telemetry.Event{
				Cycle: now, Kind: telemetry.EvFill,
				Level: c.cfg.Level, Core: c.trCore, Class: e.class,
				Addr: req.Addr,
			})
		}
	}
	for _, w := range e.waiters {
		// Latency stats read w before ReturnData: the receiver may
		// recycle the request as soon as it gets it back.
		if w.Type.IsDemand() {
			c.Stats.DemandMissLatency += uint64(now - w.Born)
			c.Stats.DemandMissSamples++
		}
		if w.ReturnTo != nil {
			w.ReturnTo.ReturnData(now, w)
		} else {
			c.pool.Put(w) // terminal: store RFO or prefetch waiter
		}
	}
	c.mshr.free(block)
	c.pool.Put(req) // the forwarded request this cache created
	return true
}

// install places a block into its set, evicting a victim if needed.
// It returns false when a dirty victim cannot be written back yet.
func (c *Cache) install(now int64, req *memsys.Request, prefetched bool, class memsys.PrefetchClass) bool {
	block := memsys.BlockNumber(req.Addr)
	set := int(block & c.setsMask)
	base := set * c.cfg.Ways
	way := -1
	for w := 0; w < c.cfg.Ways; w++ {
		if !c.lines[base+w].Valid {
			way = w
			break
		}
	}
	var evicted memsys.Addr
	evictedUnused := false
	victimValid, victimDirty := false, false
	if way < 0 {
		way = c.pol.Victim(set, req)
		victim := &c.lines[base+way]
		victimValid, victimDirty = true, victim.Dirty
		if victim.Dirty {
			wb := c.pool.Get()
			*wb = memsys.Request{
				Addr:   victim.Tag << memsys.BlockBits,
				Type:   memsys.Writeback,
				CoreID: req.CoreID,
				Born:   now,
			}
			if c.lower == nil || !c.lower.AddWrite(wb) {
				c.pool.Put(wb)
				return false
			}
			c.Stats.Writebacks++
		}
		if victim.Prefetched {
			c.Stats.UselessEvicted++
			evictedUnused = true
		}
		evicted = victim.Tag << memsys.BlockBits
	}
	c.lines[base+way] = Line{
		Tag:        block,
		Valid:      true,
		Dirty:      req.Type == memsys.RFO || req.Type == memsys.Writeback,
		Prefetched: prefetched,
		Class:      class,
	}
	c.pol.Fill(set, way, req)
	if c.aud != nil {
		c.aud.OnInstall(now, req.Addr, req.Type, prefetched, class,
			evicted, victimValid, victimDirty, evictedUnused)
	}
	if !c.pfNil {
		c.fillEv = prefetch.FillEvent{
			Addr:                  memsys.BlockAlign(req.Addr),
			VAddr:                 memsys.BlockAlign(req.VAddr),
			Set:                   set,
			Way:                   way,
			Prefetch:              prefetched,
			Class:                 class,
			Evicted:               evicted,
			EvictedUnusedPrefetch: evictedUnused,
		}
		c.pf.Fill(now, &c.fillEv)
	}
	return true
}

// handleWrite services a writeback from above: hit updates in place,
// miss allocates the block locally (write-allocate without fetch).
func (c *Cache) handleWrite(now int64, r *memsys.Request) bool {
	block := memsys.BlockNumber(r.Addr)
	set, way := c.lookup(block)
	if way >= 0 {
		c.count(memsys.Writeback, true)
		line := &c.lines[set*c.cfg.Ways+way]
		line.Dirty = true
		c.pol.Hit(set, way, r)
		if c.aud != nil {
			c.aud.OnAccess(now, r.Addr, memsys.Writeback, true, false, memsys.ClassNone)
		}
		c.pool.Put(r)
		return true
	}
	if !c.install(now, r, false, memsys.ClassNone) {
		return false
	}
	c.count(memsys.Writeback, false)
	if c.aud != nil {
		c.aud.OnAccess(now, r.Addr, memsys.Writeback, false, false, memsys.ClassNone)
	}
	c.pool.Put(r)
	return true
}

// Occupancy reports current queue and MSHR occupancy (testing).
func (c *Cache) Occupancy() (rq, wq, pq, mshr int) {
	return c.rq.len(), c.wq.len(), c.pq.len(), c.mshr.len()
}
