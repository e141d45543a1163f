package main

import (
	"time"

	"ipcp/internal/core"
	"ipcp/internal/prefetch"
	"ipcp/internal/sim"
	"ipcp/internal/telemetry"
	"ipcp/internal/trace"
)

// Layer probes: wrappers the traced run hands to the simulator at its
// public seams (trace.Stream for the workload layer, a PrefetcherSpec
// constructor for the IPCP layer). They count calls and time spent
// inside the wrapped layer and must otherwise be invisible: every
// optional interface the simulator probes for is forwarded, and the
// traced run fails unless its Result digests equal the untraced run's.
// A system is stepped by one goroutine, so the counters need no
// synchronisation as long as each system gets its own probes.

// streamProbe counts trace.Stream.Next calls and their time.
type streamProbe struct {
	inner trace.Stream
	calls uint64
	ns    int64
}

// Next implements trace.Stream.
func (s *streamProbe) Next(in *trace.Instr) bool {
	t := time.Now()
	ok := s.inner.Next(in)
	s.ns += int64(time.Since(t))
	s.calls++
	return ok
}

// Reset implements trace.Stream.
func (s *streamProbe) Reset() { s.inner.Reset() }

// pfCounters are one prefetcher level's probe totals. Operate time
// includes the candidates' trip through the issuer into the cache,
// since the prefetcher blocks on it.
type pfCounters struct {
	operateCalls, fillCalls, cycleCalls uint64
	operateNS, fillNS                   int64
	issueAttempts, issueAccepted        uint64
}

func (c *pfCounters) add(o pfCounters) {
	c.operateCalls += o.operateCalls
	c.fillCalls += o.fillCalls
	c.cycleCalls += o.cycleCalls
	c.operateNS += o.operateNS
	c.fillNS += o.fillNS
	c.issueAttempts += o.issueAttempts
	c.issueAccepted += o.issueAccepted
}

// pfProbe wraps a prefetcher. It sits inside the simulator's Guard
// (it is what PrefetcherSpec.New returns), so it must forward
// NextEventer (the Guard and the cache key fast-forward on it),
// StatsResetter (warmup-boundary counter reset), Traceable and Unwrap
// (introspection snapshots reach the IPCP through it).
type pfProbe struct {
	inner prefetch.Prefetcher
	next  prefetch.NextEventer
	c     pfCounters
	iss   issueProbe
}

func newPfProbe(inner prefetch.Prefetcher) *pfProbe {
	p := &pfProbe{inner: inner}
	p.next, _ = inner.(prefetch.NextEventer)
	p.iss.c = &p.c
	return p
}

// Name implements prefetch.Prefetcher.
func (p *pfProbe) Name() string { return p.inner.Name() }

// Operate implements prefetch.Prefetcher.
func (p *pfProbe) Operate(now int64, a *prefetch.Access, iss prefetch.Issuer) {
	p.iss.inner = iss
	t := time.Now()
	p.inner.Operate(now, a, &p.iss)
	p.c.operateNS += int64(time.Since(t))
	p.c.operateCalls++
}

// Fill implements prefetch.Prefetcher.
func (p *pfProbe) Fill(now int64, f *prefetch.FillEvent) {
	t := time.Now()
	p.inner.Fill(now, f)
	p.c.fillNS += int64(time.Since(t))
	p.c.fillCalls++
}

// Cycle implements prefetch.Prefetcher. It is called every clocked
// cycle, so it is counted but not timed.
func (p *pfProbe) Cycle(now int64) {
	p.c.cycleCalls++
	p.inner.Cycle(now)
}

// NextEvent implements prefetch.NextEventer, keeping the conservative
// every-cycle answer for an inner prefetcher that declares no bound.
func (p *pfProbe) NextEvent(now int64) int64 {
	if p.next != nil {
		return p.next.NextEvent(now)
	}
	return now + 1
}

// Unwrap implements prefetch.Wrapper.
func (p *pfProbe) Unwrap() prefetch.Prefetcher { return p.inner }

// ResetStats implements telemetry.StatsResetter.
func (p *pfProbe) ResetStats() {
	if r, ok := p.inner.(telemetry.StatsResetter); ok {
		r.ResetStats()
	}
}

// SetTracer implements telemetry.Traceable.
func (p *pfProbe) SetTracer(tr *telemetry.Tracer, core int) {
	if t, ok := p.inner.(telemetry.Traceable); ok {
		t.SetTracer(tr, core)
	}
}

// issueProbe counts the candidates a prefetcher offers and how many
// the cache accepts.
type issueProbe struct {
	inner prefetch.Issuer
	c     *pfCounters
}

// Issue implements prefetch.Issuer.
func (i *issueProbe) Issue(c prefetch.Candidate) bool {
	ok := i.inner.Issue(c)
	i.c.issueAttempts++
	if ok {
		i.c.issueAccepted++
	}
	return ok
}

// probeSet collects the probes of one traced system.
type probeSet struct {
	streams []*streamProbe
	l1d     []*pfProbe
	l2      []*pfProbe
}

// wrapStreams puts a probe around every stream.
func (ps *probeSet) wrapStreams(streams []trace.Stream) []trace.Stream {
	out := make([]trace.Stream, len(streams))
	for i, s := range streams {
		p := &streamProbe{inner: s}
		ps.streams = append(ps.streams, p)
		out[i] = p
	}
	return out
}

// ipcpSpecs returns L1-D and L2 prefetcher specs that build the
// paper's IPCP exactly as the "ipcp" registry entry does, each behind
// a probe recorded in ps.
func (ps *probeSet) ipcpSpecs() (l1d, l2 sim.PrefetcherSpec) {
	l1d = sim.PrefetcherSpec{New: func() (prefetch.Prefetcher, error) {
		p := newPfProbe(core.NewL1IPCP(core.DefaultL1Config()))
		ps.l1d = append(ps.l1d, p)
		return p, nil
	}}
	l2 = sim.PrefetcherSpec{New: func() (prefetch.Prefetcher, error) {
		p := newPfProbe(core.NewL2IPCP(core.DefaultL2Config()))
		ps.l2 = append(ps.l2, p)
		return p, nil
	}}
	return l1d, l2
}

// layerTotals sums probe counters across traced systems.
type layerTotals struct {
	nextCalls uint64
	nextNS    int64
	l1d, l2   pfCounters
}

func (t *layerTotals) add(ps *probeSet) {
	for _, s := range ps.streams {
		t.nextCalls += s.calls
		t.nextNS += s.ns
	}
	for _, p := range ps.l1d {
		t.l1d.add(p.c)
	}
	for _, p := range ps.l2 {
		t.l2.add(p.c)
	}
}
