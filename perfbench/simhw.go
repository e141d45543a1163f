package main

import (
	"fmt"
	"strings"

	"ipcp/internal/memsys"
	"ipcp/internal/sim"
)

// checkResult verifies one simulation's output: every core retired its
// measured budget at a positive IPC and no prefetcher was disabled by
// the fail-safe guard.
func checkResult(res *sim.Result, cores int, measure uint64) error {
	if res == nil {
		return fmt.Errorf("nil result")
	}
	if res.Cores != cores || len(res.IPC) != cores || len(res.CoreStats) != cores {
		return fmt.Errorf("result has %d cores, want %d", res.Cores, cores)
	}
	if res.Instructions != measure {
		return fmt.Errorf("measured %d instructions, want %d", res.Instructions, measure)
	}
	for i := 0; i < cores; i++ {
		if res.CoreStats[i].Retired < measure {
			return fmt.Errorf("core %d retired %d of %d", i, res.CoreStats[i].Retired, measure)
		}
		if !(res.IPC[i] > 0) {
			return fmt.Errorf("core %d IPC %v", i, res.IPC[i])
		}
	}
	if len(res.PrefetcherFaults) > 0 {
		f := res.PrefetcherFaults[0]
		return fmt.Errorf("prefetcher %s at %s core %d disabled: %s", f.Name, f.Level, f.Core, f.Reason)
	}
	return nil
}

// perCoreIPC lists every core's IPC across results.
func perCoreIPC(results []*sim.Result) []float64 {
	var out []float64
	for _, r := range results {
		out = append(out, r.IPC...)
	}
	return out
}

// speedup is the geomean over result pairs of per-core IPC ratios
// (with[i] against base[i], core by core).
func speedup(with, base []*sim.Result) (float64, error) {
	if len(with) != len(base) {
		return 0, fmt.Errorf("speedup: %d results against %d baselines", len(with), len(base))
	}
	var ratios []float64
	for i := range with {
		if len(with[i].IPC) != len(base[i].IPC) {
			return 0, fmt.Errorf("speedup: core count mismatch")
		}
		for c := range with[i].IPC {
			ratios = append(ratios, with[i].IPC[c]/base[i].IPC[c])
		}
	}
	return geomean(ratios), nil
}

// setSimulated records the simulated-hardware per-layer metrics summed
// over results (those of the L1+L2 IPCP configuration). They are exact
// functions of the inputs and must not move with host speed. MPKI
// divides by the instructions each core retired in the measured phase,
// including those a fast core runs past its budget while it waits for
// the slowest, since its misses are counted over the same span.
func (e *env) setSimulated(results []*sim.Result) {
	var (
		instr                      float64
		l1dMiss, l2Miss, llcMiss   uint64
		l1dIssued, l1dLate         uint64
		l1dUseful, l1dFills        uint64
		l2Useful, l2Fills          uint64
		classIssued                [memsys.NumClasses]uint64
		rrProbes, rrHits           uint64
		dramReads, rowHits, rowAll uint64
		busBusy, dramCycles        uint64
		robFull, coreCycles        uint64
	)
	for _, r := range results {
		llcMiss += r.LLC.DemandMisses()
		for c := 0; c < r.Cores; c++ {
			l1d, l2 := &r.L1D[c], &r.L2[c]
			l1dMiss += l1d.DemandMisses()
			l2Miss += l2.DemandMisses()
			l1dIssued += l1d.PrefetchIssued
			l1dLate += l1d.LatePrefetch
			l1dUseful += l1d.PrefetchUseful
			l1dFills += l1d.PrefetchFills
			l2Useful += l2.PrefetchUseful
			l2Fills += l2.PrefetchFills
			instr += float64(r.CoreStats[c].Retired)
			robFull += r.CoreStats[c].ROBFullCycles
			coreCycles += r.CoreStats[c].Cycles
			if s := r.IPCPL1[c]; s != nil {
				for k := range s.Classes {
					classIssued[k] += s.Classes[k].Issued
				}
				rrProbes += s.RRProbes
				rrHits += s.RRHits
			}
		}
		dramReads += r.DRAM.Reads
		rowHits += r.DRAM.RowHits
		rowAll += r.DRAM.RowHits + r.DRAM.RowMisses + r.DRAM.RowConflicts
		busBusy += r.DRAM.BusBusyCycles
		dramCycles += r.DRAM.Cycles
	}
	var classTotal uint64
	for _, n := range classIssued {
		classTotal += n
	}
	e.set("l1d.mpki", ratio(float64(l1dMiss)*1000, instr))
	e.set("l2.mpki", ratio(float64(l2Miss)*1000, instr))
	e.set("llc.mpki", ratio(float64(llcMiss)*1000, instr))
	e.set("l1d.pf_issued", float64(l1dIssued))
	e.set("l1d.pf_accuracy", ratio(float64(l1dUseful), float64(l1dFills)))
	e.set("l1d.pf_late", float64(l1dLate))
	e.set("l2.pf_accuracy", ratio(float64(l2Useful), float64(l2Fills)))
	e.set("ipcp.share_cs", ratio(float64(classIssued[memsys.ClassCS]), float64(classTotal)))
	e.set("ipcp.share_cplx", ratio(float64(classIssued[memsys.ClassCPLX]), float64(classTotal)))
	e.set("ipcp.share_gs", ratio(float64(classIssued[memsys.ClassGS]), float64(classTotal)))
	e.set("ipcp.share_nl", ratio(float64(classIssued[memsys.ClassNL]), float64(classTotal)))
	e.set("ipcp.rr_hit_frac", ratio(float64(rrHits), float64(rrProbes)))
	e.set("dram.reads", float64(dramReads))
	e.set("dram.row_hit_frac", ratio(float64(rowHits), float64(rowAll)))
	e.set("dram.bus_util", ratio(float64(busBusy), float64(dramCycles)))
	e.set("cpu.rob_full_frac", ratio(float64(robFull), float64(coreCycles)))
}

// ratio is a/b, or 0 when b is 0 (an empty denominator means the
// event never happened, not an error).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setCoreLayer records the IPCP probe counters and clocking metrics,
// divided by cycles: the number of times the pass went through every
// operation on every input variant, so that counts are exact for a seed
// however many rounds the host's speed allowed. coreCycles is the
// simulated cycles times cores of the systems whose L1-D prefetcher the
// probes wrapped.
func (e *env) setCoreLayer(t layerTotals, coreCycles, cycles float64) {
	all := t.l1d
	all.add(t.l2)
	e.set("trace.next_calls", float64(t.nextCalls)/cycles)
	e.set("trace.next_ns", float64(t.nextNS)/cycles)
	e.set("core.operate_calls", float64(all.operateCalls)/cycles)
	e.set("core.operate_ns", float64(all.operateNS)/cycles)
	e.set("core.fill_calls", float64(all.fillCalls)/cycles)
	e.set("core.fill_ns", float64(all.fillNS)/cycles)
	e.set("core.cycle_calls", float64(all.cycleCalls)/cycles)
	e.set("core.issue_attempts", float64(all.issueAttempts)/cycles)
	e.set("core.issue_accepted_frac", ratio(float64(all.issueAccepted), float64(all.issueAttempts)))
	e.set("sim.clocked_frac", ratio(float64(t.l1d.cycleCalls), coreCycles))
}

// bypass records 0 for every per-layer metric under the given name
// prefixes that the run left unset: layers the workload does not pass
// through.
func (e *env) bypass(prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if _, ok := e.metrics[d.name]; !ok && strings.HasPrefix(d.name, p) {
				e.set(d.name, 0)
			}
		}
	}
}
