package main

import (
	"fmt"
	"os"
	"time"

	"ipcp/internal/sim"
	"ipcp/internal/trace"
	"ipcp/internal/workload"
)

// simOp is one timed operation of the simulator workloads: build one
// system per entry of ipcp over the same traces (one trace per core),
// then run each to its budget. The single-core workload's
// operation is a none-versus-IPCP pair, the paper's speedup query for
// one trace; the mix8 operation is one IPCP run of the 8-core mix.
type simOp struct {
	label  string
	traces []string
	ipcp   []bool // one system per entry: L1+L2 IPCP or no prefetching
}

// simPlan is a simulator workload: operations repeated in whole rounds
// until the measurement time is spent. Round r simulates input variant
// r mod variants, each generated from its own seed derived from the run
// seed, and a pass ends on a whole cycle of variants: a run's figures
// average over several instances of every trace instead of resting on
// one seed's draw.
type simPlan struct {
	ops             []simOp
	variants        int
	warmup, measure uint64
	// baseline names configurations run once after measuring, untimed,
	// for the speedup figure (nil when the operations include them).
	baseline []simOp
}

// opOutput is everything one operation returns.
type opOutput struct {
	results []*sim.Result
	cycles  float64 // simulated cycles, summed over systems
	// ipcpCoreCycles is simulated cycles × cores of the IPCP systems:
	// how often a fully clocked L1-D prefetcher would be called.
	ipcpCoreCycles float64
	setup          time.Duration
	run            time.Duration
}

func (p *simPlan) budget(op simOp) budget {
	return budget{Cores: len(op.traces), Warmup: p.warmup, Measure: p.measure}
}

// build assembles one system, with probes when ps is non-nil.
func (p *simPlan) build(seed int64, traces []string, ipcp bool, ps *probeSet) (*sim.System, error) {
	cfg := sim.PaperConfig(len(traces))
	cfg.Seed = seed
	streams := make([]trace.Stream, len(traces))
	for i, name := range traces {
		w, err := workload.Named(name)
		if err != nil {
			return nil, err
		}
		streams[i] = w.New(seed)
	}
	if ps != nil {
		streams = ps.wrapStreams(streams)
	}
	if ipcp {
		if ps != nil {
			cfg.L1DPrefetcher, cfg.L2Prefetcher = ps.ipcpSpecs()
		} else {
			cfg.L1DPrefetcher = sim.PrefetcherSpec{Name: "ipcp"}
			cfg.L2Prefetcher = sim.PrefetcherSpec{Name: "ipcp"}
		}
	}
	return sim.Build(cfg, streams)
}

// runOp builds every system of op (set-up), then runs them in turn
// (the timed call).
func (p *simPlan) runOp(seed int64, op simOp, ps *probeSet) (opOutput, error) {
	var out opOutput
	t0 := time.Now()
	systems := make([]*sim.System, len(op.ipcp))
	for i, ipcp := range op.ipcp {
		sys, err := p.build(seed, op.traces, ipcp, ps)
		if err != nil {
			return out, err
		}
		systems[i] = sys
	}
	out.setup = time.Since(t0)
	t1 := time.Now()
	for i, sys := range systems {
		res, err := sys.Run(p.warmup, p.measure)
		if err != nil {
			return out, err
		}
		out.results = append(out.results, res)
		out.cycles += float64(sys.CurrentCycle())
		if op.ipcp[i] {
			out.ipcpCoreCycles += float64(sys.CurrentCycle()) * float64(sys.Cores())
		}
	}
	out.run = time.Since(t1)
	return out, nil
}

// passStats summarises one pass over the plan.
type passStats struct {
	rounds   int
	instr    float64 // budgeted instructions run
	runNS    float64 // time inside the timed calls
	roundIPS []float64
	// rawIPS is roundIPS as measured, before the host-speed correction.
	rawIPS []float64
	opMS   []float64
	setupS []float64
	cycles float64 // simulated cycles of every run
	// firstCycles is the first cycle of variants' share of cycles.
	firstCycles    float64
	ipcpCoreCycles float64
	// first holds the first cycle's results per variant, operation and
	// config; digests their canonical hashes, which every later round
	// of the same variant must repeat.
	first   [][][]*sim.Result
	digests [][][]string
}

func (s *passStats) ips() float64 { return ratio(s.instr, s.runNS/1e9) }

// pass runs whole cycles of rounds until seconds have elapsed (rounds >
// 0: exactly that many rounds). Each result is checked, and compared by
// digest against ref (when given) or against the pass's own first
// cycle. Times are at reference host speed, measured around each round.
func (p *simPlan) pass(e *env, seconds float64, rounds int, ps *probeSet, ref [][][]string) (*passStats, error) {
	st := &passStats{}
	start := time.Now()
	for r := 0; ; r++ {
		if rounds > 0 && r == rounds {
			break
		}
		if rounds == 0 && r > 0 && r%p.variants == 0 && time.Since(start).Seconds() >= seconds {
			break
		}
		v := r % p.variants
		seed := deriveSeed(e.seed, v)
		var instr, ns float64
		var runs, setups []time.Duration
		var firstOps [][]*sim.Result
		var firstDigests [][]string
		for oi, op := range p.ops {
			e.attempt(1)
			out, err := p.runOp(seed, op, ps)
			if err != nil {
				e.fail("%s: %v", op.label, err)
				return st, errStop
			}
			want := ref
			if want == nil && r >= p.variants {
				want = st.digests
			}
			var ds []string
			for ci, res := range out.results {
				if err := checkResult(res, len(op.traces), p.measure); err != nil {
					e.fail("%s config %d: %v", op.label, ci, err)
					return st, errStop
				}
				d, err := digest(res)
				if err != nil {
					e.fail("%s: %v", op.label, err)
					return st, errStop
				}
				if want != nil && d != want[v][oi][ci] {
					e.fail("%s variant %d config %d: result digest %s differs from reference %s",
						op.label, v, ci, d[:12], want[v][oi][ci][:12])
					return st, errStop
				}
				ds = append(ds, d)
			}
			firstOps = append(firstOps, out.results)
			firstDigests = append(firstDigests, ds)
			b := p.budget(op)
			instr += float64(b.sumInstr(len(op.ipcp)))
			runs = append(runs, out.run)
			setups = append(setups, out.setup)
			st.cycles += out.cycles
			st.ipcpCoreCycles += out.ipcpCoreCycles
			if r < p.variants {
				st.firstCycles += out.cycles
			}
		}
		if r < p.variants {
			st.first = append(st.first, firstOps)
			st.digests = append(st.digests, firstDigests)
		}
		slow := e.speed.span()
		var rawNS float64
		for i := range runs {
			rawNS += float64(runs[i])
			ns += atRef(runs[i], slow)
			st.opMS = append(st.opMS, atRef(runs[i], slow)/1e6)
			st.setupS = append(st.setupS, atRef(setups[i], slow)/1e9)
		}
		st.rounds++
		st.instr += instr
		st.runNS += ns
		st.roundIPS = append(st.roundIPS, ratio(instr, ns/1e9))
		st.rawIPS = append(st.rawIPS, ratio(instr, rawNS/1e9))
	}
	return st, nil
}

// ipcpResults picks the first cycle's IPCP results and, where the same
// operation also ran without prefetching, the matching baselines.
func (p *simPlan) ipcpResults(st *passStats) (with, base []*sim.Result) {
	for _, ops := range st.first {
		for oi, op := range p.ops {
			var w, b *sim.Result
			for ci, ipcp := range op.ipcp {
				if ipcp {
					w = ops[oi][ci]
				} else {
					b = ops[oi][ci]
				}
			}
			if w != nil {
				with = append(with, w)
				if b != nil {
					base = append(base, b)
				}
			}
		}
	}
	return with, base
}

// runSimPlan measures a simulator workload: the end-to-end metrics
// untraced, or (traced) a profiled untraced pass followed by the probed
// replay of the same rounds.
func runSimPlan(e *env, p *simPlan) error {
	var st *passStats
	gcCycles, alloc, err := e.untracedPass(func() error {
		var err error
		st, err = p.pass(e, e.untracedSeconds(), 0, nil, nil)
		return err
	})
	if err != nil {
		return err
	}
	with, base := p.ipcpResults(st)
	if !e.traced {
		for v := 0; len(base) < len(with) && v < p.variants; v++ {
			for _, op := range p.baseline {
				e.attempt(1)
				out, err := p.runOp(deriveSeed(e.seed, v), op, nil)
				if err != nil {
					return fmt.Errorf("baseline %s: %w", op.label, err)
				}
				for _, res := range out.results {
					if err := checkResult(res, len(op.traces), p.measure); err != nil {
						return fmt.Errorf("baseline %s: %w", op.label, err)
					}
				}
				base = append(base, out.results...)
			}
		}
		sp, err := speedup(with, base)
		if err != nil {
			return err
		}
		e.set("instr_per_s", median(st.roundIPS))
		e.set("setup_s", median(st.setupS))
		e.set("rtt_p50_ms", percentile(st.opMS, 0.5))
		e.set("rtt_p90_ms", percentile(st.opMS, 0.9))
		e.set("sim_ipc", geomean(perCoreIPC(with)))
		e.set("ipcp_speedup", sp)
		fmt.Fprintf(os.Stderr, "perfbench: rounds=%d ops=%d (p90 needs %d); round instr/s p10 %.4g p50 %.4g p90 %.4g; as measured p50 %.4g\n",
			st.rounds, len(st.opMS), minSamplesFor(0.9),
			percentile(st.roundIPS, 0.1), percentile(st.roundIPS, 0.5), percentile(st.roundIPS, 0.9), median(st.rawIPS))
		return nil
	}

	ps := &probeSet{}
	tr, err := p.pass(e, 0, st.rounds, ps, st.digests)
	if err != nil {
		return err
	}
	var totals layerTotals
	totals.add(ps)
	e.setCoreLayer(totals, tr.ipcpCoreCycles, float64(tr.rounds/p.variants))
	e.set("sim.cycles", st.firstCycles)
	e.set("sim.host_ns_per_cycle", ratio(st.runNS, st.cycles))
	e.set("runtime.gc_cycles", float64(gcCycles))
	e.set("runtime.alloc_bytes_per_kinstr", ratio(float64(alloc)*1000, st.instr))
	e.set("traced.slowdown", ratio(st.ips(), tr.ips()))
	e.setSimulated(with)
	e.bypass("session.", "sweep.", "snapshot.", "checkpoint.", "serve.", "journal.")
	return nil
}
