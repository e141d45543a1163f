// Benchmarks: one testing.B target per paper table/figure, runnable as
//
//	go test -bench=Fig8 -benchmem
//
// Each bench runs its experiment at the Quick scale and reports the
// headline numbers as custom benchmark metrics (e.g. the IPCP geomean
// speedup), so `go test -bench=.` regenerates every artifact's shape
// in one sweep. EXPERIMENTS.md records a larger-scale run.
package ipcp_test

import (
	"testing"

	"ipcp/internal/experiments"
	"ipcp/internal/sim"
	"ipcp/internal/trace"
	"ipcp/internal/workload"
)

// benchScale trims the Quick scale a little further so the full bench
// sweep stays tractable.
var benchScale = experiments.Scale{
	Warmup:    10_000,
	Measure:   30_000,
	MaxTraces: 5,
	Mixes:     2,
	Seed:      1,
}

// runExperiment executes one experiment per b.N iteration and reports
// selected row values as metrics.
func runExperiment(b *testing.B, id string, metrics map[string]metricRef) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchScale)
		tab, err := e.Run(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for name, ref := range metrics {
				row, ok := tab.Find(ref.row)
				if !ok {
					b.Fatalf("%s: row %q missing", id, ref.row)
				}
				col := ref.col
				if col >= len(row.Values) {
					b.Fatalf("%s: row %q has %d cols", id, ref.row, len(row.Values))
				}
				if col < 0 {
					col = len(row.Values) + col
				}
				b.ReportMetric(row.Values[col], name)
			}
		}
	}
}

type metricRef struct {
	row string
	col int // negative = from the end
}

func BenchmarkFig1(b *testing.B) {
	runExperiment(b, "fig1", map[string]metricRef{
		"mlop-at-L1":     {"mlop", 2},
		"mlop-at-L2":     {"mlop", 0},
		"ipstride-at-L1": {"ipstride", 2},
	})
}

func BenchmarkFig7(b *testing.B) {
	runExperiment(b, "fig7", map[string]metricRef{
		"ipcp-geomean": {"geomean", -1},
		"nl-geomean":   {"geomean", 0},
	})
}

func BenchmarkFig8(b *testing.B) {
	runExperiment(b, "fig8", map[string]metricRef{
		"ipcp-geomean-mi":   {"geomean (mem-intensive)", -1},
		"ipcp-geomean-full": {"geomean (full suite)", -1},
	})
}

func BenchmarkFig9(b *testing.B) {
	runExperiment(b, "fig9", map[string]metricRef{
		"baseline-L1-MPKI": {"no-prefetch", 0},
		"ipcp-L1-MPKI":     {"IPCP", 0},
	})
}

func BenchmarkFig10(b *testing.B) {
	runExperiment(b, "fig10", map[string]metricRef{
		"cov-L1":  {"average", 0},
		"cov-L2":  {"average", 1},
		"cov-LLC": {"average", 2},
	})
}

func BenchmarkFig11(b *testing.B) {
	runExperiment(b, "fig11", map[string]metricRef{
		"covered":       {"average", 0},
		"overpredicted": {"average", 2},
	})
}

func BenchmarkFig12(b *testing.B) {
	runExperiment(b, "fig12", map[string]metricRef{
		"share-CS": {"overall", 0},
		"share-GS": {"overall", 2},
	})
}

func BenchmarkFig13a(b *testing.B) {
	runExperiment(b, "fig13a", map[string]metricRef{
		"full-bouquet": {"IPCP L1 (full bouquet)", 0},
		"with-l2":      {"IPCP L1+L2", 0},
		"cs-only":      {"CS only", 0},
	})
}

func BenchmarkFig13b(b *testing.B) {
	runExperiment(b, "fig13b", map[string]metricRef{
		"paper-order": {"GS>CS>CPLX>NL (paper)", 0},
		"no-metadata": {"paper order, metadata off", 0},
	})
}

func BenchmarkFig14a(b *testing.B) {
	runExperiment(b, "fig14a", map[string]metricRef{
		"ipcp-geomean": {"geomean", -1},
	})
}

func BenchmarkFig14b(b *testing.B) {
	runExperiment(b, "fig14b", map[string]metricRef{
		"ipcp-geomean": {"geomean", -1},
	})
}

func BenchmarkFig15(b *testing.B) {
	runExperiment(b, "fig15", map[string]metricRef{
		"ipcp-overall": {"overall geomean", -1},
	})
}

func BenchmarkTable1(b *testing.B) {
	runExperiment(b, "tab1", map[string]metricRef{
		"total-bytes": {"total", 0},
	})
}

func BenchmarkTable4(b *testing.B) {
	runExperiment(b, "tab4", map[string]metricRef{
		"ipcp-cov-L1": {"IPCP", 0},
		"ipcp-acc-L1": {"IPCP", 3},
	})
}

func BenchmarkSensRepl(b *testing.B) {
	runExperiment(b, "sens-repl", map[string]metricRef{
		"lru":  {"lru", 0},
		"ship": {"ship", 0},
	})
}

func BenchmarkSensCache(b *testing.B) {
	runExperiment(b, "sens-cache", map[string]metricRef{
		"paper-config": {"L1D 48KB, L2 512KB, LLC 2MB (paper)", 0},
	})
}

func BenchmarkSensDRAM(b *testing.B) {
	runExperiment(b, "sens-dram", map[string]metricRef{
		"ipcp-3.2GBps":  {"3.2 GB/s", 0},
		"ipcp-25.6GBps": {"25.6 GB/s", 0},
	})
}

func BenchmarkSensPQ(b *testing.B) {
	runExperiment(b, "sens-pq", map[string]metricRef{
		"pq2-mshr4":  {"PQ=2 MSHR=4", 0},
		"pq8-mshr16": {"PQ=8 MSHR=16", 0},
	})
}

func BenchmarkSensTables(b *testing.B) {
	runExperiment(b, "sens-tables", map[string]metricRef{
		"x1":  {"x1 tables", 0},
		"x16": {"x16 tables", 0},
	})
}

func BenchmarkAblRRFilter(b *testing.B) {
	runExperiment(b, "abl-rr", map[string]metricRef{
		"rr-on":  {"RR filter on (paper)", 0},
		"rr-off": {"RR filter off", 0},
	})
}

func BenchmarkAblThrottle(b *testing.B) {
	runExperiment(b, "abl-throttle", map[string]metricRef{
		"paper-watermarks": {"high=0.75 low=0.40", 0},
		"throttle-off":     {"throttling off", 0},
	})
}

func BenchmarkAblRegionSize(b *testing.B) {
	runExperiment(b, "abl-region", map[string]metricRef{
		"region-2KB": {"2048B regions", 0},
	})
}

func BenchmarkAblCPLXDegree(b *testing.B) {
	runExperiment(b, "abl-degree", map[string]metricRef{
		"degree-3": {"degree 3", 0},
	})
}

func BenchmarkAblSignature(b *testing.B) {
	runExperiment(b, "abl-sig", map[string]metricRef{
		"sig-7bit": {"7-bit signature", 0},
	})
}

// BenchmarkSimulatorThroughput measures raw simulator speed
// (instructions simulated per wall second), the practical limit on
// experiment scale. Each iteration builds and runs a whole system, so
// per-op allocations include construction; see
// BenchmarkSimulatorThroughputSteady for the steady-state inner loop.
func BenchmarkSimulatorThroughput(b *testing.B) {
	s := experiments.NewSession(experiments.Scale{Warmup: 5_000, Measure: 50_000, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(experiments.RunSpec{
			Workloads: []string{"lbm-94"}, L1D: "ipcp", L2: "ipcp",
			Seed: int64(i + 2), // defeat the memoizer
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(55_000*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkSimulatorThroughputSteady measures the simulation inner loop
// in steady state: one system is built and warmed outside the timer,
// and each iteration advances it by a fixed instruction count. With the
// request pool, the fill ring, the fixed MSHR table, and the load ring
// in place this reports ~0 allocs/op — the hot path recycles
// everything it touches.
func BenchmarkSimulatorThroughputSteady(b *testing.B) { benchSteady(b, "lbm-94", false) }

// BenchmarkMemBoundSteadySparse is the same steady-state loop on the
// memory-bound omnetpp-17, whose core mostly waits on DRAM: the
// wake-driven scheduler skips the cycles in which the controller can
// start no transaction.
func BenchmarkMemBoundSteadySparse(b *testing.B) { benchSteady(b, "omnetpp-17", false) }

// BenchmarkMemBoundSteadyDense runs that loop under the dense reference
// scheduler. The ratio of the two is what sparse clocking saves on a
// DRAM-bound core, and `make benchgate` holds it within one run.
func BenchmarkMemBoundSteadyDense(b *testing.B) { benchSteady(b, "omnetpp-17", true) }

func benchSteady(b *testing.B, name string, dense bool) {
	const instrPerOp = 10_000
	cfg := sim.PaperConfig(1)
	cfg.L1DPrefetcher = sim.PrefetcherSpec{Name: "ipcp"}
	cfg.L2Prefetcher = sim.PrefetcherSpec{Name: "ipcp"}
	cfg.DisableFastForward = dense
	w, err := workload.Named(name)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := sim.Build(cfg, []trace.Stream{w.New(1)})
	if err != nil {
		b.Fatal(err)
	}
	// Warm the pools, rings, and page tables past their growth phase.
	if err := sys.Advance(50_000); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Advance(instrPerOp); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(instrPerOp*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}

// benchMix8 spans the paper's Fig. 15 spatial classes twice over:
// dense streaming (lbm, bwaves, roms), irregular (mcf, omnetpp),
// constant stride (exchange2), and big-code (gcc, xalancbmk).
var benchMix8 = []string{
	"lbm-94", "mcf-1536", "bwaves-2931", "exchange2-387",
	"roms-1070", "omnetpp-17", "gcc-2226", "xalancbmk-165",
}

// BenchmarkMultiCoreSeqThroughput measures the multi-core inner loop:
// the 8-core mix, warmed outside the timer, advanced by a fixed
// per-core instruction count per iteration. It reports *aggregate*
// instr/s (instructions summed across all cores).
func BenchmarkMultiCoreSeqThroughput(b *testing.B) { benchMultiCore(b, false) }

// BenchmarkMultiCoreDenseThroughput is the same loop under the dense
// reference scheduler (every component clocked on every cycle). The
// ratio of the two is what wake-driven clocking saves on a busy mix,
// and `make benchgate` holds it within one run.
func BenchmarkMultiCoreDenseThroughput(b *testing.B) { benchMultiCore(b, true) }

func benchMultiCore(b *testing.B, dense bool) {
	const instrPerCorePerOp = 5_000
	cfg := sim.PaperConfig(len(benchMix8))
	cfg.L1DPrefetcher = sim.PrefetcherSpec{Name: "ipcp"}
	cfg.L2Prefetcher = sim.PrefetcherSpec{Name: "ipcp"}
	cfg.DisableFastForward = dense
	streams := make([]trace.Stream, len(benchMix8))
	for i, name := range benchMix8 {
		w, err := workload.Named(name)
		if err != nil {
			b.Fatal(err)
		}
		streams[i] = w.New(1)
	}
	sys, err := sim.Build(cfg, streams)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the pools, rings, and page tables past their growth phase.
	if err := sys.Advance(20_000); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Advance(instrPerCorePerOp); err != nil {
			b.Fatal(err)
		}
	}
	aggregate := float64(instrPerCorePerOp * len(benchMix8))
	b.ReportMetric(aggregate*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}

// --- sweep amortization ---------------------------------------------------

// sweepBenchScale reflects sweep methodology: a long shared warmup
// prefix (4x the Default scale's) and a short per-point measure window
// — a sweep's value is many configurations, not long measurements, so
// the warmup prefix dominates and is exactly what shared-warmup
// forking amortizes.
var sweepBenchScale = experiments.Scale{Warmup: 200_000, Measure: 50_000, Seed: 1}

// sweepBenchSpecs is one warmup group of the prefetcher grid: twelve
// configurations over a single (trace, scale, seed) prefix, so the
// shared-warmup scheduler runs one warmup and forks twelve measures.
func sweepBenchSpecs() []experiments.RunSpec {
	var specs []experiments.RunSpec
	for _, l1 := range []string{"", "nl", "ipstride", "ipcp", "spp", "bop"} {
		for _, l2 := range []string{"", "ipcp"} {
			specs = append(specs, experiments.RunSpec{
				Workloads: []string{"mcf-994"}, L1D: l1, L2: l2,
			})
		}
	}
	return specs
}

// runSweepBench drives the grid sequentially so the two benchmarks
// compare total compute, the quantity that bounds wall-clock once a
// real grid exceeds the core count. The instr/s metric is the rate of
// *delivered* sweep work — every grid point counts warmup+measure,
// whether the warmup was simulated or forked — so the shared variant's
// gain shows up in the metric, not just in ns/op.
func runSweepBench(b *testing.B, run func(*experiments.Session, experiments.RunSpec) (*sim.Result, error)) {
	b.Helper()
	specs := sweepBenchSpecs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(sweepBenchScale) // fresh session: no memo, no resident snapshots
		for _, spec := range specs {
			if _, err := run(s, spec); err != nil {
				b.Fatal(err)
			}
		}
	}
	work := float64(len(specs)) * float64(sweepBenchScale.Warmup+sweepBenchScale.Measure)
	b.ReportMetric(work*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkSweepColdWarmup is the baseline: every grid point re-runs
// the identical warmup prefix (K·(W+M) simulated instructions).
func BenchmarkSweepColdWarmup(b *testing.B) {
	runSweepBench(b, (*experiments.Session).Run)
}

// BenchmarkSweepSharedWarmup runs the same grid through the
// shared-warmup scheduler: one warmup leader, eleven forks from the
// resident snapshot (W + K·M simulated instructions). The ratio to
// BenchmarkSweepColdWarmup is the sweep amortization factor.
func BenchmarkSweepSharedWarmup(b *testing.B) {
	runSweepBench(b, (*experiments.Session).RunShared)
}

func BenchmarkAblTemporal(b *testing.B) {
	runExperiment(b, "abl-temporal", map[string]metricRef{
		"ipcp":          {"IPCP (paper)", 0},
		"ipcp-temporal": {"IPCP + temporal (1024 entries)", 0},
	})
}
