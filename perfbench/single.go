package main

// singleTraces are memory-intensive traces of different spatial
// classes, one per IPCP class the paper targets plus big code: dense
// streaming (global stream), constant stride, complex stride,
// irregular, and a large instruction footprint. An odd count keeps the
// median operation inside one trace's latency cluster rather than on
// the edge between two.
var singleTraces = []string{
	"lbm-94",        // stream / GS
	"bwaves-2931",   // constant stride / CS
	"mcf-1536",      // complex stride / CPLX
	"omnetpp-17",    // irregular
	"xalancbmk-165", // big code
}

// runSingle is the single-core workload: for each trace, one run with
// no prefetching and one with L1+L2 IPCP, at a small ipcpsim-style
// budget. Each pair is one operation.
func runSingle(e *env) error {
	p := &simPlan{variants: 8, warmup: 20_000, measure: 60_000}
	for _, t := range singleTraces {
		p.ops = append(p.ops, simOp{label: t, traces: []string{t}, ipcp: []bool{false, true}})
	}
	return runSimPlan(e, p)
}

// mix8Traces is the 8-core heterogeneous mix of the repository's
// multi-core throughput benchmark: dense streaming (lbm, bwaves,
// roms), irregular (mcf, omnetpp), constant stride (exchange2), and
// big code (gcc, xalancbmk).
var mix8Traces = []string{
	"lbm-94", "mcf-1536", "bwaves-2931", "exchange2-387",
	"roms-1070", "omnetpp-17", "gcc-2226", "xalancbmk-165",
}

// runMix8 is the 8-core workload: each operation builds the mix under
// the default engine with L1+L2 IPCP and runs it to its budget. The
// no-prefetching baselines for the speedup run once per variant,
// untimed.
func runMix8(e *env) error {
	p := &simPlan{
		variants: 8,
		warmup:   5_000,
		measure:  5_000,
		ops:      []simOp{{label: "mix8", traces: mix8Traces, ipcp: []bool{true}}},
		baseline: []simOp{{label: "mix8-none", traces: mix8Traces, ipcp: []bool{false}}},
	}
	return runSimPlan(e, p)
}
