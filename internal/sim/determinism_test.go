package sim

import (
	"encoding/json"
	"testing"

	"ipcp/internal/telemetry"
)

// detSpec is one cell of the determinism matrix.
type detSpec struct {
	name      string
	workloads []string
	seed      int64
	l1d, l2   string
}

func (d detSpec) run(t *testing.T, disableFF bool, ilog *telemetry.IntervalLog) *Result {
	t.Helper()
	cfg := PaperConfig(len(d.workloads))
	cfg.Seed = d.seed
	cfg.L1DPrefetcher = PrefetcherSpec{Name: d.l1d}
	cfg.L2Prefetcher = PrefetcherSpec{Name: d.l2}
	cfg.DisableFastForward = disableFF
	sys, err := Build(cfg, streamsFor(t, d.workloads, d.seed))
	if err != nil {
		t.Fatal(err)
	}
	if ilog != nil {
		sys.SetIntervalLog(ilog)
	}
	res, err := sys.Run(2000, 10000)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func marshal(t *testing.T, res *Result) []byte {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// mix8 is the paper's Fig. 15 spatial classes twice over (the same mix
// the multi-core benchmarks run): eight cores contending for the LLC
// and DRAM keep some components busy every cycle while most sleep,
// which is where a missed wake shows.
var mix8 = []string{
	"lbm-94", "mcf-1536", "bwaves-2931", "exchange2-387",
	"roms-1070", "omnetpp-17", "gcc-2226", "xalancbmk-165",
}

var detMatrix = []detSpec{
	{name: "lbm-ipcp", workloads: []string{"lbm-94"}, seed: 1, l1d: "ipcp", l2: "ipcp"},
	{name: "mcf-ipcp", workloads: []string{"mcf-1536"}, seed: 7, l1d: "ipcp", l2: "ipcp"},
	{name: "bwaves-none", workloads: []string{"bwaves-2931"}, seed: 3},
	{name: "gcc-spp", workloads: []string{"gcc-2226"}, seed: 5, l2: "spp"},
	{name: "mix4-ipcp", seed: 2, l1d: "ipcp", l2: "ipcp",
		workloads: []string{"lbm-94", "mcf-1536", "bwaves-2931", "exchange2-387"}},
	{name: "mix8-ipcp", workloads: mix8, seed: 1, l1d: "ipcp", l2: "ipcp"},
	{name: "mix8-none", workloads: mix8, seed: 2},
	// Bingo at the L1-D fills its read queue: the cell that exercises the
	// L1-D's wake of a core whose load bounced off the full queue.
	{name: "mix8-bingo", workloads: mix8, seed: 3, l1d: "bingo"},
	// TSKID is the one built-in prefetcher whose NextEvent carries state
	// (its delayed-release queue).
	{name: "mix4-tskid", seed: 4, l1d: "tskid", l2: "ipcp",
		workloads: []string{"mcf-1536", "omnetpp-17", "lbm-94", "gcc-2226"}},
}

// TestDeterminismRepeatability runs each spec twice under identical
// conditions and requires byte-identical marshaled Results — the
// repeatability half of the determinism golden suite.
func TestDeterminismRepeatability(t *testing.T) {
	for _, d := range detMatrix {
		d := d
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			a := marshal(t, d.run(t, false, nil))
			b := marshal(t, d.run(t, false, nil))
			if string(a) != string(b) {
				t.Errorf("two identical runs produced different Results:\n%s\nvs\n%s", a, b)
			}
		})
	}
}

// TestFastForwardMatchesReference is the scheduler's golden test: the
// wake-driven run must be bit-identical to the dense every-cycle
// reference — same hits, misses, MPKI inputs, IPC
// (hence speedups), per-class prefetch counters, stall accounting, and
// DRAM counters — across single- and multi-core specs with and without
// prefetching.
func TestFastForwardMatchesReference(t *testing.T) {
	for _, d := range detMatrix {
		d := d
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			fast := marshal(t, d.run(t, false, nil))
			ref := marshal(t, d.run(t, true, nil))
			if string(fast) != string(ref) {
				t.Errorf("wake-driven Result diverges from the dense reference:\nfast: %s\nref:  %s", fast, ref)
			}
		})
	}
}

// TestFastForwardIntervalSamples pins the telemetry path: interval
// samples must land on the same cycle boundaries with the same contents
// whether or not idle spans are skipped (jumps are capped at sample
// boundaries).
func TestFastForwardIntervalSamples(t *testing.T) {
	compareIntervalSamples(t, detSpec{workloads: []string{"mcf-1536"}, seed: 4, l1d: "ipcp", l2: "ipcp"})
}

// TestFastForwardIntervalSamplesMultiCore is the 8-core twin: every
// sample reads every core's and the DRAM's lazily replayed counters
// mid-run, with most components asleep at the boundary.
func TestFastForwardIntervalSamplesMultiCore(t *testing.T) {
	compareIntervalSamples(t, detSpec{workloads: mix8, seed: 5, l1d: "ipcp", l2: "ipcp"})
}

// compareIntervalSamples runs spec wake-driven and dense with a
// 1000-cycle interval log and requires identical samples.
func compareIntervalSamples(t *testing.T, spec detSpec) {
	t.Helper()
	fastLog := telemetry.NewIntervalLog(1000)
	refLog := telemetry.NewIntervalLog(1000)
	spec.run(t, false, fastLog)
	spec.run(t, true, refLog)
	fast, ref := fastLog.Samples(), refLog.Samples()
	if len(fast) == 0 {
		t.Fatal("no interval samples recorded")
	}
	if len(fast) != len(ref) {
		t.Fatalf("sample count diverges: fast %d vs reference %d", len(fast), len(ref))
	}
	for i := range fast {
		if fast[i] != ref[i] {
			t.Errorf("sample %d diverges:\nfast: %+v\nref:  %+v", i, fast[i], ref[i])
		}
	}
}
