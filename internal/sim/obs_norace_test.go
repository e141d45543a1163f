//go:build !race

package sim

import (
	"testing"

	"ipcp/internal/trace"
	"ipcp/internal/workload"
)

// TestNilHooksZeroAllocs is the telemetry-overhead guard: with no
// tracer, interval log, progress sink or span tracer attached, the
// steady-state simulation loop must stay allocation-free — the
// observability layer's disabled cost is one predictable branch.
// Excluded under -race because the race runtime allocates on its own.
func TestNilHooksZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state warmup is slow")
	}
	cfg := PaperConfig(1)
	cfg.L1DPrefetcher = PrefetcherSpec{Name: "ipcp"}
	cfg.L2Prefetcher = PrefetcherSpec{Name: "ipcp"}
	w, err := workload.Named("lbm-94")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Build(cfg, []trace.Stream{w.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	// Run past the growth phase of the pools, rings and page tables
	// (mirrors BenchmarkSimulatorThroughputSteady).
	if err := sys.Advance(60_000); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(5, func() {
		if err := sys.Advance(5_000); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0.5 {
		t.Fatalf("nil-hook steady state allocates %.1f times per 5k instructions; want 0", avg)
	}
}

// allocFreeMix8 is eight traces whose page footprints and in-flight
// request peaks stop growing within the warmup below (mix8's irregular
// traces keep touching fresh pages, and first-touch page allocation is
// the model's, not the loop's). Streaming, stride, irregular and
// big-code classes are all present. The run is deterministic, so a
// failure here is either new allocation on the hot path or a model
// change that moved a growth phase into the measured window; a run of
// the same window under DisableFastForward tells the two apart.
var allocFreeMix8 = []string{
	"lbm-94", "mcf-1152", "bwaves-2931", "gcc-2226",
	"roms-1070", "fotonik3d-1176", "parest-12", "nab-34",
}

// TestMultiCoreAdvanceZeroAllocs guards the wake-driven scheduler's hot
// path: with eight cores waking and sleeping on every cycle, the due
// table, the timing wheel and the lazy counter replay must not allocate
// once the pools and page tables have grown. Excluded under -race for
// the same reason as above.
func TestMultiCoreAdvanceZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state warmup is slow")
	}
	cfg := PaperConfig(len(allocFreeMix8))
	cfg.L1DPrefetcher = PrefetcherSpec{Name: "ipcp"}
	cfg.L2Prefetcher = PrefetcherSpec{Name: "ipcp"}
	sys, err := Build(cfg, streamsFor(t, allocFreeMix8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Advance(80_000); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(3, func() {
		if err := sys.Advance(2_000); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0.5 {
		t.Fatalf("8-core steady state allocates %.1f times per 2k instructions per core; want 0", avg)
	}
}
