package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"ipcp/internal/prefetch"
	"ipcp/internal/telemetry"
)

func TestPercentileLeavesTenBeyond(t *testing.T) {
	n := minSamplesFor(0.9)
	if n != 100 {
		t.Fatalf("minSamplesFor(0.9) = %d, want 100", n)
	}
	for _, size := range []int{n, n + 1, 3 * n} {
		xs := make([]float64, size)
		for i := range xs {
			xs[i] = float64(size - i) // reverse order: percentile must sort
		}
		if got := beyond(xs, percentile(xs, 0.9)); got < minBeyond {
			t.Errorf("n=%d: %d samples beyond p90, want >= %d", size, got, minBeyond)
		}
	}
	xs := make([]float64, n-1)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got := beyond(xs, percentile(xs, 0.9)); got >= minBeyond {
		t.Errorf("n=%d: %d samples beyond p90; minSamplesFor is not minimal", n-1, got)
	}
}

// beyond counts the samples strictly greater than v.
func beyond(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	cases := []struct{ q, want float64 }{{0.5, 3}, {0.9, 5}, {0.2, 1}, {0.21, 2}, {1, 5}}
	for _, c := range cases {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if !math.IsNaN(geomean([]float64{1, 0})) {
		t.Error("geomean with a non-positive sample should be NaN")
	}
	if got := geomean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Errorf("geomean = %v, want 2", got)
	}
}

const topSample = `File: perfbench
Type: cpu
Time: 2026-01-01 00:00:00 UTC
Duration: 2.01s, Total samples = 2s (99.50%)
Showing nodes accounting for 2s, 100% of 2s total
      flat  flat%   sum%        cum   cum%
     0.80s 40.00% 40.00%      0.90s 45.00%  ipcp/internal/cache.(*Cache).Cycle
     500ms 25.00% 65.00%      500ms 25.00%  runtime.mallocgc
     300ms 15.00% 80.00%      300ms 15.00%  ipcp/internal/workload.(*streamGen).Next (inline)
     200ms 10.00% 90.00%      200ms 10.00%  main.(*pfProbe).Operate
     100ms  5.00% 95.00%      100ms  5.00%  ipcp/internal/experiments.runSlot[go.shape.*uint8].func1
   60000us  3.00% 98.00%    60000us  3.00%  internal/runtime/atomic.(*Uint32).Load
      0.04s  2.00%   100%      0.04s  2.00%  ipcp/internal/stats.Geomean
         0     0%   100%      1.90s 95.00%  ipcp/internal/sim.(*System).Run
`

func TestParseTopSharesByModule(t *testing.T) {
	shares, err := parseTop(topSample)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"cache": 0.40, "runtime": 0.28, "trace": 0.15, "other": 0.12, "experiments": 0.05,
	}
	var sum float64
	for _, m := range shareModules {
		got, ok := shares[m]
		if !ok {
			t.Errorf("module %s missing", m)
		}
		sum += got
		if math.Abs(got-want[m]) > 1e-9 {
			t.Errorf("%s share = %v, want %v", m, got, want[m])
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

func TestParseTopRejectsBadInput(t *testing.T) {
	for name, text := range map[string]string{
		"no header":  "File: x\nType: cpu\n",
		"no samples": "      flat  flat%   sum%        cum   cum%\n         0     0%     0%          0     0%  main.main\n",
		"bad unit":   "      flat  flat%   sum%        cum   cum%\n      3xs 100% 100%  3xs 100%  main.main\n",
	} {
		if _, err := parseTop(text); err == nil {
			t.Errorf("%s: parseTop accepted %q", name, text)
		}
	}
}

func TestModuleOf(t *testing.T) {
	cases := map[string]string{
		"ipcp/internal/core.(*L1IPCP).Operate":    "core",
		"ipcp/internal/prefetch.(*Guard).Operate": "prefetch",
		"ipcp/internal/workload.glob..func1":      "trace",
		"ipcp/internal/telemetry.(*Tracer).Emit":  "other",
		"runtime.gcBgMarkWorker":                  "runtime",
		"runtime/internal/syscall.Syscall6":       "runtime",
		"net/http.(*conn).serve":                  "other",
		"ipcp/internal/serve.(*Server).worker":    "serve",
	}
	for fn, want := range cases {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestDigestCanonicalisation(t *testing.T) {
	a := []byte(`{"b": [1, 2.50, {"y": true, "x": null}], "a": "s"}`)
	b := []byte("{\n \"a\": \"s\",\n \"b\": [1,2.50,{\"x\":null,\"y\":true}]\n}\n")
	da, err := digestJSON(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := digestJSON(b)
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Error("key order and whitespace changed the digest")
	}
	c := []byte(`{"a": "s", "b": [1, 2.5, {"x": null, "y": true}]}`)
	if dc, _ := digestJSON(c); dc == da {
		t.Error("a different number literal kept the digest")
	}
	if _, err := digestJSON([]byte(`{"a":1} {"a":1}`)); err == nil {
		t.Error("trailing data accepted")
	}

	// A value digests the same as its indented wire encoding.
	v := struct {
		IPC   []float64
		Cores int
	}{[]float64{0.1 + 0.2, 1e-7}, 1}
	dv, err := digest(v)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if dw, _ := digestJSON(wire); dw != dv {
		t.Error("indented encoding digests differently")
	}
}

func TestBudgetCountsBudgetedInstructions(t *testing.T) {
	mix := budget{Cores: 8, Warmup: 5_000, Measure: 15_000}
	if got := mix.instr(); got != 160_000 {
		t.Errorf("8-core budget = %d, want 160000", got)
	}
	if got := mix.sumInstr(3); got != 480_000 {
		t.Errorf("three runs = %d, want 480000", got)
	}
	single := budget{Cores: 1, Warmup: 20_000, Measure: 60_000}
	if got := single.sumInstr(2); got != 160_000 {
		t.Errorf("none+IPCP pair = %d, want 160000", got)
	}
}

func TestHostSpeedCorrection(t *testing.T) {
	if got := spanSlowdown(1, 4); got != 2 {
		t.Errorf("slowdown between samples 1 and 4 = %v, want their geometric mean 2", got)
	}
	// 2 s measured while the host ran 1.25x slow is 1.6 s at reference
	// speed: throughput scales up by the slowdown, durations down.
	if got := atRef(2*time.Second, 1.25); got != 1.6e9 {
		t.Errorf("atRef = %v ns, want 1.6e9", got)
	}
	var none *hostSpeed
	if got := none.span(); got != 1 {
		t.Errorf("nil tracker slowdown = %v, want 1", got)
	}
}

func TestSysRefTimesSetup(t *testing.T) {
	dir := t.TempDir()
	full := &sysRef{dir: dir, dirs: 2, files: true, syncs: 2, loopback: true, nominal: time.Millisecond}
	for _, r := range []*sysRef{nil, full} {
		s, err := r.timeSetup(func() error { time.Sleep(5 * time.Millisecond); return nil })
		if err != nil || !(s > 0) {
			t.Errorf("timeSetup(loopback reference %v) = %v, %v", r != nil, s, err)
		}
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("reference left %d entries behind", len(left))
	}
}

// TestRefKernelAllocatesNothing guards what keeps the host-speed
// reference independent of the program: with no allocation of its own,
// no garbage-collection cycle starts while it is timed.
func TestRefKernelAllocatesNothing(t *testing.T) {
	k := newRefKernel()
	if n := testing.AllocsPerRun(3, func() { k.work(0.05) }); n != 0 {
		t.Errorf("reference kernel allocated %v times per run", n)
	}
}

func TestProbeForwardsOptionalInterfaces(t *testing.T) {
	var p prefetch.Prefetcher = newPfProbe(prefetch.NewNextLine())
	if _, ok := p.(prefetch.NextEventer); !ok {
		t.Error("probe hides NextEventer")
	}
	if _, ok := p.(telemetry.StatsResetter); !ok {
		t.Error("probe hides StatsResetter")
	}
	if _, ok := p.(telemetry.Traceable); !ok {
		t.Error("probe hides Traceable")
	}
	if _, ok := prefetch.Unwrapped(p).(*prefetch.NextLine); !ok {
		t.Error("Unwrap does not reach the wrapped prefetcher")
	}
	if got := p.(prefetch.NextEventer).NextEvent(7); got != prefetch.NoEvent {
		t.Errorf("NextEvent = %d, want the inner's NoEvent", got)
	}
	// An inner prefetcher with no NextEvent keeps every-cycle clocking.
	if got := newPfProbe(unbounded{}).NextEvent(7); got != 8 {
		t.Errorf("NextEvent of an unbounded inner = %d, want 8", got)
	}
}

// unbounded is a prefetcher that declares no NextEvent bound.
type unbounded struct{}

func (unbounded) Name() string                                     { return "unbounded" }
func (unbounded) Operate(int64, *prefetch.Access, prefetch.Issuer) {}
func (unbounded) Fill(int64, *prefetch.FillEvent)                  {}
func (unbounded) Cycle(int64)                                      {}

// TestProbesAreTransparent runs the same small simulation plain and
// fully probed: the results must be identical.
func TestProbesAreTransparent(t *testing.T) {
	p := &simPlan{warmup: 2_000, measure: 6_000}
	op := simOp{label: "t", traces: []string{"mcf-1536", "lbm-94"}, ipcp: []bool{true, false}}
	plain, err := p.runOp(3, op, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps := &probeSet{}
	probed, err := p.runOp(3, op, ps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.results {
		a, err := digest(plain.results[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := digest(probed.results[i])
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("config %d: probed result differs", i)
		}
	}
	var tot layerTotals
	tot.add(ps)
	if tot.nextCalls == 0 || tot.l1d.operateCalls == 0 || tot.l2.operateCalls == 0 || tot.l1d.cycleCalls == 0 {
		t.Errorf("probes recorded nothing: %+v", tot)
	}
	if plain.results[0].IPCPL1[0] == nil {
		t.Error("IPCP introspection snapshot missing")
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's metric and
// workload lists in step with what the program prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(sortedKeys(workloads), ","); got != want {
		t.Errorf("workloads %s, program has %s", got, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: %s %s in BENCHMARK.json, %s %s in the program",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
