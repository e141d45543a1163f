package main

import (
	"bytes"
	"flag"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseBenchAveragesRepeatedRuns(t *testing.T) {
	in := strings.NewReader(`goos: linux
BenchmarkSimulatorThroughput-8   	      10	 100000 ns/op	  2000000 instr/s	    64 B/op	       2 allocs/op
BenchmarkSimulatorThroughput-8   	      10	 300000 ns/op	  4000000 instr/s	   192 B/op	       4 allocs/op
BenchmarkOther-8                 	     100	   5000 ns/op
PASS
`)
	es, err := parseBench(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 2 {
		t.Fatalf("parsed %d entries, want 2: %+v", len(es), es)
	}
	e := es[0]
	if e.Bench != "BenchmarkSimulatorThroughput" {
		t.Fatalf("bench name %q", e.Bench)
	}
	if e.NsPerOp != 200000 || e.InstrPerSec != 3000000 || e.BytesPerOp != 128 || e.AllocsPerOp != 3 {
		t.Fatalf("averaging wrong: %+v", e)
	}
	if es[1].Bench != "BenchmarkOther" || es[1].NsPerOp != 5000 {
		t.Fatalf("second entry wrong: %+v", es[1])
	}
}

// TestParseBenchRepeatedPasses: `make bench` concatenates several
// -count=1 runs of go test, each with its own header and trailer, so
// the two benchmarks of a ratio gate alternate in time. Every pass's
// lines must be averaged per benchmark as a -count run's would be.
func TestParseBenchRepeatedPasses(t *testing.T) {
	pass := func(fast, slow string) string {
		return "goos: linux\ngoarch: amd64\npkg: ipcp\ncpu: test\n" +
			"BenchmarkFast-2   \t 10\t 1000 ns/op\t " + fast + " instr/s\n" +
			"BenchmarkSlow-2   \t 10\t 3000 ns/op\t " + slow + " instr/s\n" +
			"PASS\nok  \tipcp\t12.3s\n"
	}
	es, err := parseBench(strings.NewReader(pass("300", "100") + pass("500", "100") + pass("400", "200")))
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 2 || es[0].InstrPerSec != 400 || es[1].InstrPerSec != 400.0/3 {
		t.Fatalf("repeated passes parsed as %+v", es)
	}
	if !gateRatio(io.Discard, es, "BenchmarkFast", "BenchmarkSlow", 2.9) {
		t.Fatal("gate on the averaged passes failed")
	}
}

func TestBenchName(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkFoo-8":      "BenchmarkFoo",
		"BenchmarkFoo-128":    "BenchmarkFoo",
		"BenchmarkFoo":        "BenchmarkFoo",
		"BenchmarkFoo-bar":    "BenchmarkFoo-bar",
		"BenchmarkFigure13-4": "BenchmarkFigure13",
	} {
		if got := benchName(in); got != want {
			t.Errorf("benchName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCheckProvenanceRejectsConflictingNotes(t *testing.T) {
	hist := []Entry{
		{Bench: "BenchmarkX", Commit: "abc1234", Note: "baseline"},
		{Bench: "BenchmarkY", Commit: "abc1234", Note: "baseline"},
	}
	fresh := []Entry{{Bench: "BenchmarkX"}}

	if err := checkProvenance(hist, fresh, "abc1234", "optimized"); err == nil {
		t.Fatal("conflicting note at the same (bench, commit) must be rejected")
	}
	// Same note: re-recording more samples of the same configuration.
	if err := checkProvenance(hist, fresh, "abc1234", "baseline"); err != nil {
		t.Fatalf("same note must be allowed: %v", err)
	}
	// New commit: no conflict possible.
	if err := checkProvenance(hist, fresh, "def5678", "optimized"); err != nil {
		t.Fatalf("new commit must be allowed: %v", err)
	}
	// No VCS identity (e.g. tarball checkout): nothing to conflict on.
	if err := checkProvenance(hist, fresh, "", "optimized"); err != nil {
		t.Fatalf("empty commit must be allowed: %v", err)
	}
	// A bench the history has never seen at this commit is fine.
	if err := checkProvenance(hist, []Entry{{Bench: "BenchmarkZ"}}, "abc1234", "optimized"); err != nil {
		t.Fatalf("new bench at existing commit must be allowed: %v", err)
	}
}

func TestHistoryProvenanceConsistent(t *testing.T) {
	// The checked-in history must satisfy the invariant benchrecord now
	// enforces: one note per (bench, commit).
	hist, err := loadHistory("../../BENCH_throughput.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) == 0 {
		t.Fatal("checked-in history is empty")
	}
	notes := map[[2]string]string{}
	for _, e := range hist {
		k := [2]string{e.Bench, e.Commit}
		if prev, ok := notes[k]; ok && prev != e.Note {
			t.Errorf("%s @ %s recorded with conflicting notes %q and %q", e.Bench, e.Commit, prev, e.Note)
		}
		notes[k] = e.Note
	}
}

func TestGateRatio(t *testing.T) {
	fresh := []Entry{
		{Bench: "BenchmarkFast", InstrPerSec: 3000},
		{Bench: "BenchmarkSlow", InstrPerSec: 1000},
	}
	var out bytes.Buffer
	if !gateRatio(&out, fresh, "BenchmarkFast", "BenchmarkSlow", 2.0) {
		t.Fatalf("3x ratio must pass a 2x floor:\n%s", out.String())
	}
	out.Reset()
	if gateRatio(&out, fresh, "BenchmarkFast", "BenchmarkSlow", 4.0) {
		t.Fatal("3x ratio must fail a 4x floor")
	}
	if !strings.Contains(out.String(), "RATIO REGRESSION") {
		t.Fatalf("missing RATIO REGRESSION marker:\n%s", out.String())
	}
	out.Reset()
	if gateRatio(&out, fresh, "BenchmarkFast", "BenchmarkMissing", 2.0) {
		t.Fatal("missing denominator must fail, not pass silently")
	}
}

func TestGateFlagRepeatable(t *testing.T) {
	var gates gateList
	fs := flag.NewFlagSet("benchrecord", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Var(&gates, "gate", "")
	err := fs.Parse([]string{
		"-gate", "BenchmarkSweepSharedWarmup/BenchmarkSweepColdWarmup=2.0",
		"-gate", "BenchmarkMultiCoreSeqThroughput/BenchmarkMultiCoreDenseThroughput=1.3",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := gateList{
		{fast: "BenchmarkSweepSharedWarmup", slow: "BenchmarkSweepColdWarmup", min: 2.0},
		{fast: "BenchmarkMultiCoreSeqThroughput", slow: "BenchmarkMultiCoreDenseThroughput", min: 1.3},
	}
	if !reflect.DeepEqual(gates, want) {
		t.Fatalf("parsed %+v, want %+v", gates, want)
	}
	if got := gates.String(); got != "BenchmarkSweepSharedWarmup/BenchmarkSweepColdWarmup=2,"+
		"BenchmarkMultiCoreSeqThroughput/BenchmarkMultiCoreDenseThroughput=1.3" {
		t.Errorf("String() = %q", got)
	}
}

func TestGateFlagRejectsMalformed(t *testing.T) {
	for _, v := range []string{
		"",
		"BenchmarkA/BenchmarkB",       // no floor
		"BenchmarkA=2",                // no denominator
		"/BenchmarkB=2",               // empty numerator
		"BenchmarkA/=2",               // empty denominator
		"BenchmarkA/BenchmarkB/sub=2", // sub-benchmark names are ambiguous
		"BenchmarkA/BenchmarkB=x",     // not a number
		"BenchmarkA/BenchmarkB=0",     // a zero floor gates nothing
		"BenchmarkA/BenchmarkB=-1.5",  // negative floor
		"BenchmarkA/BenchmarkB=NaN",   // NaN passes no comparison
	} {
		var gates gateList
		if err := gates.Set(v); err == nil {
			t.Errorf("Set(%q) accepted %+v", v, gates)
		}
	}
}

func TestDoDiffMissingHistoryIsGraceful(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_throughput.json")
	fresh := []Entry{{Bench: "BenchmarkX", NsPerOp: 100}}
	if !doDiff(path, fresh, 0.10) {
		t.Fatal("missing history must not fail the diff")
	}
}

func TestDiffEntriesNoBaselineForBenchmark(t *testing.T) {
	var out bytes.Buffer
	hist := []Entry{{Bench: "BenchmarkOld", NsPerOp: 100, InstrPerSec: 1000}}
	fresh := []Entry{{Bench: "BenchmarkNew", NsPerOp: 50}}
	if !diffEntries(&out, hist, fresh, 0.10) {
		t.Fatal("benchmark without a baseline must not fail the diff")
	}
	if !strings.Contains(out.String(), "(no baseline)") {
		t.Fatalf("missing '(no baseline)' marker in output:\n%s", out.String())
	}
}

func TestDiffEntriesFlagsRegression(t *testing.T) {
	var out bytes.Buffer
	hist := []Entry{{Bench: "BenchmarkX", NsPerOp: 100, InstrPerSec: 1000, When: "t0"}}
	fresh := []Entry{{Bench: "BenchmarkX", NsPerOp: 150, InstrPerSec: 800}}
	if diffEntries(&out, hist, fresh, 0.10) {
		t.Fatal("20%% instr/s drop must fail at 10%% tolerance")
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("missing REGRESSION marker:\n%s", out.String())
	}
	out.Reset()
	fresh[0].InstrPerSec = 950
	if !diffEntries(&out, hist, fresh, 0.10) {
		t.Fatalf("5%%%% drop within tolerance flagged:\n%s", out.String())
	}
}
