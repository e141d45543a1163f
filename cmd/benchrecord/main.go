// Command benchrecord turns `go test -bench` output into a tracked
// benchmark history, so simulator-throughput regressions show up in
// review instead of in a bisect six months later.
//
//	go test -run '^$' -bench SimulatorThroughput -benchmem . | benchrecord -record BENCH_throughput.json
//	go test -run '^$' -bench SimulatorThroughput -benchmem . | benchrecord -diff BENCH_throughput.json
//
// -record appends one entry per benchmark to the JSON history (multiple
// -count runs of the same benchmark are averaged first). -diff compares
// the fresh run against the most recent recorded entry for each
// benchmark, benchstat-style, and exits non-zero when instr/s regresses
// by more than the -tolerance fraction. Each -gate Fast/Slow=min
// (repeatable) also requires Fast's instr/s to be at least min times
// Slow's within the same run:
//
//	... | benchrecord -diff BENCH_throughput.json -gate BenchmarkA/BenchmarkB=2.0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Entry is one recorded benchmark measurement. InstrPerSec is zero for
// benchmarks that do not report the custom instr/s metric.
type Entry struct {
	Bench       string  `json:"bench"`
	When        string  `json:"when"`
	Commit      string  `json:"commit,omitempty"`
	Note        string  `json:"note,omitempty"`
	NsPerOp     float64 `json:"ns_per_op"`
	InstrPerSec float64 `json:"instr_per_sec,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

func main() {
	var (
		record    = flag.String("record", "", "append parsed results to this JSON history file")
		diff      = flag.String("diff", "", "compare parsed results against the latest entries in this JSON history file")
		note      = flag.String("note", "", "free-form note stored with -record entries")
		tolerance = flag.Float64("tolerance", 0.10, "-diff: fail when instr/s drops by more than this fraction")
		gates     gateList
	)
	flag.Var(&gates, "gate", "-diff: `Fast/Slow=min` ratio gate, repeatable: Fast's instr/s must be at least min times Slow's in the same run (immune to host drift)")
	flag.Parse()
	if (*record == "") == (*diff == "") {
		fmt.Fprintln(os.Stderr, "benchrecord: exactly one of -record or -diff is required")
		os.Exit(2)
	}

	fresh, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrecord:", err)
		os.Exit(1)
	}
	if len(fresh) == 0 {
		fmt.Fprintln(os.Stderr, "benchrecord: no benchmark lines on stdin")
		os.Exit(1)
	}

	if *record != "" {
		if err := doRecord(*record, fresh, *note); err != nil {
			fmt.Fprintln(os.Stderr, "benchrecord:", err)
			os.Exit(1)
		}
		return
	}
	ok := doDiff(*diff, fresh, *tolerance)
	for _, g := range gates {
		ok = gateRatio(os.Stdout, fresh, g.fast, g.slow, g.min) && ok
	}
	if !ok {
		os.Exit(1)
	}
}

// gate is one -gate Fast/Slow=min ratio floor.
type gate struct {
	fast, slow string
	min        float64
}

// gateList is the repeatable -gate flag.
type gateList []gate

func (l *gateList) String() string {
	parts := make([]string, len(*l))
	for i, g := range *l {
		parts[i] = fmt.Sprintf("%s/%s=%g", g.fast, g.slow, g.min)
	}
	return strings.Join(parts, ",")
}

// Set parses one Fast/Slow=min gate. Benchmark names are top-level
// (no '/'), as printed by go test without the -GOMAXPROCS suffix.
func (l *gateList) Set(v string) error {
	g, err := parseGate(v)
	if err != nil {
		return err
	}
	*l = append(*l, g)
	return nil
}

func parseGate(v string) (gate, error) {
	pair, minStr, ok := strings.Cut(v, "=")
	if !ok {
		return gate{}, fmt.Errorf("gate %q: want Fast/Slow=min", v)
	}
	fast, slow, ok := strings.Cut(pair, "/")
	if !ok || fast == "" || slow == "" || strings.Contains(slow, "/") {
		return gate{}, fmt.Errorf("gate %q: want exactly two benchmark names, Fast/Slow", v)
	}
	min, err := strconv.ParseFloat(minStr, 64)
	if err != nil || !(min > 0) {
		return gate{}, fmt.Errorf("gate %q: floor must be a positive number", v)
	}
	return gate{fast: fast, slow: slow, min: min}, nil
}

// gateRatio checks a within-run instr/s ratio between two benchmarks
// from the same `go test -bench` invocation. Host speed drift between
// record time and diff time is common-mode inside one run, so the
// ratio stays stable on machines where absolute wall-clock does not —
// it is the right gate for a shared or throttled host.
func gateRatio(w io.Writer, fresh []Entry, fast, slow string, min float64) bool {
	var f, s *Entry
	for i := range fresh {
		switch fresh[i].Bench {
		case fast:
			f = &fresh[i]
		case slow:
			s = &fresh[i]
		}
	}
	if f == nil || s == nil || f.InstrPerSec == 0 || s.InstrPerSec == 0 {
		fmt.Fprintf(w, "RATIO GATE: %s/%s not computable (both benchmarks must run and report instr/s)\n", fast, slow)
		return false
	}
	ratio := f.InstrPerSec / s.InstrPerSec
	fmt.Fprintf(w, "ratio %s / %s = %.2fx (floor %.2fx)\n", fast, slow, ratio, min)
	if ratio < min {
		fmt.Fprintf(w, "  RATIO REGRESSION: %.2fx below the %.2fx floor\n", ratio, min)
		return false
	}
	return true
}

// parseBench reads `go test -bench` output and averages repeated runs of
// the same benchmark (a -count run emits one line per repetition).
func parseBench(r io.Reader) ([]Entry, error) {
	sums := map[string]*Entry{}
	counts := map[string]int{}
	var order []string

	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// BenchmarkName-8  N  T ns/op  [V instr/s]  [B B/op]  [A allocs/op]
		if len(fields) < 4 {
			continue
		}
		name := benchName(fields[0])
		e, ok := sums[name]
		if !ok {
			e = &Entry{Bench: name}
			sums[name] = e
			order = append(order, name)
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				e.NsPerOp += v
			case "instr/s":
				e.InstrPerSec += v
			case "B/op":
				e.BytesPerOp += v
			case "allocs/op":
				e.AllocsPerOp += v
			}
		}
		counts[name]++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	out := make([]Entry, 0, len(order))
	for _, name := range order {
		e := sums[name]
		n := float64(counts[name])
		e.NsPerOp /= n
		e.InstrPerSec /= n
		e.BytesPerOp /= n
		e.AllocsPerOp /= n
		out = append(out, *e)
	}
	return out, nil
}

// benchName strips the -GOMAXPROCS suffix go test appends to benchmark
// names (Benchmark...-8), so histories compare across machines.
func benchName(s string) string {
	if i := strings.LastIndexByte(s, '-'); i > 0 {
		if _, err := strconv.Atoi(s[i+1:]); err == nil {
			return s[:i]
		}
	}
	return s
}

func loadHistory(path string) ([]Entry, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var hist []Entry
	if err := json.Unmarshal(data, &hist); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return hist, nil
}

func doRecord(path string, fresh []Entry, note string) error {
	hist, err := loadHistory(path)
	if err != nil {
		return err
	}
	when := time.Now().UTC().Format(time.RFC3339)
	commit := gitRev()
	if err := checkProvenance(hist, fresh, commit, note); err != nil {
		return err
	}
	for _, e := range fresh {
		e.When, e.Commit, e.Note = when, commit, note
		hist = append(hist, e)
		fmt.Printf("recorded %-40s %12.0f ns/op", e.Bench, e.NsPerOp)
		if e.InstrPerSec > 0 {
			fmt.Printf("  %10.0f instr/s", e.InstrPerSec)
		}
		fmt.Println()
	}
	data, err := json.MarshalIndent(hist, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// checkProvenance refuses to append an entry whose (bench, commit)
// pair already exists in the history under a different note. Two notes
// at one commit means at least one of them describes a working tree
// the commit hash does not identify — exactly the mislabeling this
// history exists to prevent. Re-recording with the same note (more
// samples of the same configuration) stays allowed.
func checkProvenance(hist, fresh []Entry, commit, note string) error {
	if commit == "" {
		return nil // no VCS identity to conflict on
	}
	notes := map[string]string{}
	for _, e := range hist {
		if e.Commit == commit {
			notes[e.Bench] = e.Note
		}
	}
	for _, e := range fresh {
		if prev, ok := notes[e.Bench]; ok && prev != note {
			return fmt.Errorf("%s already recorded at commit %s with note %q; "+
				"refusing to add conflicting note %q (commit your changes so the "+
				"hash identifies what was measured)", e.Bench, commit, prev, note)
		}
	}
	return nil
}

// doDiff prints a benchstat-style comparison and reports whether every
// benchmark with a recorded baseline stayed within tolerance. A missing
// or empty history is not a failure — a fresh checkout has no baseline
// yet — but it gets an explicit notice instead of a silent pass.
func doDiff(path string, fresh []Entry, tolerance float64) bool {
	hist, err := loadHistory(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrecord:", err)
		return false
	}
	if len(hist) == 0 {
		fmt.Fprintf(os.Stderr, "benchrecord: no baseline history at %s; run 'make bench' to record one\n", path)
		return true
	}
	return diffEntries(os.Stdout, hist, fresh, tolerance)
}

// diffEntries is the comparison core of doDiff, split out so tests can
// drive it with in-memory histories.
func diffEntries(w io.Writer, hist, fresh []Entry, tolerance float64) bool {
	// Latest recorded entry per benchmark wins.
	base := map[string]Entry{}
	for _, e := range hist {
		base[e.Bench] = e
	}

	names := make([]string, 0, len(fresh))
	byName := map[string]Entry{}
	for _, e := range fresh {
		names = append(names, e.Bench)
		byName[e.Bench] = e
	}
	sort.Strings(names)

	ok := true
	fmt.Fprintf(w, "%-40s %14s %14s %8s\n", "benchmark", "old", "new", "delta")
	for _, name := range names {
		e := byName[name]
		b, have := base[name]
		if !have {
			fmt.Fprintf(w, "%-40s %14s %14.0f %8s  (no baseline)\n", name, "-", e.NsPerOp, "-")
			continue
		}
		fmt.Fprintf(w, "%-40s %12.0fns %12.0fns %+7.1f%%\n",
			name, b.NsPerOp, e.NsPerOp, pct(e.NsPerOp, b.NsPerOp))
		if e.InstrPerSec > 0 && b.InstrPerSec > 0 {
			delta := pct(e.InstrPerSec, b.InstrPerSec)
			fmt.Fprintf(w, "%-40s %11.0fi/s %11.0fi/s %+7.1f%%\n", "  instr/s", b.InstrPerSec, e.InstrPerSec, delta)
			if e.InstrPerSec < b.InstrPerSec*(1-tolerance) {
				fmt.Fprintf(w, "  REGRESSION: instr/s down %.1f%% (tolerance %.0f%%) vs %s\n",
					-delta, tolerance*100, b.When)
				ok = false
			}
		}
		if b.AllocsPerOp > 0 || e.AllocsPerOp > 0 {
			fmt.Fprintf(w, "%-40s %13.0fa %13.0fa\n", "  allocs/op", b.AllocsPerOp, e.AllocsPerOp)
		}
	}
	return ok
}

func pct(new, old float64) float64 {
	if old == 0 {
		return 0
	}
	return (new/old - 1) * 100
}

func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
