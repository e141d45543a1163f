package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// shareModules are the layers CPU time is attributed to, in report
// order. Every sampled function lands in exactly one of them.
var shareModules = []string{
	"cache", "cpu", "core", "prefetch", "dram", "sim", "trace", "vmem",
	"repl", "memsys", "experiments", "serve", "runtime", "other",
}

// moduleOf maps a profiled function name to its layer: the repository
// package under ipcp/internal (the workload generators count as the
// trace layer they feed), the Go runtime, or "other" for everything
// else (the standard library, the benchmark's own probes, packages
// without a layer of their own).
func moduleOf(fn string) string {
	const repo = "ipcp/internal/"
	if rest, ok := strings.CutPrefix(fn, repo); ok {
		pkg := rest
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if pkg == "workload" {
			pkg = "trace"
		}
		for _, m := range shareModules {
			if m == pkg {
				return m
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// parseDuration reads one pprof -top duration cell ("1.25s", "830ms",
// "12.50us", "0") as seconds.
func parseDuration(cell string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{
		{"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3},
		{"s", 1}, {"mins", 60}, {"min", 60}, {"hrs", 3600}, {"hr", 3600},
	}
	for _, u := range units {
		if num, ok := strings.CutSuffix(cell, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("duration %q: %w", cell, err)
			}
			return v * u.scale, nil
		}
	}
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		return 0, fmt.Errorf("duration %q: unknown unit", cell)
	}
	return v, nil
}

// parseTop sums flat time per layer from `go tool pprof -top` text and
// returns each layer's share of the total flat time. Every layer in
// shareModules is present; the shares sum to 1.
func parseTop(text string) (map[string]float64, error) {
	flat := make(map[string]float64, len(shareModules))
	var total float64
	inTable := false
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !inTable {
			f := strings.Fields(line)
			inTable = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if line == "" {
			continue
		}
		// flat flat% sum% cum cum% name [name continues with spaces]
		f := strings.Fields(line)
		if len(f) < 6 {
			return nil, fmt.Errorf("pprof top: short row %q", line)
		}
		sec, err := parseDuration(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof top: %w", err)
		}
		flat[moduleOf(strings.Join(f[5:], " "))] += sec
		total += sec
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !inTable {
		return nil, fmt.Errorf("pprof top: no table header")
	}
	if total <= 0 {
		return nil, fmt.Errorf("pprof top: no samples")
	}
	shares := make(map[string]float64, len(shareModules))
	for _, m := range shareModules {
		shares[m] = flat[m] / total
	}
	return shares, nil
}

// profileShares runs `go tool pprof -top` over a CPU profile and
// attributes its flat time to layers. Every node is listed, so no
// sample is dropped from the attribution.
func profileShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", profile)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTop(string(out))
}
