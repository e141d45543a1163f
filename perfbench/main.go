// Command perfbench is the repository benchmark: it drives the
// simulator, the sweep scheduler and the ipcpd serving layer through
// their public Go APIs on one of four workloads and prints one JSON
// result line.
//
//	perfbench --workload single|mix8|sweep|daemon --seed N --seconds S --trace 0|1
//
// With --trace 0 the run measures the end-to-end metrics with every
// probe off. With --trace 1 it first repeats the untraced measurement
// for half the time under the CPU profiler, then replays the same
// operations with layer probes attached and prints the per-layer
// metrics.
// Every output is checked; a failed check prints the result with
// "correct": false and exits 1. BENCHMARK.json at the repository root
// lists the metrics; run.sh builds and starts this program.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run, reported for every
// workload (see BENCHMARK.json for what each means per workload).
var endToEnd = []metricDef{
	{"instr_per_s", "instr/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"rtt_p50_ms", "ms"},
	{"rtt_p90_ms", "ms"},
	{"sim_ipc", "IPC"},
	{"ipcp_speedup", "ratio"},
}

// perLayer are the metrics of a traced run. A layer the workload does
// not pass through reports 0.
var perLayer = []metricDef{
	{"trace.next_calls", "count"},
	{"trace.next_ns", "ns"},
	{"core.operate_calls", "count"},
	{"core.operate_ns", "ns"},
	{"core.fill_calls", "count"},
	{"core.fill_ns", "ns"},
	{"core.cycle_calls", "count"},
	{"core.issue_attempts", "count"},
	{"core.issue_accepted_frac", "frac"},
	{"sim.cycles", "cycles"},
	{"sim.clocked_frac", "frac"},
	{"sim.host_ns_per_cycle", "ns"},
	{"cache.cpu_share", "frac"},
	{"cpu.cpu_share", "frac"},
	{"core.cpu_share", "frac"},
	{"prefetch.cpu_share", "frac"},
	{"dram.cpu_share", "frac"},
	{"sim.cpu_share", "frac"},
	{"trace.cpu_share", "frac"},
	{"vmem.cpu_share", "frac"},
	{"repl.cpu_share", "frac"},
	{"memsys.cpu_share", "frac"},
	{"experiments.cpu_share", "frac"},
	{"serve.cpu_share", "frac"},
	{"runtime.cpu_share", "frac"},
	{"other.cpu_share", "frac"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_bytes_per_kinstr", "B"},
	{"session.executed", "count"},
	{"session.snapshot_misses", "count"},
	{"session.forked_runs", "count"},
	{"session.warmups_coalesced", "count"},
	{"session.snapshot_bytes", "B"},
	{"session.disk_hits", "count"},
	{"session.store_failures", "count"},
	{"sweep.point_ms_p50", "ms"},
	{"sweep.point_ms_p90", "ms"},
	{"snapshot.capture_ms", "ms"},
	{"snapshot.encode_ms", "ms"},
	{"snapshot.decode_ms", "ms"},
	{"snapshot.restore_ms", "ms"},
	{"snapshot.bytes", "B"},
	{"checkpoint.replay_ms", "ms"},
	{"checkpoint.bytes", "B"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.submit_ms_p90", "ms"},
	{"serve.get_ms_p50", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.exec_ms_p50", "ms"},
	{"serve.rejected", "count"},
	{"serve.coalesced", "count"},
	{"journal.appends", "count"},
	{"journal.append_errors", "count"},
	{"l1d.mpki", "MPKI"},
	{"l2.mpki", "MPKI"},
	{"llc.mpki", "MPKI"},
	{"l1d.pf_issued", "count"},
	{"l1d.pf_accuracy", "frac"},
	{"l1d.pf_late", "count"},
	{"l2.pf_accuracy", "frac"},
	{"ipcp.share_cs", "frac"},
	{"ipcp.share_cplx", "frac"},
	{"ipcp.share_gs", "frac"},
	{"ipcp.share_nl", "frac"},
	{"ipcp.rr_hit_frac", "frac"},
	{"dram.reads", "count"},
	{"dram.row_hit_frac", "frac"},
	{"dram.bus_util", "frac"},
	{"cpu.rob_full_frac", "frac"},
	{"traced.slowdown", "ratio"},
}

// workloads maps each --workload name to the function that runs it.
var workloads = map[string]func(*env) error{
	"single": runSingle,
	"mix8":   runMix8,
	"sweep":  runSweep,
	"daemon": runDaemon,
}

// env is one benchmark run's configuration and accumulated output.
type env struct {
	seed    int64
	seconds float64
	traced  bool
	// dir is the run's scratch directory inside the checkout.
	dir string
	// speed converts the untraced run's host times to reference speed
	// (nil in a traced run).
	speed *hostSpeed

	attempted, failed int
	problems          []string
	metrics           map[string]float64
}

// attempt records n operations attempted.
func (e *env) attempt(n int) { e.attempted += n }

// fail records one failed operation or output check.
func (e *env) fail(format string, args ...any) {
	e.failed++
	if len(e.problems) < 20 {
		e.problems = append(e.problems, fmt.Sprintf(format, args...))
	}
}

// set records a metric value.
func (e *env) set(name string, v float64) { e.metrics[name] = v }

// untracedSeconds is how long the untraced pass of a traced run
// measures: half the run, leaving the rest for the slower probed
// replay of the same operations.
func (e *env) untracedSeconds() float64 {
	if e.traced {
		return e.seconds / 2
	}
	return e.seconds
}

// untracedPass runs a workload's untraced measurement and returns the
// GC cycles and bytes allocated across it. In a traced run the pass
// also runs under the CPU profiler, so the per-layer CPU shares
// describe the program without probes in it.
func (e *env) untracedPass(body func() error) (gcCycles uint32, allocBytes uint64, err error) {
	var before, after runtime.MemStats
	measure := func() error {
		runtime.ReadMemStats(&before)
		err := body()
		runtime.ReadMemStats(&after)
		return err
	}
	if !e.traced {
		err = measure()
	} else {
		err = e.profile(measure)
	}
	return after.NumGC - before.NumGC, after.TotalAlloc - before.TotalAlloc, err
}

// profile runs body under the CPU profiler and records the per-layer
// CPU shares of the profiled span.
func (e *env) profile(body func() error) error {
	path := filepath.Join(e.dir, "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	bodyErr := body()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return err
	}
	if bodyErr != nil {
		return bodyErr
	}
	shares, err := profileShares(path)
	if err != nil {
		return err
	}
	for m, s := range shares {
		e.set(m+".cpu_share", s)
	}
	return nil
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// finish assembles the result line from the recorded metrics. A
// metric the workload left unset, or one that is not a finite number,
// is a failed check, unless an earlier failure stopped the run.
func (e *env) finish() resultLine {
	defs := endToEnd
	if e.traced {
		defs = perLayer
	}
	stopped := e.failed > 0
	out := resultLine{Metrics: make(map[string]metricOut, len(defs))}
	for _, d := range defs {
		v, ok := e.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if !stopped {
				e.fail("metric %s not measured (got %v)", d.name, v)
			}
			v = 0
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if e.attempted < 1 {
		e.fail("no operation attempted")
		e.attempted = 1
	}
	out.Correct = e.failed == 0
	out.Attempted = e.attempted
	out.Failed = e.failed
	return out
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: single, mix8, sweep or daemon")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement time per run")
	traced := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	body, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) || *seed == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds > 0, --trace 0|1, --seed != 0\n",
			strings.Join(sortedKeys(workloads), "|"))
		return 2
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", "run", *name+"-"+strconv.Itoa(os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(dir)

	// One CPU: on a shared two-vCPU host, sweep runs on one CPU had half
	// the run-to-run spread of runs on two interleaved with them, and
	// single-CPU efficiency is what the simulator's optimisations
	// target. The session's admission slots and the daemon's workers
	// still run concurrently.
	runtime.GOMAXPROCS(1)
	e := &env{seed: *seed, seconds: *seconds, traced: *traced == 1, dir: dir, metrics: map[string]float64{}}
	start := time.Now()
	if !e.traced {
		e.speed = newHostSpeed()
	}
	if err := body(e); err != nil && !errors.Is(err, errStop) {
		e.fail("%s: %v", *name, err)
	}
	if !e.traced {
		rss, err := peakRSSMiB()
		if err != nil {
			e.fail("peak rss: %v", err)
		}
		e.set("peak_rss_mb", rss)
	}
	line := e.finish()
	for _, p := range e.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d trace=%v wall=%.1fs attempted=%d failed=%d host slowdown p50=%.3f\n",
		*name, *seed, e.traced, time.Since(start).Seconds(), line.Attempted, line.Failed, e.speed.median())
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(enc))
	if !line.Correct {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// errStop ends a timed loop early when a check has already failed.
var errStop = errors.New("stopped after a failed check")
