// Command ipcpsim runs one simulation and prints a statistics summary:
//
//	ipcpsim -workload gcc-2226 -l1 ipcp -l2 ipcp -measure 200000
//	ipcpsim -mix lbm-94,omnetpp-17 -l1 bingo
//	ipcpsim -workload gcc-2226 -l1 ipcp -l2 ipcp -trace run.json -interval 10000 -metrics-out run.csv
//	ipcpsim -workload gcc-2226 -l1 ipcp -json
//	ipcpsim -list
//
// Observability flags: -trace writes the measured phase's event trace
// (.json → Chrome trace_event for chrome://tracing / Perfetto,
// anything else → JSONL); -interval N samples the metrics timeline
// every N cycles into -metrics-out (.csv → CSV, else JSONL); -json
// emits the full result as one JSON object on stdout; -cpuprofile /
// -memprofile write stdlib runtime/pprof profiles; -audit runs the
// simulation under the differential audit harness (reference cache
// models and IPCP oracles in lockstep) and exits 2 on any violation.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"ipcp"
	"ipcp/internal/memsys"
)

func main() {
	// SIGINT/SIGTERM cancel the run cooperatively; telemetry collected up
	// to the interruption is still flushed before exiting 130.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:])
	stop()
	os.Exit(code)
}

// run is the whole command: it parses args, simulates under ctx and
// returns the exit status, so every deferred flush — the CPU profile
// above all — completes before main exits, interrupted and failing
// runs included.
func run(ctx context.Context, args []string) (code int) {
	fs := flag.NewFlagSet("ipcpsim", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "single-core workload name")
		mix          = fs.String("mix", "", "comma-separated workloads, one per core")
		l1           = fs.String("l1", "", "L1-D prefetcher (see -list)")
		l2           = fs.String("l2", "", "L2 prefetcher")
		llc          = fs.String("llc", "", "LLC prefetcher")
		warmup       = fs.Uint64("warmup", 50_000, "warmup instructions per core")
		measure      = fs.Uint64("measure", 200_000, "measured instructions per core")
		seed         = fs.Int64("seed", 1, "workload/page-allocation seed")
		list         = fs.Bool("list", false, "list workloads and prefetchers")

		traceOut   = fs.String("trace", "", "write the event trace to this file (.json → Chrome trace_event, else JSONL)")
		traceBuf   = fs.Int("trace-buf", 1<<19, "event ring-buffer capacity (oldest events overwritten beyond it)")
		interval   = fs.Int64("interval", 0, "sample interval metrics every N cycles (0 = off)")
		metricsOut = fs.String("metrics-out", "", "write the interval timeline to this file (.csv → CSV, else JSONL; default stdout)")
		jsonOut    = fs.Bool("json", false, "emit the full result as one JSON object on stdout")
		auditRun   = fs.Bool("audit", false, "attach the differential audit harness (slow); exit 2 on any violation")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		fmt.Println("prefetchers:", strings.Join(ipcp.Prefetchers(), " "))
		fmt.Println()
		fmt.Println("workloads:")
		for _, w := range ipcp.Workloads() {
			fmt.Println("  ", w)
		}
		return 0
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil && code == 0 {
				code = fail(err)
			}
		}()
	}

	rc := ipcp.RunConfig{
		Workload:      *workloadName,
		L1DPrefetcher: *l1,
		L2Prefetcher:  *l2,
		LLCPrefetcher: *llc,
		Warmup:        *warmup,
		Measure:       *measure,
		Seed:          *seed,
	}
	if *mix != "" {
		rc.Mix = strings.Split(*mix, ",")
	}
	if *traceOut != "" {
		rc.Tracer = ipcp.NewTracer(*traceBuf)
	}
	if *interval > 0 || *metricsOut != "" {
		rc.Intervals = ipcp.NewIntervalLog(*interval)
	}
	if *auditRun {
		rc.Audit = ipcp.NewAuditChecker()
	}

	res, err := ipcp.RunContext(ctx, rc)
	interrupted := err != nil && errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		return fail(err)
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "ipcpsim: interrupted; flushing telemetry collected so far")
	}

	if *traceOut != "" {
		if err := writeTrace(rc.Tracer, *traceOut); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "ipcpsim: wrote %d trace events to %s (%d overwritten)\n",
			rc.Tracer.Len(), *traceOut, rc.Tracer.Dropped())
	}
	if rc.Intervals != nil {
		if err := writeIntervals(rc.Intervals, *metricsOut); err != nil {
			return fail(err)
		}
		if *metricsOut != "" {
			fmt.Fprintf(os.Stderr, "ipcpsim: wrote %d interval samples to %s\n",
				rc.Intervals.Len(), *metricsOut)
		}
	}
	if interrupted {
		return 130
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return fail(err)
		}
	} else {
		report(res)
	}

	if *auditRun {
		if err := rc.Audit.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "ipcpsim: audit:", err)
			return 2
		}
		fmt.Fprintln(os.Stderr, "ipcpsim: audit clean (reference models and invariants agree)")
	}

	if *memprofile != "" {
		err := createFile(*memprofile, func(w io.Writer) error {
			runtime.GC()
			return pprof.WriteHeapProfile(w)
		})
		if err != nil {
			return fail(err)
		}
	}
	return 0
}

// fail reports err and returns the generic failure status.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "ipcpsim:", err)
	return 1
}

// createFile creates path, hands it to write and closes it, returning
// the first error: a failed Close can lose buffered data, so it counts.
func createFile(path string, write func(io.Writer) error) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return write(f)
}

// writeTrace exports the event trace; a .json extension selects the
// Chrome trace_event format, anything else JSONL.
func writeTrace(tr *ipcp.Tracer, path string) error {
	return createFile(path, func(w io.Writer) error {
		if strings.HasSuffix(path, ".json") {
			return tr.WriteChromeTrace(w)
		}
		return tr.WriteJSONL(w)
	})
}

// writeIntervals exports the interval timeline; a .csv extension
// selects CSV, anything else JSONL; an empty path writes CSV to stdout.
func writeIntervals(log *ipcp.IntervalLog, path string) error {
	if path == "" {
		return log.WriteCSV(os.Stdout)
	}
	return createFile(path, func(w io.Writer) error {
		if strings.HasSuffix(path, ".csv") {
			return log.WriteCSV(w)
		}
		return log.WriteJSONL(w)
	})
}

func report(res *ipcp.Result) {
	for i := 0; i < res.Cores; i++ {
		fmt.Printf("core %d: IPC %.4f  (%d instructions in %d cycles)\n",
			i, res.IPC[i], res.Instructions, res.CyclesPerCore[i])
		l1 := res.L1D[i]
		fmt.Printf("  L1D: %6d demand accesses, %6d misses (MPKI %.1f; misses include MSHR merges)\n",
			l1.DemandAccesses(), l1.DemandMisses(), res.MPKI("L1D", i))
		if l1.PrefetchIssued > 0 {
			fmt.Printf("       prefetch: issued %d, filled %d, useful %d (accuracy %.2f), late %d\n",
				l1.PrefetchIssued, l1.PrefetchFills, l1.PrefetchUseful, l1.Accuracy(), l1.LatePrefetch)
			fmt.Printf("       by class: CS %d  CPLX %d  GS %d  NL %d\n",
				l1.IssuedByClass[memsys.ClassCS], l1.IssuedByClass[memsys.ClassCPLX],
				l1.IssuedByClass[memsys.ClassGS], l1.IssuedByClass[memsys.ClassNL])
		}
		if snap := res.IPCPL1[i]; snap != nil {
			reportIPCP(snap)
		}
		l2 := res.L2[i]
		fmt.Printf("  L2:  %6d demand accesses, %6d misses (MPKI %.1f), %d prefetches\n",
			l2.DemandAccesses(), l2.DemandMisses(), res.MPKI("L2", i), l2.PrefetchIssued)
	}
	fmt.Printf("LLC:  %d demand accesses, %d misses\n",
		res.LLC.DemandAccesses(), res.LLC.DemandMisses())
	fmt.Printf("DRAM: %d reads, %d writes, %.1f%% bus utilization, %d row hits / %d misses / %d conflicts\n",
		res.DRAM.Reads, res.DRAM.Writes, res.DRAM.BusUtilization()*100,
		res.DRAM.RowHits, res.DRAM.RowMisses, res.DRAM.RowConflicts)
}

// reportIPCP prints the per-class introspection table of an IPCP L1.
func reportIPCP(s *ipcp.IPCPSnapshot) {
	nl := "off"
	if s.NLOn {
		nl = "on"
	}
	fmt.Printf("       IPCP: NL gate %s, %d class transitions, RR filter %d/%d hits\n",
		nl, s.ClassTransitions, s.RRHits, s.RRProbes)
	fmt.Printf("       %-5s %8s %8s %8s %6s %6s %8s %8s %6s %6s\n",
		"class", "issued", "fills", "useful", "acc", "deg", "rr-drop", "clamped", "thr+", "thr-")
	for _, cls := range []memsys.PrefetchClass{
		memsys.ClassCS, memsys.ClassCPLX, memsys.ClassGS, memsys.ClassNL,
	} {
		c := s.Classes[cls]
		acc := "--"
		if c.AccuracyMeasured {
			acc = fmt.Sprintf("%.2f", c.Accuracy)
		}
		fmt.Printf("       %-5s %8d %8d %8d %6s %6d %8d %8d %6d %6d\n",
			cls, c.Issued, c.Fills, c.Useful, acc, c.Degree,
			c.RRFiltered, c.PageClamped, c.ThrottleUps, c.ThrottleDowns)
	}
}
