package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"ipcp/internal/experiments"
	"ipcp/internal/sim"
	"ipcp/internal/trace"
	"ipcp/internal/workload"
)

// sweepTraces are the grid's warmup groups: streaming, complex stride
// and irregular.
var sweepTraces = []string{"lbm-94", "mcf-1536", "omnetpp-17"}

// sweepConfigs are the prefetcher points per trace (L1-D, L2).
var sweepConfigs = [][2]string{
	{"", ""}, {"nl", ""}, {"ipstride", ""}, {"ipcp", ""},
	{"", "ipcp"}, {"nl", "ipcp"}, {"ipstride", "ipcp"}, {"ipcp", "ipcp"},
}

// sweepVariants is how many input variants a run cycles through, one
// per operation (see simPlan).
const sweepVariants = 4

// sweepScale is the grid's per-point budget: a long shared warmup and
// a short measure phase, the shape warmup forking amortises.
func sweepScale(seed int64) experiments.Scale {
	return experiments.Scale{Warmup: 40_000, Measure: 20_000, Seed: seed}
}

func sweepGrid() []experiments.RunSpec {
	var specs []experiments.RunSpec
	for _, t := range sweepTraces {
		for _, c := range sweepConfigs {
			specs = append(specs, experiments.RunSpec{Workloads: []string{t}, L1D: c[0], L2: c[1]})
		}
	}
	return specs
}

// sweepOp is one timed sweep operation's output.
type sweepOp struct {
	cold, replay time.Duration
	// setupS is the set-up time at reference speed (see sysRef).
	setupS float64
	// slow is the host's slowdown over the operation (see hostSpeed).
	slow        float64
	pointMS     []float64 // per-point latency (traced passes)
	results     []*sim.Result
	coldStats   experiments.SessionStats
	replayStats experiments.SessionStats
	storeBytes  int64
}

// sweepRunner sends a grid through a session. Untraced passes use
// RunSweep itself; the traced pass issues the same concurrent RunShared
// calls RunSweep makes, timing each point.
type sweepRunner func(s *experiments.Session, specs []experiments.RunSpec) ([]*sim.Result, []error, []float64)

func viaRunSweep(s *experiments.Session, specs []experiments.RunSpec) ([]*sim.Result, []error, []float64) {
	res, errs := s.RunSweep(specs)
	return res, errs, nil
}

func timedPoints(s *experiments.Session, specs []experiments.RunSpec) ([]*sim.Result, []error, []float64) {
	res := make([]*sim.Result, len(specs))
	errs := make([]error, len(specs))
	ms := make([]float64, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t := time.Now()
			res[i], errs[i] = s.RunShared(specs[i])
			ms[i] = float64(time.Since(t)) / 1e6
		}(i)
	}
	wg.Wait()
	return res, errs, ms
}

// sweepOnce runs the grid cold into a fresh checkpoint store, then
// replays it through a second fresh session over the same store. The
// replay must execute nothing and return byte-identical results.
func sweepOnce(e *env, n int, seed int64, specs []experiments.RunSpec, run sweepRunner, sys *sysRef) (*sweepOp, error) {
	op := &sweepOp{}
	scale := sweepScale(seed)
	dir := filepath.Join(e.dir, "sweep-"+strconv.Itoa(n))
	defer os.RemoveAll(dir)

	var cold *experiments.Session
	var err error
	op.setupS, err = sys.timeSetup(func() error {
		cold = experiments.NewSession(scale)
		return cold.SetCacheDir(dir)
	})
	if err != nil {
		return nil, err
	}

	t1 := time.Now()
	res, errs, ms := run(cold, specs)
	op.cold = time.Since(t1)

	t2 := time.Now()
	warm := experiments.NewSession(scale)
	if err := warm.SetCacheDir(dir); err != nil {
		return nil, err
	}
	res2, errs2, _ := run(warm, specs)
	op.replay = time.Since(t2)

	for i := range specs {
		if errs[i] != nil || errs2[i] != nil {
			return nil, fmt.Errorf("point %d: %v / replay %v", i, errs[i], errs2[i])
		}
		if err := checkResult(res[i], 1, scale.Measure); err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		a, err := digest(res[i])
		if err != nil {
			return nil, err
		}
		b, err := digest(res2[i])
		if err != nil {
			return nil, err
		}
		if a != b {
			return nil, fmt.Errorf("point %d: replayed result differs", i)
		}
	}
	op.results, op.pointMS = res, ms
	op.coldStats, op.replayStats = cold.Stats(), warm.Stats()
	for _, st := range []experiments.SessionStats{op.coldStats, op.replayStats} {
		if st.Quarantined != 0 || st.StoreFailures != 0 || st.Faults != 0 {
			return nil, fmt.Errorf("checkpoint store: %d quarantined, %d store failures, %d faults",
				st.Quarantined, st.StoreFailures, st.Faults)
		}
	}
	if op.replayStats.Executed != 0 {
		return nil, fmt.Errorf("replay executed %d simulations, want 0", op.replayStats.Executed)
	}
	op.storeBytes, err = dirBytes(dir)
	return op, err
}

// sweepDigests hashes a grid's results in spec order.
func sweepDigests(results []*sim.Result) ([]string, error) {
	out := make([]string, len(results))
	for i, r := range results {
		d, err := digest(r)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// sweepPass repeats sweep operations, operation n on input variant n
// mod sweepVariants, for whole cycles of variants until seconds elapse
// (ops > 0: exactly that many). Each grid is checked against the same
// variant's grid in ref, or in the pass's own first cycle.
func sweepPass(e *env, seconds float64, ops int, run sweepRunner, ref [][]string, sys *sysRef) ([]*sweepOp, [][]string, error) {
	specs := sweepGrid()
	var out []*sweepOp
	start := time.Now()
	for n := 0; ; n++ {
		if ops > 0 && n == ops {
			break
		}
		if ops == 0 && n > 0 && n%sweepVariants == 0 && time.Since(start).Seconds() >= seconds {
			break
		}
		v := n % sweepVariants
		e.attempt(1)
		op, err := sweepOnce(e, n, deriveSeed(e.seed, v), specs, run, sys)
		if err != nil {
			e.fail("sweep %d: %v", n, err)
			return out, ref, errStop
		}
		op.slow = e.speed.span()
		ds, err := sweepDigests(op.results)
		if err != nil {
			e.fail("sweep %d: %v", n, err)
			return out, ref, errStop
		}
		if len(ref) == v {
			ref = append(ref, ds)
		}
		for i := range ds {
			if ds[i] != ref[v][i] {
				e.fail("sweep %d point %d: result differs from reference", n, i)
				return out, ref, errStop
			}
		}
		out = append(out, op)
	}
	return out, ref, nil
}

// sweepPairs splits the first cycle's grids into the L1+L2 IPCP points
// and their no-prefetching baselines, trace by trace.
func sweepPairs(ops []*sweepOp) (with, base []*sim.Result) {
	specs := sweepGrid()
	for _, op := range ops[:sweepVariants] {
		for i, s := range specs {
			switch {
			case s.L1D == "ipcp" && s.L2 == "ipcp":
				with = append(with, op.results[i])
			case s.L1D == "" && s.L2 == "":
				base = append(base, op.results[i])
			}
		}
	}
	return with, base
}

// runSweep is the sweep workload: the prefetcher grid through the
// shared-warmup scheduler into a fresh checkpoint store, then replayed
// from disk by a fresh session.
func runSweep(e *env) error {
	scale := sweepScale(e.seed) // budgets do not depend on the seed
	pointInstr := float64(budget{Cores: 1, Warmup: scale.Warmup, Measure: scale.Measure}.instr())
	gridInstr := pointInstr * float64(len(sweepGrid()))

	// The set-up, a session and its checkpoint directory, is one
	// directory creation: the set-up reference creates and removes
	// directories.
	var sys *sysRef
	if !e.traced {
		sys = &sysRef{dir: e.dir, dirs: 4, nominal: 800 * time.Microsecond}
	}
	var ops []*sweepOp
	var ref [][]string
	gcCycles, alloc, err := e.untracedPass(func() error {
		var err error
		ops, ref, err = sweepPass(e, e.untracedSeconds(), 0, viaRunSweep, nil, sys)
		return err
	})
	if err != nil {
		return err
	}
	with, base := sweepPairs(ops)
	var ips, opMS, setupS []float64
	var busyNS float64
	for _, op := range ops {
		t := atRef(op.cold+op.replay, op.slow)
		ips = append(ips, gridInstr/(t/1e9))
		opMS = append(opMS, t/1e6)
		setupS = append(setupS, op.setupS)
		busyNS += t
	}
	if !e.traced {
		sp, err := speedup(with, base)
		if err != nil {
			return err
		}
		e.set("instr_per_s", median(ips))
		e.set("setup_s", median(setupS))
		e.set("rtt_p50_ms", percentile(opMS, 0.5))
		e.set("rtt_p90_ms", percentile(opMS, 0.9))
		e.set("sim_ipc", geomean(perCoreIPC(with)))
		e.set("ipcp_speedup", sp)
		fmt.Fprintf(os.Stderr, "perfbench: sweeps=%d (p90 needs %d)\n", len(ops), minSamplesFor(0.9))
		return nil
	}

	untracedIPS := gridInstr * float64(len(ops)) / (busyNS / 1e9)
	traced, _, err := sweepPass(e, 0, len(ops), timedPoints, ref, nil)
	if err != nil {
		return err
	}
	var pointMS, replayMS []float64
	var tracedNS float64
	for _, op := range traced {
		pointMS = append(pointMS, op.pointMS...)
		replayMS = append(replayMS, float64(op.replay)/1e6)
		tracedNS += float64(op.cold + op.replay)
	}
	first := traced[0]
	e.set("session.executed", float64(first.coldStats.Executed))
	e.set("session.snapshot_misses", float64(first.coldStats.SnapshotMisses))
	e.set("session.forked_runs", float64(first.coldStats.ForkedRuns))
	e.set("session.warmups_coalesced", float64(first.coldStats.WarmupsCoalesced))
	e.set("session.snapshot_bytes", float64(first.coldStats.SnapshotBytes))
	e.set("session.disk_hits", float64(first.replayStats.DiskHits))
	e.set("session.store_failures", float64(first.coldStats.StoreFailures+first.replayStats.StoreFailures))
	e.set("sweep.point_ms_p50", percentile(pointMS, 0.5))
	e.set("sweep.point_ms_p90", percentile(pointMS, 0.9))
	e.set("checkpoint.replay_ms", median(replayMS))
	e.set("checkpoint.bytes", float64(first.storeBytes))
	e.set("runtime.gc_cycles", float64(gcCycles))
	e.set("runtime.alloc_bytes_per_kinstr", ratio(float64(alloc)*1000, gridInstr*float64(len(ops))))
	e.set("traced.slowdown", ratio(untracedIPS, gridInstr*float64(len(traced))/(tracedNS/1e9)))
	if err := snapshotLayer(e, sweepTraces[0], with[0]); err != nil {
		return err
	}
	e.setSimulated(with)
	e.bypass("trace.", "core.", "sim.", "serve.", "journal.")
	return nil
}

// snapshotLayer times the warmup-fork primitives the sweep scheduler
// is built on, on the first grid's first warmup: capture, encode,
// decode and restore. The restored system then measures with L1+L2
// IPCP, which must reproduce the grid's result for that point exactly.
func snapshotLayer(e *env, name string, want *sim.Result) error {
	seed := deriveSeed(e.seed, 0)
	scale := sweepScale(seed)
	w, err := workload.Named(name)
	if err != nil {
		return err
	}
	cfg := sim.PaperConfig(1)
	cfg.Seed = seed
	cfg.CacheWarmOnly = true
	cfg.L1DPrefetcher = sim.PrefetcherSpec{Name: "ipcp"}
	cfg.L2Prefetcher = sim.PrefetcherSpec{Name: "ipcp"}
	build := func() (*sim.System, error) {
		return sim.Build(cfg, []trace.Stream{w.New(seed)})
	}
	src, err := build()
	if err != nil {
		return err
	}
	if err := src.RunWarmup(context.Background(), scale.Warmup); err != nil {
		return err
	}
	t := time.Now()
	snap, err := src.Snapshot()
	capture := time.Since(t)
	if err != nil {
		return err
	}
	t = time.Now()
	blob, err := sim.EncodeSnapshot(snap)
	encode := time.Since(t)
	if err != nil {
		return err
	}
	t = time.Now()
	decoded, err := sim.DecodeSnapshot(blob)
	decode := time.Since(t)
	if err != nil {
		return err
	}
	dst, err := build()
	if err != nil {
		return err
	}
	t = time.Now()
	err = dst.RestoreSnapshot(decoded)
	restore := time.Since(t)
	if err != nil {
		return err
	}
	if err := dst.AttachPrefetchers(); err != nil {
		return err
	}
	res, err := dst.RunMeasure(context.Background(), scale.Measure)
	if err != nil {
		return err
	}
	got, err := digest(res)
	if err != nil {
		return err
	}
	ref, err := digest(want)
	if err != nil {
		return err
	}
	if got != ref {
		e.fail("snapshot fork of %s differs from the grid's result", name)
	}
	e.set("snapshot.capture_ms", float64(capture)/1e6)
	e.set("snapshot.encode_ms", float64(encode)/1e6)
	e.set("snapshot.decode_ms", float64(decode)/1e6)
	e.set("snapshot.restore_ms", float64(restore)/1e6)
	e.set("snapshot.bytes", float64(len(blob)))
	return nil
}
