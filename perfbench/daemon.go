package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"ipcp/internal/experiments"
	"ipcp/internal/serve"
	"ipcp/internal/sim"
)

const (
	// daemonClients is the closed loop's client count: each sends its
	// next job only after the previous one's result arrived.
	daemonClients = 2
	// daemonBoots is how many times set-up boots a daemon; the median
	// boot is setup_s and the last daemon serves the measured jobs.
	daemonBoots = 41
	// daemonVerified is how many jobs per client are recomputed
	// in-process, untimed, and must match the daemon's results.
	daemonVerified = 16
	// daemonTrace is the jobs' one light trace.
	daemonTrace = "lbm-94"
)

// daemonScale is the daemon's per-job budget: small, so the HTTP,
// queue, journal and checkpoint hops are a visible share of a job.
func daemonScale(seed int64) experiments.Scale {
	return experiments.Scale{Warmup: 5_000, Measure: 15_000, Seed: seed}
}

// jobSeed is client c's i-th job seed. Seeds are distinct, so no job
// coalesces onto or is served from another.
func jobSeed(seed int64, c, i int) int64 { return deriveSeed(seed, c, i) }

func jobSpec(seed int64) experiments.RunSpec {
	return experiments.RunSpec{Workloads: []string{daemonTrace}, L1D: "ipcp", L2: "ipcp", Seed: seed}
}

// daemon is one in-process ipcpd on a loopback listener.
type daemon struct {
	srv      *serve.Server
	hs       *http.Server
	base     string
	cacheDir string
	served   chan error
}

// bootDaemon starts a daemon with a fresh checkpoint store and job
// journal and waits until /healthz answers.
func bootDaemon(e *env, name string, client *http.Client) (*daemon, error) {
	dir := filepath.Join(e.dir, name)
	d := &daemon{cacheDir: filepath.Join(dir, "cache"), served: make(chan error, 1)}
	srv, err := serve.New(serve.Options{
		Scale:      daemonScale(e.seed),
		CacheDir:   d.cacheDir,
		JournalDir: filepath.Join(dir, "journal"),
	})
	if err != nil {
		return nil, err
	}
	d.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: srv.Handler()}
	go func() { d.served <- d.hs.Serve(ln) }()
	resp, err := client.Get(d.base + "/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop shuts the listener, drains the job queue and waits for the
// serving goroutine to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if derr := d.srv.Drain(ctx); err == nil {
		err = derr
	}
	d.srv.Close()
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// jobTiming is one round trip's timings.
type jobTiming struct {
	rtt, submit, get time.Duration
}

// jobOutcome is one job's result as the daemon returned it.
type jobOutcome struct {
	raw json.RawMessage
}

// roundTrip submits one job, follows its event stream to the terminal
// line and fetches the result.
func roundTrip(client *http.Client, base string, seed int64, measure uint64) (jobTiming, jobOutcome, error) {
	var tm jobTiming
	var out jobOutcome
	body, err := json.Marshal(map[string]any{
		"workloads": []string{daemonTrace}, "l1d": "ipcp", "l2": "ipcp", "seed": seed,
	})
	if err != nil {
		return tm, out, err
	}
	t0 := time.Now()
	resp, err := client.Post(base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return tm, out, err
	}
	var sub struct {
		ID        string `json:"id"`
		Coalesced bool   `json:"coalesced"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	tm.submit = time.Since(t0)
	if resp.StatusCode != http.StatusAccepted {
		return tm, out, fmt.Errorf("submit: %s", resp.Status)
	}
	if err != nil || sub.ID == "" || sub.Coalesced {
		return tm, out, fmt.Errorf("submit: bad reply (id %q, coalesced %v, err %v)", sub.ID, sub.Coalesced, err)
	}

	resp, err = client.Get(base + "/v1/runs/" + sub.ID + "/events")
	if err != nil {
		return tm, out, err
	}
	last := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			break
		}
		last = ev.Kind
		if last == "done" || last == "failed" || last == "stalled" {
			break
		}
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || last != "done" {
		return tm, out, fmt.Errorf("events %s: stream ended on %q", resp.Status, last)
	}

	t2 := time.Now()
	resp, err = client.Get(base + "/v1/runs/" + sub.ID)
	if err != nil {
		return tm, out, err
	}
	var view struct {
		Status string          `json:"status"`
		Result json.RawMessage `json:"result"`
	}
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	tm.get = time.Since(t2)
	tm.rtt = time.Since(t0)
	if resp.StatusCode != http.StatusOK || err != nil {
		return tm, out, fmt.Errorf("get: %s (%v)", resp.Status, err)
	}
	if view.Status != "done" {
		return tm, out, fmt.Errorf("job %s ended %q", sub.ID, view.Status)
	}
	out.raw = view.Result
	var res *sim.Result
	if err := json.Unmarshal(view.Result, &res); err != nil {
		return tm, out, fmt.Errorf("result: %w", err)
	}
	return tm, out, checkResult(res, 1, measure)
}

// daemonPass is one closed-loop pass: per-client job outcomes in
// submission order, and every round trip's timings. Times are at
// reference host speed in an untraced run.
type daemonPass struct {
	wall     time.Duration
	jobs     int
	timings  []jobTiming
	outcomes [][]jobOutcome
}

// daemonSegment is how long an untraced pass runs the closed loop
// between host-speed samples: the clients finish the jobs in flight,
// the reference kernel runs on an idle daemon, and the loop resumes.
const daemonSegment = 2.0 // seconds

// drive runs the closed loop: daemonClients clients, each submitting
// job after job until seconds elapse (perClient non-nil: exactly that
// many jobs each).
func drive(e *env, d *daemon, client *http.Client, seconds float64, perClient []int) *daemonPass {
	p := &daemonPass{outcomes: make([][]jobOutcome, daemonClients)}
	if perClient != nil || e.speed == nil {
		p.segment(e, d, client, seconds, perClient)
		return p
	}
	start := time.Now()
	for e.failed == 0 {
		left := seconds - time.Since(start).Seconds()
		if left <= 0 {
			break
		}
		p.segment(e, d, client, min(left, daemonSegment), nil)
	}
	return p
}

// segment runs the closed loop for seconds (perClient non-nil: until
// each client has sent that many jobs in all) and adds its jobs to p,
// timed at reference host speed.
func (p *daemonPass) segment(e *env, d *daemon, client *http.Client, seconds float64, perClient []int) {
	measure := daemonScale(e.seed).Measure
	var timings []jobTiming
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := len(p.outcomes[c]); ; i++ {
				if perClient != nil && i == perClient[c] {
					return
				}
				if perClient == nil && time.Since(start).Seconds() >= seconds {
					return
				}
				tm, out, err := roundTrip(client, d.base, jobSeed(e.seed, c, i), measure)
				mu.Lock()
				e.attempt(1)
				if err != nil {
					e.fail("client %d job %d: %v", c, i, err)
				} else {
					timings = append(timings, tm)
				}
				mu.Unlock()
				p.outcomes[c] = append(p.outcomes[c], out)
				if err != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	slow := e.speed.span()
	ref := func(d time.Duration) time.Duration { return time.Duration(atRef(d, slow)) }
	p.wall += ref(wall)
	p.jobs += len(timings)
	for _, t := range timings {
		p.timings = append(p.timings, jobTiming{rtt: ref(t.rtt), submit: ref(t.submit), get: ref(t.get)})
	}
}

func (p *daemonPass) ms(pick func(jobTiming) time.Duration) []float64 {
	out := make([]float64, len(p.timings))
	for i, t := range p.timings {
		out[i] = float64(pick(t)) / 1e6
	}
	return out
}

// verifyJobs recomputes the first daemonVerified jobs of every client
// in-process, with and without prefetching. The daemon's results must
// match the in-process IPCP runs byte for byte (after canonical
// encoding); the pairs give the simulated metrics.
func verifyJobs(e *env, p *daemonPass) (with, base []*sim.Result, err error) {
	s := experiments.NewSession(daemonScale(e.seed))
	for c, outs := range p.outcomes {
		if len(outs) < daemonVerified {
			return nil, nil, fmt.Errorf("client %d finished %d jobs, want at least %d", c, len(outs), daemonVerified)
		}
		for i := 0; i < daemonVerified; i++ {
			spec := jobSpec(jobSeed(e.seed, c, i))
			e.attempt(2)
			want, err := s.Run(spec)
			if err != nil {
				return nil, nil, err
			}
			wd, err := digest(want)
			if err != nil {
				return nil, nil, err
			}
			gd, err := digestJSON(outs[i].raw)
			if err != nil {
				return nil, nil, err
			}
			if wd != gd {
				e.fail("client %d job %d: daemon result differs from the in-process run", c, i)
			}
			spec.L1D, spec.L2 = "", ""
			none, err := s.Run(spec)
			if err != nil {
				return nil, nil, err
			}
			with = append(with, want)
			base = append(base, none)
		}
	}
	return with, base, nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// runDaemon is the serving workload: an in-process ipcpd with a
// checkpoint store and a write-ahead journal, driven over loopback
// HTTP by a closed loop of daemonClients clients.
func runDaemon(e *env) error {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * daemonClients}}
	defer client.CloseIdleConnections()

	// A boot is mostly directory and file creation, a loopback listener
	// and an HTTP request: the set-up reference makes the same calls.
	var sys *sysRef
	if !e.traced {
		sys = &sysRef{dir: e.dir, dirs: 4, files: true, loopback: true, nominal: 2 * time.Millisecond}
	}
	var d *daemon
	var boots []float64
	for b := 0; b < daemonBoots; b++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		s, err := sys.timeSetup(func() error {
			var err error
			d, err = bootDaemon(e, "daemon-"+strconv.Itoa(b), client)
			return err
		})
		if err != nil {
			return err
		}
		boots = append(boots, s)
	}

	// A job also waits for the journal's and the checkpoint store's
	// fsyncs, which the CPU kernel does not see, so this workload's
	// host-speed samples add synced appends, sized at about a tenth of
	// a sample: a rough estimate of the fsyncs' share of a job.
	if !e.traced {
		e.speed.addIO(&sysRef{dir: e.dir, syncs: 8, nominal: 2500 * time.Microsecond})
	}
	var p *daemonPass
	gcCycles, alloc, err := e.untracedPass(func() error {
		p = drive(e, d, client, e.untracedSeconds(), nil)
		return nil
	})
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err == nil && e.speed != nil {
		err = e.speed.ioErr
	}
	if err != nil {
		return err
	}
	if e.failed > 0 {
		return errStop
	}
	scale := daemonScale(e.seed)
	jobInstr := float64(budget{Cores: 1, Warmup: scale.Warmup, Measure: scale.Measure}.instr())
	ips := jobInstr * float64(p.jobs) / p.wall.Seconds()
	with, base, err := verifyJobs(e, p)
	if err != nil {
		return err
	}
	if !e.traced {
		rtt := p.ms(func(t jobTiming) time.Duration { return t.rtt })
		sp, err := speedup(with, base)
		if err != nil {
			return err
		}
		e.set("instr_per_s", ips)
		e.set("setup_s", median(boots))
		e.set("rtt_p50_ms", percentile(rtt, 0.5))
		e.set("rtt_p90_ms", percentile(rtt, 0.9))
		e.set("sim_ipc", geomean(perCoreIPC(with)))
		e.set("ipcp_speedup", sp)
		fmt.Fprintf(os.Stderr, "perfbench: jobs=%d (p90 needs %d)\n", len(rtt), minSamplesFor(0.9))
		return nil
	}

	// Traced: a fresh daemon replays exactly the same jobs per client;
	// every result must match the untraced pass's.
	td, err := bootDaemon(e, "daemon-traced", client)
	if err != nil {
		return err
	}
	perClient := make([]int, daemonClients)
	for c := range perClient {
		perClient[c] = len(p.outcomes[c])
	}
	tp := drive(e, td, client, 0, perClient)
	m := td.srv.Metrics()
	if err := td.stop(); err != nil {
		return err
	}
	if e.failed > 0 {
		return errStop
	}
	for c := range p.outcomes {
		for i := range p.outcomes[c] {
			a, err := digestJSON(p.outcomes[c][i].raw)
			if err != nil {
				return err
			}
			b, err := digestJSON(tp.outcomes[c][i].raw)
			if err != nil {
				return err
			}
			if a != b {
				e.fail("client %d job %d: traced result differs from untraced", c, i)
			}
		}
	}
	store, err := dirBytes(td.cacheDir)
	if err != nil {
		return err
	}
	submit := tp.ms(func(t jobTiming) time.Duration { return t.submit })
	get := tp.ms(func(t jobTiming) time.Duration { return t.get })
	e.set("serve.submit_ms_p50", percentile(submit, 0.5))
	e.set("serve.submit_ms_p90", percentile(submit, 0.9))
	e.set("serve.get_ms_p50", percentile(get, 0.5))
	e.set("serve.queue_wait_ms_p50", m.QueueWait.P50*1000)
	e.set("serve.exec_ms_p50", m.Execution.P50*1000)
	e.set("serve.rejected", float64(m.Jobs.Rejected+m.Jobs.Shed))
	e.set("serve.coalesced", float64(m.Jobs.Coalesced))
	e.set("journal.appends", float64(m.Journal.Appended))
	e.set("journal.append_errors", float64(m.Journal.AppendErrors))
	e.set("session.executed", float64(m.Session.Executed))
	e.set("session.disk_hits", float64(m.Session.DiskHits))
	e.set("session.store_failures", float64(m.Session.StoreFailures))
	e.set("checkpoint.bytes", float64(store))
	e.set("runtime.gc_cycles", float64(gcCycles))
	e.set("runtime.alloc_bytes_per_kinstr", ratio(float64(alloc)*1000, jobInstr*float64(p.jobs)))
	e.set("traced.slowdown", ratio(ips, jobInstr*float64(tp.jobs)/tp.wall.Seconds()))
	e.setSimulated(with)
	e.bypass("trace.", "core.", "sim.", "session.", "sweep.", "snapshot.", "checkpoint.")
	return nil
}
