package main

import (
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// The host a benchmark run shares with other tenants changes speed in
// spells: a fixed simulation can run 1.5x slower for tens of seconds
// and then recover. Untraced runs therefore time a fixed reference
// kernel between their timed operations and report every host time at
// reference speed: an operation's duration divided by how much slower
// than refNominal the kernel ran around it. The kernel is code of the
// benchmark, not of the program, so a change to the program moves the
// reported times in full; only the host's drift is divided out. System
// calls have a reference of their own, sysRef.

// refNominal is about the reference kernel's median time inside the
// benchmark's runs on the host it was tuned on (a shared two-vCPU
// x86-64 VM, Go 1.24). It only sets the scale of the reported times: a
// host-time metric reads what it would read on a host where the kernel
// takes this long.
const refNominal = 25 * time.Millisecond

// refKernel is the reference work: a set-associative LRU cache model
// (the branchy array code the simulator is made of) and hash-map
// updates (the lookups its bookkeeping and the serving layer make). Its
// data is built once; a run of the kernel allocates nothing. A pointer
// chase through 2 MiB was tried as a third part and dropped: its time
// swung far more than the workloads' did.
type refKernel struct {
	sets   [][refWays]refWay
	counts map[uint64]uint32
	sink   uint64
}

const (
	refSets    = 2048
	refWays    = 16
	refMapKeys = 16 << 10
	// Work per kernel run, split so that each part takes about half of
	// refNominal.
	refCacheRefs = 240_000
	refMapOps    = 500_000
)

type refWay struct{ tag, stamp uint64 }

// xorshift is the kernel's fixed pseudo-random sequence.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

func newRefKernel() *refKernel {
	k := &refKernel{
		sets:   make([][refWays]refWay, refSets),
		counts: make(map[uint64]uint32, refMapKeys),
	}
	for i := uint64(0); i < refMapKeys; i++ {
		k.counts[i] = 0
	}
	return k
}

// work runs the kernel's parts, each scaled by frac of its full size.
func (k *refKernel) work(frac float64) {
	r := xorshift(12345)
	var clock, hits uint64
	for i, n := 0, int(frac*refCacheRefs); i < n; i++ {
		var addr uint64
		if a := r.next(); a&3 == 0 {
			addr = a % (4 << 20) // scattered
		} else {
			addr = uint64(i) * 64 % (1 << 20) // streaming
		}
		line := addr >> 6
		set := &k.sets[line%refSets]
		tag := line / refSets
		clock++
		hit, victim, oldest := false, 0, ^uint64(0)
		for w := range set {
			if set[w].tag == tag {
				set[w].stamp, hit = clock, true
				break
			}
			if set[w].stamp < oldest {
				victim, oldest = w, set[w].stamp
			}
		}
		if hit {
			hits++
		} else {
			set[victim] = refWay{tag, clock}
		}
	}
	k.sink += hits

	r = xorshift(99)
	for i, n := 0, int(frac*refMapOps); i < n; i++ {
		k.counts[r.next()%refMapKeys]++
	}
}

// run times one full kernel run. What the program left behind does not
// count: a collection first finishes any garbage-collection cycle the
// program started (the kernel allocates nothing, so none starts during
// it), and an untimed quarter-size run brings the kernel's data back
// into the caches.
func (k *refKernel) run() time.Duration {
	runtime.GC()
	k.work(0.25)
	t := time.Now()
	k.work(1)
	return time.Since(t)
}

// hostSpeed tracks the host's slowdown between timed operations. A nil
// *hostSpeed (traced runs, whose times are compared only with each
// other) reports a slowdown of 1 and runs nothing.
type hostSpeed struct {
	kernel *refKernel
	// io, when set, adds its run to every sample: for a workload whose
	// operations wait on the disk as well as compute.
	io    *sysRef
	ioErr error
	last  float64 // slowdown measured by the latest sample
	all   []float64
}

// newHostSpeed builds the kernel and takes the first sample.
func newHostSpeed() *hostSpeed {
	h := &hostSpeed{kernel: newRefKernel()}
	h.last = h.sample()
	return h
}

func (h *hostSpeed) sample() float64 {
	d, nominal := h.kernel.run(), refNominal
	if h.io != nil {
		iod, err := h.io.run()
		if err != nil && h.ioErr == nil {
			h.ioErr = err
		}
		d, nominal = d+iod, nominal+h.io.nominal
	}
	s := float64(d) / float64(nominal)
	h.all = append(h.all, s)
	return s
}

// addIO makes every later sample include io and takes a fresh one.
func (h *hostSpeed) addIO(io *sysRef) {
	if h != nil {
		h.io = io
		h.last = h.sample()
	}
}

// span ends a stretch of timed work: it runs the kernel again and
// returns the slowdown over the stretch, the geometric mean of the
// samples taken just before and just after it.
func (h *hostSpeed) span() float64 {
	if h == nil {
		return 1
	}
	prev := h.last
	h.last = h.sample()
	return spanSlowdown(prev, h.last)
}

// spanSlowdown is the slowdown over a stretch with the given kernel
// slowdowns at its two ends.
func spanSlowdown(before, after float64) float64 {
	return math.Sqrt(before * after)
}

// atRef converts a duration measured at slowdown s into the duration at
// reference speed.
func atRef(d time.Duration, s float64) float64 {
	return float64(d) / s
}

// median is the median kernel slowdown of the run, for the progress
// line (NaN for a nil tracker).
func (h *hostSpeed) median() float64 {
	if h == nil {
		return math.NaN()
	}
	return median(h.all)
}

// System calls are slowed by the file system's load, apart from the
// CPU's: runs of the same code had median set-up times a factor of two
// apart. Set-up on sweep and daemon is mostly system calls (creating
// directories and files, and on daemon opening a loopback listener and
// answering an HTTP request), and a daemon job waits on fsyncs. So
// those are corrected by a second reference, the same kinds of calls
// made by the benchmark's own code.

// sysRef is a reference made of system calls: dirs cycles of creating
// and removing a directory (with a file in it when files is set), syncs
// small appends each made durable with fsync, and, with loopback, one
// loopback HTTP round trip to a handler of the benchmark's own. A nil
// *sysRef runs nothing and leaves set-up times as measured.
type sysRef struct {
	dir      string
	dirs     int
	files    bool
	syncs    int
	loopback bool
	// nominal is the reference's typical time on the tuning host; it
	// only sets the scale.
	nominal time.Duration
	client  http.Client
}

// timeSetup runs setup between two runs of the reference and returns
// its duration in seconds at reference speed.
func (r *sysRef) timeSetup(setup func() error) (float64, error) {
	if r == nil {
		t := time.Now()
		err := setup()
		return time.Since(t).Seconds(), err
	}
	before, err := r.run()
	if err != nil {
		return 0, err
	}
	t := time.Now()
	if err := setup(); err != nil {
		return 0, err
	}
	took := time.Since(t)
	after, err := r.run()
	if err != nil {
		return 0, err
	}
	slow := spanSlowdown(float64(before)/float64(r.nominal), float64(after)/float64(r.nominal))
	return atRef(took, slow) / 1e9, nil
}

// run times one reference run.
func (r *sysRef) run() (time.Duration, error) {
	t := time.Now()
	d := filepath.Join(r.dir, "sysref")
	for i := 0; i < r.dirs; i++ {
		if err := os.Mkdir(d, 0o755); err != nil {
			return 0, err
		}
		if r.files {
			f, err := os.Create(filepath.Join(d, "f"))
			if err != nil {
				return 0, err
			}
			if err := f.Close(); err != nil {
				return 0, err
			}
			if err := os.Remove(filepath.Join(d, "f")); err != nil {
				return 0, err
			}
		}
		if err := os.Remove(d); err != nil {
			return 0, err
		}
	}
	if r.syncs > 0 {
		if err := r.appendSynced(d + ".log"); err != nil {
			return 0, err
		}
	}
	if r.loopback {
		if err := r.roundTrip(); err != nil {
			return 0, err
		}
	}
	return time.Since(t), nil
}

// appendSynced appends r.syncs short records to a fresh file, each made
// durable before the next, then removes the file.
func (r *sysRef) appendSynced(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	record := make([]byte, 128)
	for i := 0; i < r.syncs && err == nil; i++ {
		if _, err = f.Write(record); err == nil {
			err = f.Sync()
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if rerr := os.Remove(path); err == nil {
		err = rerr
	}
	return err
}

// roundTrip opens a loopback listener, serves one request on it and
// closes it.
func (r *sysRef) roundTrip() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	})}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	resp, err := r.client.Get("http://" + ln.Addr().String() + "/")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	r.client.CloseIdleConnections()
	if cerr := hs.Close(); err == nil {
		err = cerr
	}
	if serr := <-served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}
