package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"causeway/internal/analysis"
	"causeway/internal/logdb"
	"causeway/internal/probe"
	"causeway/internal/render"
)

// quantile returns the q-quantile of xs (nearest rank on a sorted copy);
// 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s)-1) + 0.5)
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func durMs(d time.Duration) float64 { return float64(d) / 1e6 }
func durUs(d time.Duration) float64 { return float64(d) / 1e3 }

// waker sleeps with microsecond precision without holding a scheduler P.
// time.Sleep overshoots sub-millisecond waits by about a millisecond once
// every thread idles in the netpoller, whose epoll timeout has millisecond
// resolution; a goroutine blocked in nanosleep(2) keeps its P, so the
// goroutines it has just woken wait until the runtime takes the P back.
// A read on a timerfd parks the goroutine in the netpoller instead, and the
// fd event wakes it on time (Linux only).
type waker struct {
	f  *os.File
	fd uintptr // kept apart: os.File.Fd would switch the file to blocking mode
}

func newWaker() (*waker, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &waker{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// until blocks until t; it returns at once for a time already past.
func (w *waker) until(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	// struct itimerspec: a zero interval (one shot), then the expiry.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, w.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err := w.f.Read(expirations[:])
	return err
}

func (w *waker) close() error { return w.f.Close() }

// poll checks cond every 250µs, giving up after ten seconds. The poll is
// coarse so that the waiting goroutine leaves the CPUs to the pipeline it
// waits on.
func (w *waker) poll(cond func() bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out")
		}
		if err := w.until(time.Now().Add(250 * time.Microsecond)); err != nil {
			return err
		}
	}
	return nil
}

// runtimeSample is a snapshot of the Go runtime's GC CPU and allocation
// counters.
type runtimeSample struct {
	gcCPU, totalCPU, allocBytes float64
}

func sampleRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return runtimeSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// runtimeLayer fills the runtime layer's metrics for the interval between
// two samples that performed ops operations.
func runtimeLayer(res *result, from, to runtimeSample, ops int) {
	if cpu := to.totalCPU - from.totalCPU; cpu > 0 {
		res.layer["runtime.gc_cpu_frac"] = (to.gcCPU - from.gcCPU) / cpu
	}
	if ops > 0 {
		res.layer["runtime.alloc_bytes_per_op"] = (to.allocBytes - from.allocBytes) / float64(ops)
	}
}

// rssSampler tracks the largest resident set the process shows while a
// measured phase runs, so memory the benchmark spends on set-up or on
// checking results afterwards does not count. It also notes how much CPU
// the hypervisor stole from the host meanwhile, which explains outliers.
type rssSampler struct {
	stop, done     chan struct{}
	peak           float64 // MiB; read after stop
	steal0, total0 float64
	stealFrac      float64 // set by end
}

func sampleRSS() *rssSampler {
	// Start every phase from the same heap: set-up garbage collected and
	// its pages returned, so the peak reflects the phase alone.
	debug.FreeOSMemory()
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.steal0, s.total0 = cpuTicks()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			s.peak = max(s.peak, rssMiB())
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// end stops sampling and returns the peak in MiB.
func (s *rssSampler) end() float64 {
	close(s.stop)
	<-s.done
	if steal, total := cpuTicks(); total > s.total0 {
		s.stealFrac = (steal - s.steal0) / (total - s.total0)
	}
	return max(s.peak, rssMiB())
}

// cpuTicks reads the host's stolen and total CPU ticks from /proc/stat.
func cpuTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user and nice.
	for i := 1; i <= 8 && i < len(f); i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// rssMiB reads the current resident set from /proc/self/statm.
func rssMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident float64
	if _, err := fmt.Sscan(string(b), &size, &resident); err != nil {
		return 0
	}
	return resident * float64(os.Getpagesize()) / (1 << 20)
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// inputDigest hashes the causal content of a record stream: everything
// except thread ids and probe timestamps, which the runtime and the clock
// choose. Two runs fed the same inputs print the same digest.
type inputDigest struct {
	h hash.Hash
	n int
}

func newInputDigest() *inputDigest { return &inputDigest{h: sha256.New()} }

func (d *inputDigest) record(r *probe.Record) {
	d.n++
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
	put(uint64(r.Kind))
	for _, s := range []string{r.Process, r.ProcType, r.Op.Component, r.Op.Interface, r.Op.Operation, r.Op.Object} {
		put(uint64(len(s)))
		d.h.Write([]byte(s))
	}
	flags := uint64(0)
	if r.Oneway {
		flags |= 1
	}
	if r.Collocated {
		flags |= 2
	}
	put(flags)
	d.h.Write(r.Chain[:])
	put(uint64(r.Event))
	put(r.Seq)
	d.h.Write(r.LinkParent[:])
	put(r.LinkParentSeq)
	d.h.Write(r.LinkChild[:])
}

func (d *inputDigest) String() string {
	return fmt.Sprintf("records=%d sha256=%x", d.n, d.h.Sum(nil)[:12])
}

// dscgText renders a reconstructed graph with latency attached — the
// canonical form two reconstructions are compared in.
func dscgText(src analysis.Source) (string, *analysis.DSCG) {
	g := analysis.ReconstructParallel(src, 0)
	g.ComputeLatency()
	return render.DSCGString(g), g
}

// wallClockStore loads ground-truth records into a log store the way they
// reach a collector: records carry wall-clock time on the wire, while the
// in-memory copies also hold the monotonic reading, which would shift
// reconstructed latencies by nanoseconds.
func wallClockStore(recs []probe.Record) *logdb.Store {
	db := logdb.NewStore()
	for _, r := range recs {
		r.WallStart, r.WallEnd = r.WallStart.Round(0), r.WallEnd.Round(0)
		db.Insert(r)
	}
	return db
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) float64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return float64(n)
}

// counterValue reads one un-labelled counter from a text exposition.
func counterValue(text []byte, name string) float64 {
	for _, line := range bytes.Split(text, []byte("\n")) {
		f := strings.Fields(string(line))
		if len(f) >= 2 && f[0] == name {
			v, _ := strconv.ParseFloat(f[1], 64)
			return v
		}
	}
	return 0
}
