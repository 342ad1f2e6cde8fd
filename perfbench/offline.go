package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"

	"causeway/internal/analysis"
	"causeway/internal/probe"
	"causeway/internal/render"
	"causeway/internal/tracestore"
	"causeway/internal/uuid"
)

const (
	offlineCalls  = 195000 // the paper's largest monitored run
	offlineSetups = 3      // set-ups per run; setup_s is their median
)

func runOffline(o opts) (*result, error) {
	res := newResult()
	heap0 := liveHeap()
	dir, err := scratchDir(o, "store")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set-up: generate the run and write it to a fresh store.
	var setups []float64
	calls := 0
	for i := 0; i < offlineSetups; i++ {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		runtime.GC()
		start := time.Now()
		store, err := tracestore.Open(dir, tracestore.Options{})
		if err != nil {
			return nil, err
		}
		d := newInputDigest()
		calls = 0
		var hashing time.Duration // the benchmark's own work, not set-up
		err = figure5(o.seed, offlineCalls, func(recs []probe.Record) {
			store.Insert(recs...)
			h := time.Now()
			for j := range recs {
				d.record(&recs[j])
			}
			calls += countCalls(recs)
			hashing += time.Since(h)
		})
		if cerr := store.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		setups = append(setups, since(start)-hashing.Seconds())
		if i > 0 && d.String() != res.digest {
			res.wrong("set-up %d generated %s, set-up 0 generated %s", i, d, res.digest)
		}
		res.digest = d.String()
	}
	res.e2e["setup_s"] = median(setups)

	// The chain IDs an analyst would copy from `causectl chains`.
	listing, err := causectl(o, res, "-store", dir, "chains")
	res.attempted++
	if err != nil {
		return nil, fmt.Errorf("causectl chains: %w", err)
	}
	ids := chainIDs(listing)
	if len(ids) == 0 {
		return nil, fmt.Errorf("causectl chains listed no chains:\n%s", listing)
	}
	// The chain listing stays resident through the measured jobs and counts
	// in peak_rss_mib; this is its share.
	res.note("input_heap_mib", "MiB", (float64(liveHeap())-float64(heap0))/(1<<20))

	rng := rand.New(rand.NewSource(o.seed))
	length := time.Duration(o.seconds) * time.Second
	untracedEnd := length
	if o.trace {
		untracedEnd = length / 2
	}
	var jobs, shows []float64
	var traced []analyzeTimes
	var events counter
	var rt0 runtimeSample
	tr := newTracer()
	rss := sampleRSS()
	begin := time.Now()
	for i := 0; i == 0 || time.Since(begin) < length || (o.trace && len(traced) == 0); i++ {
		tracing := o.trace && time.Since(begin) >= untracedEnd
		var jt *tracer
		if tracing {
			jt = tr
			if len(traced) == 0 {
				rt0 = sampleRuntime()
			}
		}
		// Reconstruction time depends on how much garbage the heap holds
		// when it starts, so every job starts from a collected heap.
		runtime.GC()
		g, at, err := analyzeJob(dir, jt, &events)
		if err != nil {
			return nil, err
		}
		res.attempted++
		if !checkJob(res, g, ids, calls) {
			res.failed++
		}
		if tracing {
			traced = append(traced, at)
		} else {
			jobs = append(jobs, at.total.Seconds())
		}

		id := ids[rng.Intn(len(ids))]
		want, unique := expectedShow(g, id)
		g = analyzed{}
		runtime.GC()
		start := time.Now()
		out, err := causectl(o, res, "-store", dir, "show", id)
		end := time.Now()
		res.attempted++
		switch {
		case err != nil:
			// An ambiguous prefix (uuid.Short collisions) lands here.
			res.failed++
			fmt.Fprintf(os.Stderr, "perfbench: causectl show %s: %v (unique prefix: %v)\n", id, err, unique)
		case !unique || !strings.HasPrefix(out, want):
			res.failed++
			res.wrong("causectl show %s printed a tree that differs from the reconstruction", id)
		}
		if tracing {
			tr.add(span{layer: "causectl", id: tr.id(), start: start, end: end})
		} else {
			shows = append(shows, durMs(end.Sub(start)))
		}
	}
	rt1 := sampleRuntime()
	res.peakRSSMiB = rss.end()
	res.note("host_steal_frac", "frac", rss.stealFrac)

	res.e2e["latency_p50_ms"] = median(shows)
	res.e2e["visible_p50_ms"] = 1000 * median(jobs)
	res.e2e["throughput_per_s"] = float64(calls) / median(jobs)
	res.note("analyze_s", "s", median(jobs))
	res.note("show_p50_ms", "ms", median(shows))
	res.note("calls", "count", float64(calls))
	res.note("chains", "count", float64(len(ids)))
	res.note("jobs", "count", float64(len(jobs)))
	if !o.trace {
		return res, nil
	}
	pick := func(f func(analyzeTimes) time.Duration) float64 {
		var xs []float64
		for _, t := range traced {
			xs = append(xs, f(t).Seconds())
		}
		return median(xs)
	}
	res.layer["tracestore.open_s"] = pick(func(t analyzeTimes) time.Duration { return t.open })
	res.layer["tracestore.events_us"] = events.meanNs() / 1000
	res.layer["tracestore.bytes_written"] = dirBytes(dir)
	res.layer["analysis.reconstruct_s"] = pick(func(t analyzeTimes) time.Duration { return t.reconstruct })
	res.layer["analysis.latency_s"] = pick(func(t analyzeTimes) time.Duration { return t.latency })
	res.layer["analysis.cpu_s"] = pick(func(t analyzeTimes) time.Duration { return t.cpu })
	res.layer["analysis.ccsg_s"] = pick(func(t analyzeTimes) time.Duration { return t.ccsg })
	res.layer["analysis.iface_stats_s"] = pick(func(t analyzeTimes) time.Duration { return t.iface })
	runtimeLayer(res, rt0, rt1, len(traced))
	overhead(res, 1000*median(jobs), 1000*pick(func(t analyzeTimes) time.Duration { return t.total }))
	return res, finishTrace(res, o, tr, len(traced), nil)
}

// analyzeTimes splits one characterization job by phase.
type analyzeTimes struct {
	open, reconstruct, latency, cpu, ccsg, iface, total time.Duration
}

// analyzed is a job's output.
type analyzed struct {
	g     *analysis.DSCG
	ccsg  *analysis.CCSG
	stats []analysis.InterfaceStat
}

// analyzeJob runs the paper's §3 characterization on the store: open it,
// rebuild the DSCG, attach latency (with O_F compensation) and CPU (SC/DC),
// build the CCSG, and compute per-interface quantiles. With a tracer each
// phase is a span, and each store read inside reconstruction a child span.
func analyzeJob(dir string, tr *tracer, events *counter) (analyzed, analyzeTimes, error) {
	var t analyzeTimes
	var a analyzed
	phase := func(d *time.Duration, layer string, id uint64, fn func()) {
		start := time.Now()
		fn()
		end := time.Now()
		*d = end.Sub(start)
		tr.add(span{layer: layer, id: id, start: start, end: end})
	}
	var store *tracestore.Store
	var err error
	begin := time.Now()
	phase(&t.open, "tracestore", tr.id(), func() { store, err = tracestore.Open(dir, tracestore.Options{}) })
	if err != nil {
		return a, t, err
	}
	defer store.Close()
	var src analysis.Source = store
	recID := tr.id()
	if tr != nil {
		src = timedSource{store, tr, recID, events}
	}
	phase(&t.reconstruct, "analysis", recID, func() { a.g = analysis.ReconstructParallel(src, 0) })
	phase(&t.latency, "analysis", tr.id(), a.g.ComputeLatency)
	phase(&t.cpu, "analysis", tr.id(), a.g.ComputeCPU)
	phase(&t.ccsg, "analysis", tr.id(), func() { a.ccsg = analysis.BuildCCSG(a.g) })
	phase(&t.iface, "analysis", tr.id(), func() { a.stats = analysis.InterfaceStats(a.g, runtime.GOMAXPROCS(0)) })
	t.total = time.Since(begin)
	return a, t, nil
}

// timedSource wraps the store's reads during a traced reconstruction.
type timedSource struct {
	s      *tracestore.Store
	tr     *tracer
	parent uint64
	events *counter
}

func (t timedSource) Chains() []uuid.UUID { return t.s.Chains() }

func (t timedSource) Events(chain uuid.UUID) []probe.Record {
	start := time.Now()
	recs := t.s.Events(chain)
	end := time.Now()
	t.events.add(end.Sub(start))
	t.tr.add(span{layer: "tracestore", id: t.tr.id(), parent: t.parent, chain: chain, start: start, end: end})
	return recs
}

func (t timedSource) ChildChain(parent uuid.UUID, seq uint64) (uuid.UUID, bool) {
	return t.s.ChildChain(parent, seq)
}

// checkJob compares a job's output with ground truth from the generator:
// one node per generated call, no anomalies or broken chains, root
// inclusive CPU equal to the CPU charged across all nodes, one tree per
// chain `causectl chains` listed, and every call counted once in the
// interface statistics. It reports whether the job passed.
func checkJob(res *result, a analyzed, ids []string, calls int) bool {
	ok := true
	bad := func(format string, args ...any) {
		res.wrong(format, args...)
		ok = false
	}
	if a.g.Nodes() != calls {
		bad("DSCG has %d nodes, the generator made %d calls", a.g.Nodes(), calls)
	}
	if len(a.g.Anomalies) > 0 || len(a.g.Broken) > 0 {
		bad("DSCG has %d anomalies and %d broken chains", len(a.g.Anomalies), len(a.g.Broken))
	}
	if len(a.g.Trees) != len(ids) {
		bad("DSCG has %d trees, causectl chains listed %d", len(a.g.Trees), len(ids))
	}
	charged := make(map[string]time.Duration)
	a.g.Walk(func(n *analysis.Node) {
		if n.HasCPU {
			charged[n.ServerProcType()] += n.SelfCPU
		}
	})
	total := a.g.TotalCPU()
	for k := range total {
		if _, ok := charged[k]; !ok {
			charged[k] = 0
		}
	}
	for k, v := range charged {
		if total[k] != v {
			bad("root inclusive CPU on %s is %v, nodes were charged %v", k, total[k], v)
		}
	}
	n := 0
	for _, s := range a.stats {
		n += s.Calls
	}
	if n != calls {
		bad("interface statistics count %d calls, the generator made %d", n, calls)
	}
	if a.ccsg.Nodes() == 0 {
		bad("CCSG is empty")
	}
	return ok
}

// chainIDs parses the CHAIN column of a `causectl chains` listing.
func chainIDs(listing string) []string {
	var ids []string
	for _, line := range strings.Split(listing, "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || f[0] == "CHAIN" || f[1] == "chain(s)" {
			continue
		}
		ids = append(ids, f[0])
	}
	return ids
}

// expectedShow renders what `causectl show <id>` must print first: the
// matching tree with its anomalies. unique is false when the prefix
// matches more than one tree.
func expectedShow(a analyzed, id string) (string, bool) {
	var match *analysis.Tree
	for _, t := range a.g.Trees {
		if strings.HasPrefix(t.Chain.String(), id) {
			if match != nil {
				return "", false
			}
			match = t
		}
	}
	if match == nil {
		return "", false
	}
	sub := &analysis.DSCG{Trees: []*analysis.Tree{match}}
	for _, an := range a.g.Anomalies {
		if an.Chain == match.Chain {
			sub.Anomalies = append(sub.Anomalies, an)
		}
	}
	return render.DSCGString(sub), true
}

// causectl runs the real binary and returns its standard output, recording
// its peak resident set.
func causectl(o opts, res *result, args ...string) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, o.causectl, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			res.childRSSMiB = max(res.childRSSMiB, float64(ru.Maxrss)/1024)
		}
	}
	if err != nil {
		return stdout.String(), fmt.Errorf("%w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return stdout.String(), nil
}
