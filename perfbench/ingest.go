package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"causeway/internal/ftl"
	"causeway/internal/probe"
	"causeway/internal/telemetry"
	"causeway/internal/topology"
	"causeway/internal/uuid"
	"causeway/internal/workload"
)

const (
	ingestCalls  = 50000 // calls in the replayed Figure-5 stream
	ingestWindow = 4096  // records appended before waiting for the shipper to drain
	// ingestActive is how many chains the replayed stream interleaves: the
	// Figure-5 run's concurrent client threads (workload.Config's default
	// Threads), each of which has one call tree open at a time.
	ingestActive = 32
	ingestSetups = 3 // set-ups per run; setup_s is their median
)

// figure5 generates a Figure-5 run (the paper's cardinalities: 801 methods,
// 155 interfaces, 176 components, 4 processes) with one generator thread,
// which makes the record stream a function of the seed alone. It hands
// visit each process's records in process-name order, releasing each
// process's buffer first so only one copy is resident at a time.
func figure5(seed int64, calls int, visit func([]probe.Record)) error {
	sys, err := workload.Generate(workload.Config{
		Threads: 1, Calls: calls, Seed: seed, Aspects: probe.AspectLatency,
	})
	if err != nil {
		return err
	}
	procs := make([]string, 0, len(sys.Sinks))
	for p := range sys.Sinks {
		procs = append(procs, p)
	}
	sort.Strings(procs)
	for _, p := range procs {
		recs := sys.Sinks[p].Snapshot()
		sys.Sinks[p].Reset()
		visit(recs)
	}
	return nil
}

// countCalls counts invocations: each has exactly one stub-start record.
func countCalls(recs []probe.Record) int {
	n := 0
	for i := range recs {
		if recs[i].Kind == probe.KindEvent && recs[i].Event == ftl.StubStart {
			n++
		}
	}
	return n
}

// interleave orders the records as a collector would receive them from
// the Figure-5 deployment: each chain's records in seq order (a oneway link
// just before its child chain), with ingestActive chains in flight at once,
// taking one record from each in turn.
func interleave(recs []probe.Record) []probe.Record {
	byChain := make(map[uuid.UUID][]probe.Record)
	var links []probe.Record
	for _, r := range recs {
		if r.Kind == probe.KindLink {
			links = append(links, r)
			continue
		}
		byChain[r.Chain] = append(byChain[r.Chain], r)
	}
	chains := make([]uuid.UUID, 0, len(byChain))
	for c, rs := range byChain {
		chains = append(chains, c)
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Seq < rs[j].Seq })
	}
	sort.Slice(chains, func(i, j int) bool { return uuid.Compare(chains[i], chains[j]) < 0 })
	for _, l := range links {
		byChain[l.LinkChild] = append([]probe.Record{l}, byChain[l.LinkChild]...)
	}

	out := make([]probe.Record, 0, len(recs))
	var active [][]probe.Record
	next := 0
	for len(active) > 0 || next < len(chains) {
		for len(active) < ingestActive && next < len(chains) {
			active = append(active, byChain[chains[next]])
			next++
		}
		kept := active[:0]
		for _, a := range active {
			out = append(out, a[0])
			if len(a) > 1 {
				kept = append(kept, a[1:])
			}
		}
		active = kept
	}
	return out
}

// ingestRound is one replay of the whole stream into a fresh collector.
type ingestRound struct {
	col       *collector
	sent      uint64
	rate      float64   // records persisted per second
	visible   float64   // first append → all persisted (ms)
	windows   []float64 // append → shipped, per window (ms)
	shipWait  time.Duration
	bufferMax int
	dropped   uint64
}

// replay sends the stream through one shipper, closed loop: each window is
// appended only once the previous one has been acknowledged, so the
// shipper's ring never overflows.
func replay(o opts, name string, stream []probe.Record, tr *tracer) (*ingestRound, error) {
	dir, err := scratchDir(o, name)
	if err != nil {
		return nil, err
	}
	col, err := newCollector(dir, tr)
	if err != nil {
		return nil, err
	}
	r := &ingestRound{col: col}
	sh, err := telemetry.NewShipper(telemetry.ShipperConfig{
		Addr:    col.addr(),
		Process: topology.Process{ID: "replay", Processor: topology.Processor{ID: "replay-cpu", Type: "generic"}},
	})
	if err != nil {
		col.close()
		return nil, err
	}
	defer sh.Close()
	w, err := newWaker()
	if err != nil {
		col.close()
		return nil, err
	}
	defer w.close()
	if err := w.poll(func() bool { return sh.Stats().Connected }); err != nil {
		col.close()
		return nil, fmt.Errorf("shipper never connected: %w", err)
	}

	start := time.Now()
	for i := 0; i < len(stream); i += ingestWindow {
		batch := stream[i:min(i+ingestWindow, len(stream))]
		ws := time.Now()
		for _, rec := range batch {
			sh.Append(rec)
		}
		r.sent += uint64(len(batch))
		appended := time.Now()
		r.bufferMax = max(r.bufferMax, sh.Stats().Buffered)
		if err := w.poll(func() bool { return sh.Stats().Shipped >= r.sent }); err != nil {
			col.close()
			return nil, fmt.Errorf("shipper stalled at %d of %d records: %w", sh.Stats().Shipped, r.sent, err)
		}
		we := time.Now()
		r.windows = append(r.windows, durMs(we.Sub(ws)))
		r.shipWait += we.Sub(appended)
		if tr != nil {
			root := tr.id()
			tr.add(span{layer: "telemetry", id: tr.id(), parent: root, start: ws, end: appended})
			tr.add(span{layer: "telemetry", id: tr.id(), parent: root, start: appended, end: we})
			tr.add(span{layer: "loadgen", id: root, start: ws, end: we})
		}
	}
	if err := w.poll(func() bool { return col.asm.Ledger().Persisted >= r.sent }); err != nil {
		col.close()
		return nil, fmt.Errorf("collector persisted %d of %d records: %w", col.asm.Ledger().Persisted, r.sent, err)
	}
	done := time.Now()
	r.rate = float64(r.sent) / done.Sub(start).Seconds()
	r.visible = durMs(done.Sub(start))
	r.dropped = sh.Stats().Dropped
	col.stopTicks()
	return r, nil
}

func runIngest(o opts) (*result, error) {
	res := newResult()
	heap0 := liveHeap()
	var setups []float64
	var stream []probe.Record
	for i := 0; i < ingestSetups; i++ {
		stream = nil
		runtime.GC()
		start := time.Now()
		var recs []probe.Record
		if err := figure5(o.seed, ingestCalls, func(p []probe.Record) { recs = append(recs, p...) }); err != nil {
			return nil, err
		}
		stream = interleave(recs)
		setups = append(setups, since(start))
		d := newInputDigest()
		for j := range stream {
			d.record(&stream[j])
		}
		if i > 0 && d.String() != res.digest {
			res.wrong("set-up %d generated %s, set-up 0 generated %s", i, d, res.digest)
		}
		res.digest = d.String()
	}
	res.e2e["setup_s"] = median(setups)
	// The replayed stream stays resident through every round and counts in
	// peak_rss_mib; this is its share.
	res.note("input_heap_mib", "MiB", (float64(liveHeap())-float64(heap0))/(1<<20))

	length := time.Duration(o.seconds) * time.Second
	untracedEnd := length
	if o.trace {
		untracedEnd = length / 2
	}
	var rates, visible, windows, tracedWindows []float64
	var last *ingestRound
	var tr *tracer
	var rt0, rt1 runtimeSample
	rss := sampleRSS()
	begin := time.Now()
	for i := 0; i == 0 || time.Since(begin) < length || (o.trace && tr == nil); i++ {
		traced := o.trace && time.Since(begin) >= untracedEnd
		if last != nil {
			if err := last.col.close(); err != nil {
				return nil, err
			}
		}
		tr = nil
		if traced {
			tr = newTracer()
			rt0 = sampleRuntime()
		}
		r, err := replay(o, fmt.Sprintf("round%d", i), stream, tr)
		if err != nil {
			return nil, err
		}
		if traced {
			rt1 = sampleRuntime()
			tracedWindows = r.windows
		} else {
			rates = append(rates, r.rate)
			visible = append(visible, r.visible)
			windows = append(windows, r.windows...)
		}
		res.attempted += int(r.sent)
		res.failed += r.col.checkLedger(res, r.sent)
		if r.dropped > 0 {
			res.wrong("shipper dropped %d records in a closed loop", r.dropped)
		}
		last = r
	}
	res.peakRSSMiB = rss.end()
	res.note("host_steal_frac", "frac", rss.stealFrac)
	defer last.col.close()

	if err := last.col.store.Flush(); err != nil {
		return nil, err
	}
	// Ground truth: the DSCG of the generator's own records, built only
	// now so it is not resident during the measured rounds.
	want, _ := dscgText(wallClockStore(stream))
	got, _ := dscgText(last.col.store)
	if got != want {
		res.wrong("DSCG from the collector's store differs from the generator's (%d vs %d bytes)", len(got), len(want))
	}

	res.e2e["latency_p50_ms"] = median(windows)
	res.e2e["visible_p50_ms"] = median(visible)
	res.e2e["throughput_per_s"] = median(rates)
	res.note("ingest_rec_per_s", "1/s", median(rates))
	res.note("rounds", "count", float64(len(rates)))
	res.note("records_per_round", "count", float64(len(stream)))
	if !o.trace {
		return res, nil
	}
	wall := time.Duration(float64(last.sent) / last.rate * float64(time.Second))
	last.col.layerMetrics(res, wall)
	res.layer["loadgen.achieved_rate"] = last.rate
	res.layer["telemetry.shipper_dropped"] = float64(last.dropped)
	res.layer["telemetry.shipper_buffered_max"] = float64(last.bufferMax)
	res.layer["telemetry.ship_wait_us_per_op"] = durUs(last.shipWait) / float64(len(last.windows))
	runtimeLayer(res, rt0, rt1, len(last.windows))
	overhead(res, median(windows), median(tracedWindows))
	return res, finishTrace(res, o, tr, len(last.windows), map[string]time.Duration{
		"streamrecon": time.Duration(last.col.appendT.ns.Load()),
	})
}
