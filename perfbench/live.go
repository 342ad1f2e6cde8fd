package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"
	"unsafe"

	"causeway"
	"causeway/internal/benchgen/instrecho"
	"causeway/internal/gls"
	"causeway/internal/probe"
	"causeway/internal/uuid"
)

const (
	liveRate     = 1500 // offered calls per second (Poisson)
	liveFireFrac = 0.1  // share of oneway Fire calls; the rest are sync Echo
	liveWorkers  = 16   // caller goroutines the generator hands calls to
	liveSetups   = 60   // set-ups per run; setup_s is their median
	// liveWarmUp of calls precedes every measured phase and is checked but
	// not measured: connections, buffers and the heap settle first.
	liveWarmUp = time.Second
)

// liveCall is one scheduled application call.
type liveCall struct {
	due     time.Duration // offset from the start of the phase
	fire    bool
	payload string
}

// liveSchedule draws the open-loop arrivals for a phase of the given
// length: exponential gaps at liveRate, the Echo/Fire mix, and payloads.
func liveSchedule(rng *rand.Rand, length time.Duration) []liveCall {
	const letters = "abcdefghijklmnopqrstuvwxyz0123456789"
	var calls []liveCall
	var t time.Duration
	for {
		t += time.Duration(rng.ExpFloat64() / liveRate * float64(time.Second))
		if t >= length {
			return calls
		}
		c := liveCall{due: t, fire: rng.Float64() < liveFireFrac}
		p := make([]byte, 16+rng.Intn(241))
		for i := range p {
			p[i] = letters[rng.Intn(len(letters))]
		}
		c.payload = string(p)
		calls = append(calls, c)
	}
}

// scheduleDigest hashes the schedules' due times, kinds and payloads.
func scheduleDigest(schedules ...[]liveCall) string {
	d := newInputDigest()
	for _, calls := range schedules {
		for _, c := range calls {
			var b [9]byte
			binary.LittleEndian.PutUint64(b[:], uint64(c.due))
			if c.fire {
				b[8] = 1
			}
			d.h.Write(b[:])
			d.h.Write([]byte(c.payload))
			d.n++
		}
	}
	return d.String()
}

// scheduleBytes is the memory the schedules and the samples taken of their
// calls occupy.
func scheduleBytes(schedules ...[]liveCall) float64 {
	var n uintptr
	for _, calls := range schedules {
		for _, c := range calls {
			n += unsafe.Sizeof(c) + unsafe.Sizeof(callSample{}) + uintptr(len(c.payload))
		}
	}
	return float64(n)
}

// echoServant implements the Echo interface.
type echoServant struct{}

func (echoServant) Echo(payload string) (string, error) { return payload, nil }
func (echoServant) Fire(string) error                   { return nil }
func (echoServant) Sum(values []int32) (int32, error) {
	var s int32
	for _, v := range values {
		s += v
	}
	return s, nil
}

// liveTopo is one deployment: a client and a server process over TCP, both
// instrumented with latency probes and shipping to one collector.
type liveTopo struct {
	col            *collector
	client, server *causeway.Process
	stub           *instrecho.EchoStub
}

func newLiveTopo(o opts, name string, tr *tracer) (*liveTopo, error) {
	dir, err := scratchDir(o, name)
	if err != nil {
		return nil, err
	}
	col, err := newCollector(dir, tr)
	if err != nil {
		return nil, err
	}
	t := &liveTopo{col: col}
	proc := func(name string) (*causeway.Process, error) {
		return causeway.NewProcess(causeway.ProcessConfig{
			Name: name, Instrumented: true, Monitor: causeway.MonitorLatency, ShipTo: col.addr(),
		})
	}
	if t.server, err = proc("echo-server"); err != nil {
		col.close()
		return nil, err
	}
	if t.client, err = proc("echo-client"); err != nil {
		t.close()
		return nil, err
	}
	if err := instrecho.RegisterEcho(t.server.ORB, "echo", "EchoComponent", echoServant{}); err != nil {
		t.close()
		return nil, err
	}
	ep, err := t.server.ORB.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.close()
		return nil, err
	}
	t.stub = instrecho.NewEchoStub(t.client.ORB.RefTo(ep, "echo", "Echo", "EchoComponent"))
	// The first call dials the server; set-up ends when it returns.
	t.client.NewChain()
	if _, err := t.stub.Echo("warm-up"); err != nil {
		t.close()
		return nil, fmt.Errorf("warm-up call: %w", err)
	}
	return t, nil
}

func (t *liveTopo) close() error {
	if t.client != nil {
		t.client.Close()
	}
	if t.server != nil {
		t.server.Close()
	}
	if t.col == nil {
		return nil
	}
	return t.col.close()
}

// callSample is what the benchmark observed of one call.
type callSample struct {
	due, sent, ret time.Time
	busy           time.Duration // inside the stub call
	chain          uuid.UUID
	err            error
}

// run drives the calls open loop: the generator goroutine wakes at each
// due time and hands the call to a caller goroutine, never waiting for a
// reply, so a stall delays later calls and shows in their latency.
func (t *liveTopo) run(calls []liveCall, tr *tracer) ([]callSample, error) {
	w, err := newWaker()
	if err != nil {
		return nil, err
	}
	defer w.close()
	samples := make([]callSample, len(calls))
	queue := make(chan int, len(calls)) // sized to the number of sends: the generator never blocks
	var wg sync.WaitGroup
	wg.Add(liveWorkers)
	for w := 0; w < liveWorkers; w++ {
		go func() {
			defer wg.Done()
			gls.Register()
			defer gls.Unregister()
			for i := range queue {
				t.call(calls[i], &samples[i], tr)
			}
		}()
	}
	t0 := time.Now()
	for i, c := range calls {
		due := t0.Add(c.due)
		if err = w.until(due); err != nil {
			break
		}
		samples[i].due, samples[i].sent = due, time.Now()
		queue <- i
	}
	close(queue)
	wg.Wait()
	return samples, err
}

func (t *liveTopo) call(c liveCall, s *callSample, tr *tracer) {
	t.client.NewChain()
	start := time.Now()
	if c.fire {
		s.err = t.stub.Fire(c.payload)
	} else {
		var out string
		out, s.err = t.stub.Echo(c.payload)
		if s.err == nil && out != c.payload {
			s.err = fmt.Errorf("echo returned %q for %q", out, c.payload)
		}
	}
	s.ret = time.Now()
	s.busy = s.ret.Sub(start)
	if f, ok := t.client.ORB.Probes().Tunnel().Current(); ok {
		s.chain = f.Chain
	}
	if tr != nil {
		root := tr.id()
		tr.add(span{layer: "orb", id: tr.id(), parent: root, chain: s.chain, start: start, end: s.ret})
		tr.add(span{layer: "loadgen", id: root, chain: s.chain, start: s.due, end: s.ret})
	}
}

// records snapshots both processes' own records — the ground truth.
func (t *liveTopo) records() []probe.Record {
	return append(t.client.Records(), t.server.Records()...)
}

// drain waits until every chain in the processes' records has completed
// at the collector, on two polls a quiescence window apart (a oneway
// callee may still be emitting when the callers return). It returns the
// final ground-truth records.
func (t *liveTopo) drain() []probe.Record {
	deadline := time.Now().Add(10 * time.Second)
	settled := 0
	for {
		recs := t.records()
		done := true
		for _, r := range recs {
			if r.Kind != probe.KindEvent {
				continue
			}
			if _, ok := t.col.completion(r.Chain); !ok {
				done = false
				break
			}
		}
		if done {
			settled++
		} else {
			settled = 0
		}
		if settled == 2 || time.Now().After(deadline) {
			return recs
		}
		time.Sleep(2 * quiescence)
	}
}

// check verifies the phase against ground truth and counts failed calls:
// every call succeeds, every chain completes exactly once, and the DSCG
// rebuilt from the collector's store equals the one rebuilt from the
// processes' records.
func (t *liveTopo) check(res *result, samples []callSample, recs []probe.Record) {
	// On this closed local topology no call may fail: an error or a
	// payload Echo did not return intact fails the run, not just the call.
	bad := 0
	var first error
	for i := range samples {
		s := &samples[i]
		if s.err == nil && s.chain == (uuid.UUID{}) {
			s.err = fmt.Errorf("no chain was current after the call")
		}
		if s.err != nil {
			res.failed++
			if bad++; first == nil {
				first = s.err
			}
			continue
		}
		if _, ok := t.col.completion(s.chain); !ok {
			res.failed++
		}
	}
	res.attempted += len(samples)
	if bad > 0 {
		res.wrong("%d of %d calls failed, the first with: %v", bad, len(samples), first)
	}

	chains := make(map[uuid.UUID]bool)
	for _, r := range recs {
		if r.Kind == probe.KindEvent {
			chains[r.Chain] = true
		}
	}
	t.col.mu.Lock()
	for ch, c := range t.col.completions {
		switch {
		case !chains[ch]:
			res.wrong("chain %s completed but no process recorded it", ch)
		case c.count != 1:
			res.wrong("chain %s completed %d times", ch, c.count)
		case c.reason != "complete" || !c.persisted:
			res.wrong("chain %s left the assembler as %q (persisted %v)", ch, c.reason, c.persisted)
		}
	}
	missing := 0
	for ch := range chains {
		if _, ok := t.col.completions[ch]; !ok {
			missing++
		}
	}
	t.col.mu.Unlock()
	if missing > 0 {
		res.wrong("%d of %d recorded chains never completed", missing, len(chains))
	}

	if err := t.col.store.Flush(); err != nil {
		res.wrong("flush store: %v", err)
		return
	}
	want, _ := dscgText(wallClockStore(recs))
	got, _ := dscgText(t.col.store)
	if got != want {
		res.wrong("DSCG from the collector's store differs from the processes' own (%d vs %d bytes)", len(got), len(want))
	}
}

// livePhase is the outcome of one measured phase.
type livePhase struct {
	samples []callSample // measured calls only
	lat     []float64    // due → return, ms
	fresh   []float64    // return → chain complete, net of quiescence, ms
	rate    float64      // successful calls per second
	issued  int          // calls the client made, set-up and warm-up included
	// latP50, freshP50 and seenP50 (due → chain complete, net of
	// quiescence) are the medians of per-second medians: a burst of load
	// from outside the benchmark moves a few seconds, not the figure.
	latP50, freshP50, seenP50 float64
}

// windowMedian is the median of the windows' medians.
func windowMedian(windows [][]float64) float64 {
	var meds []float64
	for _, w := range windows {
		if len(w) > 0 {
			meds = append(meds, median(w))
		}
	}
	return median(meds)
}

// measure runs the warm-up calls and then the measured ones as one open-loop
// schedule, checks all of them, and reports on the measured ones.
func (t *liveTopo) measure(res *result, warm, calls []liveCall, tr *tracer) (livePhase, error) {
	all := append(append([]liveCall(nil), warm...), calls...)
	for i := len(warm); i < len(all); i++ {
		all[i].due += liveWarmUp
	}
	rss := sampleRSS()
	samples, err := t.run(all, tr)
	res.peakRSSMiB = max(res.peakRSSMiB, rss.end())
	res.note("host_steal_frac", "frac", rss.stealFrac)
	if err != nil {
		return livePhase{}, err
	}
	recs := t.drain()
	t.col.stopTicks()
	t.check(res, samples, recs)
	p := livePhase{samples: samples[len(warm):], issued: len(all) + 1}
	ok := 0
	var latWin, freshWin, seenWin [][]float64 // per second of the phase
	for _, s := range p.samples {
		w := int(s.due.Sub(p.samples[0].due) / time.Second)
		for len(latWin) <= w {
			latWin, freshWin, seenWin = append(latWin, nil), append(freshWin, nil), append(seenWin, nil)
		}
		lat := durMs(s.ret.Sub(s.due))
		p.lat = append(p.lat, lat)
		latWin[w] = append(latWin[w], lat)
		if c, found := t.col.completion(s.chain); found && s.err == nil {
			fresh := durMs(c.when.Sub(s.ret) - quiescence)
			p.fresh = append(p.fresh, fresh)
			freshWin[w] = append(freshWin[w], fresh)
			seenWin[w] = append(seenWin[w], durMs(c.when.Sub(s.due)-quiescence))
			ok++
		}
	}
	p.latP50, p.freshP50, p.seenP50 = windowMedian(latWin), windowMedian(freshWin), windowMedian(seenWin)
	if n := len(p.samples); n > 1 {
		p.rate = float64(ok) / p.samples[n-1].ret.Sub(p.samples[0].due).Seconds()
	}
	return p, nil
}

// liveSetUps draws the schedule from the seed and deploys the topology n
// times, adding each set-up's time to setups, and checks that every draw
// gave the same inputs. It returns the last deployment and schedule.
func liveSetUps(o opts, res *result, n int, setups *[]float64) (*liveTopo, []liveCall, []liveCall, error) {
	length := time.Duration(o.seconds) * time.Second
	var warm, calls []liveCall
	var topo *liveTopo
	for i := 0; i < n; i++ {
		// Set-up allocates enough to trigger collections; starting each
		// from a collected heap keeps their number the same run to run.
		warm, calls = nil, nil
		runtime.GC()
		start := time.Now()
		rng := rand.New(rand.NewSource(o.seed))
		warm = liveSchedule(rng, liveWarmUp)
		calls = liveSchedule(rng, length)
		next, err := newLiveTopo(o, fmt.Sprintf("setup%d", len(*setups)), nil)
		if err != nil {
			if topo != nil {
				topo.close()
			}
			return nil, nil, nil, err
		}
		*setups = append(*setups, since(start))
		if topo != nil {
			if err := topo.close(); err != nil {
				next.close()
				return nil, nil, nil, err
			}
		}
		topo = next
		digest := scheduleDigest(warm, calls)
		if res.digest != "" && digest != res.digest {
			res.wrong("set-up %d drew %s, set-up 0 drew %s", len(*setups)-1, digest, res.digest)
		}
		res.digest = digest
	}
	return topo, warm, calls, nil
}

func runLive(o opts) (*result, error) {
	res := newResult()
	length := time.Duration(o.seconds) * time.Second
	// Half the set-ups run before the measured phase and half after it, so
	// their median spans more of the host's slower and faster stretches.
	var setups []float64
	topo, warm, calls, err := liveSetUps(o, res, liveSetups/2, &setups)
	if err != nil {
		return nil, err
	}
	// The schedule and the per-call samples stay resident through the
	// measured phase and count in peak_rss_mib; this is their share.
	res.note("input_heap_mib", "MiB", scheduleBytes(warm, calls)/(1<<20))

	if !o.trace {
		p, err := topo.measure(res, warm, calls, nil)
		if cerr := topo.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		liveE2E(res, p)
		if topo, _, _, err = liveSetUps(o, res, liveSetups-liveSetups/2, &setups); err != nil {
			return nil, err
		}
		if err := topo.close(); err != nil {
			return nil, err
		}
		res.e2e["setup_s"] = median(setups)
		return res, nil
	}

	// Traced run: the first half untraced on the set-up topology, the
	// second half traced on a fresh one.
	half := length / 2
	var first, second []liveCall
	for _, c := range calls {
		if c.due < half {
			first = append(first, c)
		} else {
			c.due -= half
			second = append(second, c)
		}
	}
	untraced, err := topo.measure(res, warm, first, nil)
	if cerr := topo.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	if topo, err = newLiveTopo(o, "traced", tr); err != nil {
		return nil, err
	}
	defer topo.close()
	rt0 := sampleRuntime()
	stopSampling := sampleShippers(res, topo)
	traced, err := topo.measure(res, warm, second, tr)
	stopSampling()
	if err != nil {
		return nil, err
	}
	rt1 := sampleRuntime()
	runtimeLayer(res, rt0, rt1, len(second))
	liveLayers(res, topo, traced, liveWarmUp+half)
	overhead(res, untraced.latP50, traced.latP50)
	if err := finishTrace(res, o, tr, len(second), map[string]time.Duration{
		"streamrecon": time.Duration(topo.col.appendT.ns.Load()),
	}); err != nil {
		return nil, err
	}

	// Heap the collection plane (server, assembler, store index) gains per
	// completed chain: what the used collector holds minus what an empty
	// one holds. The processes, the spans and the benchmark's per-chain
	// maps are dropped first.
	chains := topo.col.completed()
	topo.client.Close()
	topo.server.Close()
	topo.client, topo.server, topo.stub = nil, nil, nil
	tr.drop()
	topo.col.tr = nil
	topo.col.forget()
	used, err := heldBy(&topo.col)
	if err != nil {
		return nil, err
	}
	dir, err := scratchDir(o, "empty")
	if err != nil {
		return nil, err
	}
	empty, err := newCollector(dir, nil)
	if err != nil {
		return nil, err
	}
	base, err := heldBy(&empty)
	if err != nil {
		return nil, err
	}
	if chains > 0 {
		res.layer["streamrecon.heap_bytes_per_chain"] = (used - base) / float64(chains)
	}
	return res, nil
}

// heldBy closes the collector *c, clears *c, and returns the live heap the
// collector held: the heap with it open minus the heap once it is closed
// and unreachable. Both are taken at the same point of the run, so
// whatever else the benchmark holds cancels out.
func heldBy(c **collector) (float64, error) {
	open := liveHeap()
	err := (*c).close()
	*c = nil
	return float64(open) - float64(liveHeap()), err
}

// liveE2E fills the end-to-end metrics of an untraced phase. The call's
// own latency (due → return, call_p50_us) is printed but not gated: on a
// shared 2-vCPU host its run-to-run spread reached 29% of its median, more
// than any useful bound, so latency_p50_ms is the latency of seeing the
// call in the monitor: due → chain completed, net of quiescence.
func liveE2E(res *result, p livePhase) {
	res.e2e["latency_p50_ms"] = p.seenP50
	res.e2e["visible_p50_ms"] = p.freshP50
	res.e2e["throughput_per_s"] = p.rate
	res.note("call_p50_us", "us", 1000*median(p.lat))
	res.note("call_p99_us", "us", 1000*quantile(p.lat, 0.99))
	res.note("fresh_p50_ms", "ms", median(p.fresh))
	res.note("fresh_p99_ms", "ms", quantile(p.fresh, 0.99))
	res.note("calls", "count", float64(len(p.samples)))
}

// liveLayers fills the per-layer metrics of the traced phase.
func liveLayers(res *result, t *liveTopo, p livePhase, length time.Duration) {
	var late, busy, transit []float64
	for _, s := range p.samples {
		late = append(late, durMs(s.sent.Sub(s.due)))
		busy = append(busy, durUs(s.busy))
		if at, ok := t.col.arrival(s.chain); ok && s.err == nil {
			transit = append(transit, durMs(at.Sub(s.ret)))
		}
	}
	n := len(p.samples)
	res.layer["loadgen.late_p99_ms"] = quantile(late, 0.99)
	if n > 1 {
		res.layer["loadgen.achieved_rate"] = float64(n-1) / p.samples[n-1].sent.Sub(p.samples[0].sent).Seconds()
	}
	res.layer["orb.call_busy_p50_us"] = median(busy)
	res.layer["loadgen.wait_us"] = 1000*median(p.lat) - median(busy)
	res.layer["telemetry.transit_p50_ms"] = median(transit)
	var text bytes.Buffer
	for _, proc := range []*causeway.Process{t.client, t.server} {
		text.Reset()
		proc.Metrics().WriteText(&text)
		res.layer["probe.records_per_call"] += counterValue(text.Bytes(), "causeway_probe_ring_records_total") / float64(p.issued)
		res.layer["probe.ring_dropped"] += counterValue(text.Bytes(), "causeway_probe_ring_dropped_total")
		res.layer["telemetry.shipper_dropped"] += float64(proc.ShipperStats().Dropped)
	}
	t.col.layerMetrics(res, length)
}

// sampleShippers records the largest shipper backlog either process shows
// while the phase runs. The returned function stops sampling.
func sampleShippers(res *result, t *liveTopo) func() {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(tickEvery)
		defer tick.Stop()
		peak := 0
		for {
			select {
			case <-stop:
				res.layer["telemetry.shipper_buffered_max"] = float64(peak)
				return
			case <-tick.C:
				peak = max(peak, t.client.ShipperStats().Buffered, t.server.ShipperStats().Buffered)
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

// overhead reports the traced-minus-untraced difference of the workload's
// per-operation latency.
func overhead(res *result, untraced, traced float64) {
	res.layer["tracing.overhead_ms"] = traced - untraced
	if untraced > 0 {
		res.layer["tracing.overhead_frac"] = (traced - untraced) / untraced
	}
}
