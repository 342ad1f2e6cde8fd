package main

import (
	"os"
	"sync"
	"time"

	"causeway/internal/probe"
	"causeway/internal/streamrecon"
	"causeway/internal/telemetry"
	"causeway/internal/tracestore"
	"causeway/internal/uuid"
)

const (
	// quiescence is the assembler's completion window; freshness metrics
	// are reported net of it.
	quiescence = 50 * time.Millisecond
	// tickEvery is how often the collector drives the assembler.
	tickEvery = 5 * time.Millisecond
)

// completion is what the collector saw of one chain leaving the assembler.
type completion struct {
	count     int // how many times the chain completed (must be 1)
	when      time.Time
	reason    string
	persisted bool
}

// collector is the in-binary collection plane, wired as collectd wires its
// streaming mode: telemetry server → streamrecon assembler → tracestore.
// With a tracer it also wraps the assembler and the store in timing
// boundaries and remembers when each chain's last record arrived.
type collector struct {
	dir   string
	store *tracestore.Store
	asm   *streamrecon.Assembler
	srv   *telemetry.Server
	tr    *tracer

	appendT  counter // one crossing per record appended
	insertT  counter // counts records inserted, busy time of the batch inserts
	tickBusy time.Duration
	curTick  uint64 // span id of the Tick in progress
	openMax  int

	mu          sync.Mutex
	completions map[uuid.UUID]*completion
	lastArrival map[uuid.UUID]time.Time // traced runs only
	lags        []float64               // last arrival → complete, net of quiescence (ms)

	stop, done chan struct{}
	stopOnce   sync.Once
}

func newCollector(dir string, tr *tracer) (*collector, error) {
	store, err := tracestore.Open(dir, tracestore.Options{})
	if err != nil {
		return nil, err
	}
	c := &collector{
		dir: dir, store: store, tr: tr,
		completions: make(map[uuid.UUID]*completion),
		lastArrival: make(map[uuid.UUID]time.Time),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	var dst streamrecon.RecordStore = store
	if tr != nil {
		dst = timedStore{c}
	}
	c.asm, err = streamrecon.New(streamrecon.Config{
		Store:      dst,
		Quiescence: quiescence,
		OnComplete: c.complete,
	})
	if err != nil {
		store.Close()
		return nil, err
	}
	var sink probe.Sink = c.asm
	if tr != nil {
		sink = timedSink{c}
	}
	c.srv, err = telemetry.Listen("127.0.0.1:0", telemetry.ServerConfig{Sinks: []probe.Sink{sink}})
	if err != nil {
		store.Close()
		return nil, err
	}
	go c.tickLoop()
	return c, nil
}

func (c *collector) addr() string { return c.srv.Addr() }

func (c *collector) tickLoop() {
	defer close(c.done)
	t := time.NewTicker(tickEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		if c.tr == nil {
			c.asm.Tick()
		} else {
			id := c.tr.id()
			c.curTick = id
			start := time.Now()
			c.asm.Tick()
			end := time.Now()
			c.tickBusy += end.Sub(start)
			c.tr.add(span{layer: "streamrecon", id: id, start: start, end: end})
			c.openMax = max(c.openMax, c.asm.OpenChains())
		}
	}
}

// complete is the assembler's OnComplete callback.
func (c *collector) complete(comp streamrecon.Completion) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.completions[comp.Chain]
	if e == nil {
		e = &completion{when: comp.When, reason: comp.Reason, persisted: comp.Persisted}
		c.completions[comp.Chain] = e
	}
	e.count++
	if last, ok := c.lastArrival[comp.Chain]; ok {
		c.lags = append(c.lags, durMs(comp.When.Sub(last)-quiescence))
	}
}

// completion returns a copy of the chain's completion record.
func (c *collector) completion(chain uuid.UUID) (completion, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.completions[chain]
	if !ok {
		return completion{}, false
	}
	return *e, true
}

// arrival returns when the chain's last record reached the assembler
// (traced runs only).
func (c *collector) arrival(chain uuid.UUID) (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.lastArrival[chain]
	return t, ok
}

// stopTicks stops driving the assembler and waits for the tick loop to
// exit; the tick-side counters are stable afterwards.
func (c *collector) stopTicks() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
}

// completed reports how many distinct chains completed.
func (c *collector) completed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.completions)
}

// forget drops the benchmark's own per-chain bookkeeping, so a heap
// measurement sees only what the pipeline keeps.
func (c *collector) forget() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.completions, c.lastArrival, c.lags = nil, nil, nil
}

// close stops the tick loop and the server, closes the store, and removes
// its directory.
func (c *collector) close() error {
	c.stopTicks()
	c.srv.Close()
	err := c.store.Close()
	if rmErr := os.RemoveAll(c.dir); err == nil {
		err = rmErr
	}
	return err
}

// timedSink is the traced boundary between the telemetry server and the
// assembler.
type timedSink struct{ c *collector }

func (s timedSink) Append(r probe.Record) {
	start := time.Now()
	s.c.asm.Append(r)
	end := time.Now()
	s.c.appendT.add(end.Sub(start))
	if r.Kind == probe.KindEvent {
		s.c.mu.Lock()
		s.c.lastArrival[r.Chain] = end
		s.c.mu.Unlock()
	}
}

// timedStore is the traced boundary between the assembler and the store.
// Inserts run inside Tick on the tick goroutine, so the Tick in progress
// is their parent span.
type timedStore struct{ c *collector }

func (s timedStore) Insert(recs ...probe.Record) {
	start := time.Now()
	s.c.store.Insert(recs...)
	end := time.Now()
	s.c.insertT.n.Add(int64(len(recs)))
	s.c.insertT.ns.Add(int64(end.Sub(start)))
	s.c.tr.add(span{layer: "tracestore", id: s.c.tr.id(), parent: s.c.curTick, start: start, end: end})
}

// layerMetrics fills the collector-side per-layer metrics for a traced
// interval of the given wall length.
func (c *collector) layerMetrics(res *result, wall time.Duration) {
	led := c.asm.Ledger()
	st := c.srv.Stats()
	res.layer["streamrecon.append_ns"] = c.appendT.meanNs()
	res.layer["streamrecon.tick_busy_frac"] = c.tickBusy.Seconds() / wall.Seconds()
	res.layer["streamrecon.open_chains_max"] = float64(c.openMax)
	res.layer["streamrecon.ledger_appended"] = float64(led.Appended)
	res.layer["streamrecon.ledger_persisted"] = float64(led.Persisted)
	res.layer["streamrecon.ledger_discarded"] = float64(led.Discarded)
	res.layer["streamrecon.ledger_shed"] = float64(led.Shed)
	c.mu.Lock()
	res.layer["streamrecon.complete_lag_p50_ms"] = median(c.lags)
	c.mu.Unlock()
	res.layer["tracestore.insert_ns"] = c.insertT.meanNs()
	res.layer["tracestore.insert_busy_frac"] = float64(c.insertT.ns.Load()) / float64(wall)
	res.layer["tracestore.bytes_written"] = dirBytes(c.dir)
	if st.Batches > 0 {
		res.layer["telemetry.records_per_frame"] = float64(st.Records) / float64(st.Batches)
	}
	res.layer["telemetry.bad_frames"] = float64(st.BadFrames)
}

// checkLedger verifies the assembler's conservation invariant and that
// every sent record was persisted; it returns how many were not.
func (c *collector) checkLedger(res *result, sent uint64) int {
	led := c.asm.Ledger()
	if led.Appended != led.Persisted+led.Discarded+led.Shed+led.Buffered {
		res.wrong("assembler ledger does not balance: %+v", led)
	}
	if led.Appended != sent {
		res.wrong("assembler saw %d records, %d were sent", led.Appended, sent)
	}
	if led.Persisted > sent {
		res.wrong("assembler persisted %d records of %d sent", led.Persisted, sent)
		return 0
	}
	return int(sent - led.Persisted)
}
