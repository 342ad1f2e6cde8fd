package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"causeway/internal/uuid"
)

// span is one traced call into a layer, made from the benchmark's own code
// around the program's public functions.
type span struct {
	layer      string
	id, parent uint64    // parent 0 means a root span
	chain      uuid.UUID // the causal chain the work belongs to, when known
	start, end time.Time
}

// counter aggregates a boundary crossed too often to keep one span per
// crossing (one per record): how many crossings, and the time inside.
type counter struct {
	n, ns atomic.Int64
}

func (c *counter) add(d time.Duration) {
	c.n.Add(1)
	c.ns.Add(int64(d))
}

// meanNs is the mean time per crossing.
func (c *counter) meanNs() float64 {
	if n := c.n.Load(); n > 0 {
		return float64(c.ns.Load()) / float64(n)
	}
	return 0
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	next atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{} }

// id allocates a span id, so children can name a parent that has not
// ended yet. It returns 0 on a nil tracer.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// add records a finished span.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// drop releases the spans, once they have been written out.
func (t *tracer) drop() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// selfTimes derives each layer's self time: a span's duration minus the
// part of its interval its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[uint64][]span)
	for _, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.layer] += s.end.Sub(s.start) - covered(s, children[s.id])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	type interval struct{ s, e time.Time }
	var ivs []interval
	for _, k := range kids {
		s, e := k.start, k.end
		if s.Before(parent.start) {
			s = parent.start
		}
		if e.After(parent.end) {
			e = parent.end
		}
		if e.After(s) {
			ivs = append(ivs, interval{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s.Before(ivs[j].s) })
	var total time.Duration
	for i := 0; i < len(ivs); {
		s, e := ivs[i].s, ivs[i].e
		for i++; i < len(ivs) && !ivs[i].s.After(e); i++ {
			if ivs[i].e.After(e) {
				e = ivs[i].e
			}
		}
		total += e.Sub(s)
	}
	return total
}

// write dumps the spans as tab-separated lines, times in nanoseconds from
// the first span's start.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var t0 time.Time
	for _, s := range t.spans {
		if t0.IsZero() || s.start.Before(t0) {
			t0 = s.start
		}
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "layer\tid\tparent\tchain\tstart_ns\tend_ns")
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%s\t%d\t%d\t%s\t%d\t%d\n", s.layer, s.id, s.parent, s.chain,
			s.start.Sub(t0).Nanoseconds(), s.end.Sub(t0).Nanoseconds())
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfLayers lists the layers whose self time a traced run reports.
var selfLayers = []string{"loadgen", "orb", "telemetry", "streamrecon", "tracestore", "analysis"}

// finishTrace reports per-op self time for every layer (spans plus the
// aggregated per-record counters charged to extra), writes the spans out,
// and prints where they went.
func finishTrace(res *result, o opts, t *tracer, ops int, extra map[string]time.Duration) error {
	self := t.selfTimes()
	for l, d := range extra {
		self[l] += d
	}
	for _, l := range selfLayers {
		if ops > 0 {
			res.layer[l+".self_us_per_op"] = durUs(self[l]) / float64(ops)
		}
	}
	path := filepath.Join(o.work, fmt.Sprintf("spans-%s-seed%d.tsv", o.workload, o.seed))
	if err := t.write(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(t.spans), path)
	return nil
}
