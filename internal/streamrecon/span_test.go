package streamrecon

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"causeway/internal/logdb"
	"causeway/internal/probe"
	"causeway/internal/sampling"
)

// tickingClock advances a microsecond on every read, so no two records
// share an arrival time and the shed victim (the open chain with the
// oldest arrival) never ties. It is not safe for concurrent use.
type tickingClock struct{ now time.Time }

func (c *tickingClock) Now() time.Time {
	c.now = c.now.Add(time.Microsecond)
	return c.now
}

// spanStream builds a record stream that reaches every Append branch:
// complete and incomplete chains, nested calls, a oneway fork (a link
// record), and sibling roots issued on early chains after the rest of the
// stream — stragglers once those chains are evicted.
func spanStream(t *testing.T) []probe.Record {
	p, sink := newProbes(t, 11)
	ops := []probe.OpID{
		{Component: "c", Interface: "A", Operation: "x", Object: "o1"},
		{Component: "c", Interface: "B", Operation: "y", Object: "o2"},
	}
	var lasts []probe.Record // each chain's final record so far
	for i := 0; i < 40; i++ {
		op := ops[i%len(ops)]
		ctx := p.StubStart(op, false)
		if i%9 == 4 {
			// Incomplete: the callee never answers.
			p.Tunnel().Clear()
			continue
		}
		inner := p.SkelStart(op, ctx.Wire, false)
		if i%3 == 0 {
			child := ops[(i+1)%len(ops)]
			cctx := p.StubStart(child, false)
			p.StubEnd(cctx, p.SkelEnd(p.SkelStart(child, cctx.Wire, false)))
		}
		p.StubEnd(ctx, p.SkelEnd(inner))
		recs := sink.Snapshot()
		lasts = append(lasts, recs[len(recs)-1])
		p.Tunnel().Clear()
	}
	octx := p.StubStart(ops[0], true)
	p.StubEnd(octx, octx.Wire)
	p.SkelEnd(p.SkelStart(ops[0], octx.Wire, true))
	p.Tunnel().Clear()
	for _, last := range lasts[:12] {
		p.Tunnel().Store(ftlOf(last))
		oneCall(p, ops[1])
	}
	return sink.Snapshot()
}

// spanRun is what one assembler made of the stream.
type spanRun struct {
	ledger Ledger
	feed   []Completion
	events map[string][]probe.Record
	links  []probe.Record
}

// runSpans feeds recs to a fresh assembler in frames of the given sizes,
// through appendFrame, with identical clock advances and Ticks between
// frames on every run.
func runSpans(t *testing.T, recs []probe.Record, sizes []int, appendFrame func(*Assembler, []probe.Record)) spanRun {
	t.Helper()
	clock := &tickingClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
	store := logdb.NewStore()
	a, err := New(Config{
		Store:       store,
		Quiescence:  100 * time.Millisecond,
		StaleAfter:  time.Second,
		MaxBuffered: 40,
		Tail:        &sampling.TailPolicy{NormalRate: 0.5},
		FeedSize:    1024,
		Clock:       clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, off := 0, 0; off < len(recs); i++ {
		n := min(sizes[i], len(recs)-off)
		appendFrame(a, recs[off:off+n])
		off += n
		clock.now = clock.now.Add(40 * time.Millisecond)
		if i%3 == 2 {
			a.Tick()
		}
	}
	clock.now = clock.now.Add(2 * time.Second)
	a.Tick()
	a.FlushOpen()

	run := spanRun{ledger: checkLedger(t, a), events: make(map[string][]probe.Record), links: store.Links()}
	run.feed, _ = a.Feed(0, 0)
	// Tick walks open chains in map order, so feed positions and the
	// clock reads behind When differ between runs; compare the rest.
	for i := range run.feed {
		run.feed[i].ID, run.feed[i].When = 0, time.Time{}
	}
	sort.Slice(run.feed, func(i, j int) bool {
		fi, fj := run.feed[i], run.feed[j]
		if fi.Chain != fj.Chain {
			return fi.Chain.String() < fj.Chain.String()
		}
		return fi.Reason < fj.Reason
	})
	for _, c := range store.Chains() {
		run.events[c.String()] = store.Events(c)
	}
	return run
}

// TestAppendSpanMatchesAppend: one stream fed record by record through
// Append and frame by frame through AppendSpan yields the same ledger,
// the same completions and the same store, with backlog shedding, tail
// discards and stragglers to evicted chains in play.
func TestAppendSpanMatchesAppend(t *testing.T) {
	recs := spanStream(t)
	rng := rand.New(rand.NewSource(1))
	sizes := make([]int, len(recs))
	for i := range sizes {
		sizes[i] = 1 + rng.Intn(12)
	}
	perRecord := runSpans(t, recs, sizes, func(a *Assembler, frame []probe.Record) {
		for _, r := range frame {
			a.Append(r)
		}
	})
	perFrame := runSpans(t, recs, sizes, func(a *Assembler, frame []probe.Record) {
		a.AppendSpan(frame)
	})

	led := perRecord.ledger
	if led.Shed == 0 || led.Discarded == 0 || led.Persisted == 0 || led.Appended != uint64(len(recs)) {
		t.Fatalf("stream does not exercise shedding, discards and persistence: %+v", led)
	}
	reasons := map[string]int{}
	for _, c := range perRecord.feed {
		reasons[c.Reason]++
	}
	if reasons["shed"] == 0 || reasons["complete"] == 0 {
		t.Fatalf("completion reasons %v lack shed or complete chains", reasons)
	}
	if !reflect.DeepEqual(perRecord.ledger, perFrame.ledger) {
		t.Fatalf("ledgers differ: Append %+v, AppendSpan %+v", perRecord.ledger, perFrame.ledger)
	}
	if !reflect.DeepEqual(perRecord.feed, perFrame.feed) {
		t.Fatalf("completion feeds differ:\nAppend     %+v\nAppendSpan %+v", perRecord.feed, perFrame.feed)
	}
	if !reflect.DeepEqual(perRecord.events, perFrame.events) || !reflect.DeepEqual(perRecord.links, perFrame.links) {
		t.Fatal("stores differ between Append and AppendSpan")
	}
}
