package analysis_test

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"causeway/internal/analysis"
	"causeway/internal/ftl"
	"causeway/internal/logdb"
	"causeway/internal/probe"
	"causeway/internal/render"
	"causeway/internal/uuid"
)

// restrict returns the part of g that belongs to the given chains: their
// trees, anomalies and broken invocations, in g's order.
func restrict(g *analysis.DSCG, chains []uuid.UUID) *analysis.DSCG {
	in := make(map[uuid.UUID]bool, len(chains))
	for _, c := range chains {
		in[c] = true
	}
	out := &analysis.DSCG{}
	for _, t := range g.Trees {
		if in[t.Chain] {
			out.Trees = append(out.Trees, t)
		}
	}
	for _, a := range g.Anomalies {
		if in[a.Chain] {
			out.Anomalies = append(out.Anomalies, a)
		}
	}
	for _, b := range g.Broken {
		if in[b.Chain] {
			out.Broken = append(out.Broken, b)
		}
	}
	return out
}

// renderMetered renders g (latency and CPU already computed) as text plus
// its CCSG, which carries the descendant CPU the text omits.
func renderMetered(t *testing.T, g *analysis.DSCG) string {
	t.Helper()
	var buf bytes.Buffer
	if err := render.DSCGText(&buf, g, -1, 0); err != nil {
		t.Fatal(err)
	}
	if err := render.CCSGXML(&buf, analysis.BuildCCSG(g)); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// assertComponentsExact is the per-tree reconstruction contract: for every
// tree of the full DSCG, reconstructing only its link component yields
// exactly the full DSCG restricted to that component — same trees, nodes,
// latency, CPU, anomalies and broken invocations, byte for byte.
func assertComponentsExact(t *testing.T, db *logdb.Store, workers int) int {
	t.Helper()
	full := analysis.ReconstructParallel(db, workers)
	full.ComputeLatency()
	full.ComputeCPU()
	links := db.Links()
	for _, tree := range full.Trees {
		comp := analysis.LinkComponent(links, tree.Chain)
		sub := analysis.ReconstructChains(db, comp, workers)
		sub.ComputeLatency()
		sub.ComputeCPU()
		want := renderMetered(t, restrict(full, comp))
		if got := renderMetered(t, sub); got != want {
			t.Fatalf("chain %s: component reconstruction diverges from the full DSCG\n got:\n%s\nwant:\n%s", tree.Chain, got, want)
		}
	}
	return len(full.Trees)
}

// TestLinkComponentReconstructionRandom runs the contract over random
// call trees through the real probes, with latency or CPU armed, intact
// and with records randomly lost — lost links orphan callee chains, lost
// events break or corrupt chains.
func TestLinkComponentReconstructionRandom(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		aspects := probe.AspectLatency
		if seed%2 == 0 {
			aspects = probe.AspectCPU
		}
		recs := analysis.RandomRunRecords(t, seed, 6, aspects)
		r := rand.New(rand.NewSource(seed))
		lossy := logdb.NewStore()
		for _, rec := range recs {
			if r.Intn(12) != 0 {
				lossy.Insert(rec)
			}
		}
		intact := logdb.NewStore()
		intact.Insert(recs...)
		if assertComponentsExact(t, intact, 1+int(seed%3)) == 0 {
			t.Fatalf("seed %d: no trees", seed)
		}
		assertComponentsExact(t, lossy, 1+int(seed%3))
	}
}

var handWall = time.Unix(1_700_000_000, 0)

func hev(chain uuid.UUID, seq uint64, e ftl.Event, op string, oneway bool) probe.Record {
	r := probe.Record{
		Kind: probe.KindEvent, Process: "p1", Thread: 1, Chain: chain, Seq: seq, Event: e, Oneway: oneway,
		Op:           probe.OpID{Component: "c", Interface: "I", Operation: op, Object: "o"},
		LatencyArmed: true,
	}
	r.WallStart = handWall.Add(time.Duration(seq) * time.Millisecond)
	r.WallEnd = r.WallStart.Add(10 * time.Microsecond)
	return r
}

func hlink(parent uuid.UUID, seq uint64, child uuid.UUID) probe.Record {
	return probe.Record{Kind: probe.KindLink, LinkParent: parent, LinkParentSeq: seq, LinkChild: child}
}

// forkRoot is a sync root op whose body forks oneway child at seq 3.
func forkRoot(chain uuid.UUID, op, child string) []probe.Record {
	return []probe.Record{
		hev(chain, 1, ftl.StubStart, op, false),
		hev(chain, 2, ftl.SkelStart, op, false),
		hev(chain, 3, ftl.StubStart, child, true),
		hev(chain, 4, ftl.StubEnd, child, true),
		hev(chain, 5, ftl.SkelEnd, op, false),
		hev(chain, 6, ftl.StubEnd, op, false),
	}
}

// callee is a oneway callee-side chain for op.
func callee(chain uuid.UUID, op string) []probe.Record {
	return []probe.Record{
		hev(chain, 1, ftl.SkelStart, op, true),
		hev(chain, 2, ftl.SkelEnd, op, true),
	}
}

// handBuiltRecords is a store exercising every stitching edge
// case: nested oneways, an orphan callee chain, two links (one of them
// repeated) to one child, forks with no link or with a broken stub, a
// link to a chain that is not a callee side, a link to a chain with no
// events, and a chain that opens with an impossible transition. Chain
// ids are chosen so orphan and parent trees interleave in sorted order.
func handBuiltRecords() []probe.Record {
	id := func(b0, b1 byte) uuid.UUID { return uuid.UUID{0: b0, 1: b1, 15: 0x5a} }
	var recs []probe.Record
	add := func(rs ...probe.Record) { recs = append(recs, rs...) }

	// Nested oneways: A forks X, X's body forks Y.
	a, x, y := id(0x50, 1), id(0x10, 2), id(0x90, 3)
	add(forkRoot(a, "a", "b")...)
	add(hlink(a, 3, x))
	add(hev(x, 1, ftl.SkelStart, "b", true),
		hev(x, 2, ftl.StubStart, "c", true),
		hev(x, 3, ftl.StubEnd, "c", true),
		hev(x, 4, ftl.SkelEnd, "b", true))
	add(hlink(x, 2, y))
	add(callee(y, "c")...)

	// Orphan callee chain, sorting before every parent tree.
	add(callee(id(0x01, 4), "d")...)

	// Two parents (one link repeated) claim one child.
	p1, p2, q := id(0x30, 5), id(0x31, 6), id(0x70, 7)
	add(forkRoot(p1, "e", "f")...)
	add(forkRoot(p2, "e", "f")...)
	add(hlink(p2, 3, q), hlink(p1, 3, q), hlink(p1, 3, q))
	add(callee(q, "f")...)

	// A fork whose link was never recorded, and a stub that died.
	b := id(0x50, 8)
	add(hev(b, 1, ftl.StubStart, "g", true), hev(b, 2, ftl.StubEnd, "g", true))
	add(hev(id(0x50, 9), 1, ftl.StubStart, "h", true))

	// A link to a chain that is a root of its own, and one to nothing.
	p3, r, p4 := id(0x60, 10), id(0x61, 11), id(0x62, 12)
	add(forkRoot(p3, "i", "j")...)
	add(hlink(p3, 3, r))
	add(hev(r, 1, ftl.StubStart, "k", false), hev(r, 2, ftl.SkelStart, "k", false),
		hev(r, 3, ftl.SkelEnd, "k", false), hev(r, 4, ftl.StubEnd, "k", false))
	add(forkRoot(p4, "l", "m")...)
	add(hlink(p4, 3, id(0xee, 13)))

	// An impossible opening transition, then a valid call.
	n := id(0x50, 14)
	add(hev(n, 1, ftl.StubEnd, "n", false),
		hev(n, 2, ftl.StubStart, "o", false), hev(n, 3, ftl.SkelStart, "o", false),
		hev(n, 4, ftl.SkelEnd, "o", false), hev(n, 5, ftl.StubEnd, "o", false))
	return recs
}

func TestLinkComponentReconstructionHandBuilt(t *testing.T) {
	db := logdb.NewStore()
	db.Insert(handBuiltRecords()...)
	for _, workers := range []int{1, 2, 4} {
		if n := assertComponentsExact(t, db, workers); n < 8 {
			t.Fatalf("hand-built store reconstructs to %d trees, want at least 8", n)
		}
	}
	g := analysis.ReconstructParallel(db, 1)
	if len(g.Anomalies) < 4 || len(g.Broken) == 0 {
		t.Fatalf("hand-built store lost its edge cases: %d anomalies, %d broken", len(g.Anomalies), len(g.Broken))
	}
}

func TestLinkComponentClosure(t *testing.T) {
	c := func(b byte) uuid.UUID { return uuid.UUID{0: b} }
	links := []probe.Record{hlink(c(1), 3, c(2)), hlink(c(2), 5, c(3)), hlink(c(4), 3, c(3)), hlink(c(8), 1, c(9))}
	got := analysis.LinkComponent(links, c(4))
	want := []uuid.UUID{c(1), c(2), c(3), c(4)}
	if len(got) != len(want) {
		t.Fatalf("component of 4: %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("component of 4: %v, want %v", got, want)
		}
	}
	if got := analysis.LinkComponent(links, c(7)); len(got) != 1 || got[0] != c(7) {
		t.Fatalf("unlinked chain's component: %v", got)
	}
}
