package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"causeway/internal/collector"
	"causeway/internal/ftl"
	"causeway/internal/logdb"
	"causeway/internal/probe"
	"causeway/internal/tracestore"
	"causeway/internal/uuid"
	"causeway/internal/workload"
)

// showFull is the reference `show`: reconstruct every chain in the store,
// then pick the tree. `show` must print exactly this while reconstructing
// only the prefix's link component.
func showFull(src source, want string) (string, error) {
	var buf bytes.Buffer
	err := showTree(&buf, reconstruct(src, src.Chains(), 0), strings.ToLower(want))
	return buf.String(), err
}

func openStore(t testing.TB, dir string) *tracestore.Store {
	t.Helper()
	ts, err := tracestore.Open(dir, tracestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ts.Close() })
	return ts
}

func loadLogs(t testing.TB, glob string) *logdb.Store {
	t.Helper()
	db := logdb.NewStore()
	if _, _, err := collector.FromGlob(db, glob); err != nil {
		t.Fatal(err)
	}
	return db
}

// assertShowMatchesFull runs `show` for each query against both sources
// and compares output and error with the full-reconstruction reference.
func assertShowMatchesFull(t *testing.T, storeDir, logGlob string, queries []string) {
	t.Helper()
	sources := []struct {
		flag, arg string
		src       source
	}{
		{"-store", storeDir, openStore(t, storeDir)},
		{"-logs", logGlob, loadLogs(t, logGlob)},
	}
	for _, s := range sources {
		for _, q := range queries {
			want, wantErr := showFull(s.src, q)
			var got bytes.Buffer
			gotErr := run([]string{s.flag, s.arg, "show", q}, &got)
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s show %s: error %v, full reconstruction gives %v", s.flag, q, gotErr, wantErr)
			}
			if got.String() != want {
				t.Fatalf("%s show %s diverges from the full reconstruction\n got:\n%s\nwant:\n%s", s.flag, q, got.String(), want)
			}
		}
	}
}

// TestShowMatchesFullReconstruction: `show <full uuid>` prints every tree
// of the fixture byte-identically to the full-reconstruction rendering,
// from a trace store and from raw per-process logs.
func TestShowMatchesFullReconstruction(t *testing.T) {
	fx := buildFixture(t)
	db := loadLogs(t, fx.logGlob)
	full := reconstruct(db, db.Chains(), 1)
	if len(full.Trees) < 20 {
		t.Fatalf("fixture reconstructs to %d trees", len(full.Trees))
	}
	var queries []string
	for _, tree := range full.Trees {
		queries = append(queries, tree.Chain.String())
	}
	assertShowMatchesFull(t, fx.storeDir, fx.logGlob, queries)
}

func showEv(chain uuid.UUID, seq uint64, e ftl.Event, op string, oneway bool) probe.Record {
	wall := time.Unix(1_700_000_000, 0).Add(time.Duration(seq) * time.Millisecond)
	return probe.Record{
		Kind: probe.KindEvent, Process: "p1", Thread: 1, Chain: chain, Seq: seq, Event: e, Oneway: oneway,
		Op:           probe.OpID{Component: "c", Interface: "IShow", Operation: op, Object: "o"},
		LatencyArmed: true, WallStart: wall, WallEnd: wall.Add(10 * time.Microsecond),
	}
}

// writeSources stores recs as a trace store and as one .ftlog file.
func writeSources(t *testing.T, recs []probe.Record) (storeDir, logGlob string) {
	t.Helper()
	storeDir = filepath.Join(t.TempDir(), "store")
	ts, err := tracestore.Open(storeDir, tracestore.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts.Insert(recs...)
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	logDir := t.TempDir()
	f, err := os.Create(filepath.Join(logDir, "p1.ftlog"))
	if err != nil {
		t.Fatal(err)
	}
	sink := probe.NewStreamSink(f)
	for _, r := range recs {
		sink.Append(r)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return storeDir, filepath.Join(logDir, "*.ftlog")
}

// TestShowPrefixResolution pins prefix matching to the full
// reconstruction: a stitched callee chain matches no tree, an orphan
// callee tree sorts after parent trees in the ambiguity error, and
// unknown or over-long prefixes match nothing.
func TestShowPrefixResolution(t *testing.T) {
	id := func(b0, b1 byte) uuid.UUID { return uuid.UUID{0: b0, 1: b1, 15: 7} }
	parent, child := id(0xab, 0x20), id(0xab, 0x10)
	orphan, root := id(0xcd, 0x10), id(0xcd, 0x20)
	recs := []probe.Record{
		// parent forks child (stitched beneath it); both share "ab".
		showEv(parent, 1, ftl.StubStart, "run", false),
		showEv(parent, 2, ftl.SkelStart, "run", false),
		showEv(parent, 3, ftl.StubStart, "post", true),
		showEv(parent, 4, ftl.StubEnd, "post", true),
		showEv(parent, 5, ftl.SkelEnd, "run", false),
		showEv(parent, 6, ftl.StubEnd, "run", false),
		{Kind: probe.KindLink, LinkParent: parent, LinkParentSeq: 3, LinkChild: child},
		showEv(child, 1, ftl.SkelStart, "post", true),
		showEv(child, 2, ftl.SkelEnd, "post", true),
		// An unclaimed callee chain sorting before a root chain: "cd".
		showEv(orphan, 1, ftl.SkelStart, "lost", true),
		showEv(orphan, 2, ftl.SkelEnd, "lost", true),
		showEv(root, 1, ftl.StubStart, "solo", false),
		showEv(root, 2, ftl.SkelStart, "solo", false),
		showEv(root, 3, ftl.SkelEnd, "solo", false),
		showEv(root, 4, ftl.StubEnd, "solo", false),
	}
	storeDir, logGlob := writeSources(t, recs)
	queries := []string{
		"ab", "AB", child.String(), child.String()[:12], parent.String(),
		"cd", "cd1", orphan.String(), root.String(),
		"ee", "", parent.String() + "0",
	}
	assertShowMatchesFull(t, storeDir, logGlob, queries)

	err := run([]string{"-store", storeDir, "show", "cd"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), root.String()+" and "+orphan.String()) {
		t.Fatalf("ambiguous prefix error %v, want the root tree named before the orphan", err)
	}
	if err := run([]string{"-store", storeDir, "show", child.String()}, &bytes.Buffer{}); err == nil {
		t.Fatal("show resolved a chain stitched beneath its parent to a tree of its own")
	}
}

// TestChainsPrintsUniquePrefixes: every id `chains` prints is the
// shortest prefix (at least 8 characters) that no other chain in the
// store shares, and `show` resolves it.
func TestChainsPrintsUniquePrefixes(t *testing.T) {
	fx := buildFixture(t)
	var listing bytes.Buffer
	if err := run([]string{"-store", fx.storeDir, "chains"}, &listing); err != nil {
		t.Fatal(err)
	}
	var all []string
	for _, c := range openStore(t, fx.storeDir).Chains() {
		all = append(all, c.String())
	}
	matches := func(p string) int {
		n := 0
		for _, id := range all {
			if strings.HasPrefix(id, p) {
				n++
			}
		}
		return n
	}
	lines := strings.Split(strings.TrimSpace(listing.String()), "\n")
	rows := lines[1 : len(lines)-1]
	if len(rows) < 20 {
		t.Fatalf("listing has %d rows", len(rows))
	}
	longer := 0
	for _, line := range rows {
		p := strings.Fields(line)[0]
		if len(p) < minPrefix || matches(p) != 1 {
			t.Fatalf("listed id %q: %d characters, matches %d chains", p, len(p), matches(p))
		}
		if len(p) > minPrefix {
			longer++
			if matches(p[:len(p)-1]) == 1 {
				t.Fatalf("listed id %q is longer than it needs to be", p)
			}
		}
		if err := run([]string{"-store", fx.storeDir, "show", p}, &bytes.Buffer{}); err != nil {
			t.Fatalf("show %s: %v", p, err)
		}
	}
	if longer == 0 {
		t.Fatal("fixture has no chains sharing 8 leading characters; the test proves nothing")
	}
}

// benchStore builds the fixed store the show benchmark reads: the same
// workload as tracestore's BenchmarkStoreOpen.
func benchStore(b *testing.B) string {
	b.Helper()
	sys, err := workload.Generate(workload.Config{Calls: 20000, Threads: 1, Seed: 7, Aspects: probe.AspectLatency})
	if err != nil {
		b.Fatal(err)
	}
	dir := filepath.Join(b.TempDir(), "store")
	ts, err := tracestore.Open(dir, tracestore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, sink := range sys.Sinks {
		ts.Insert(sink.Snapshot()...)
	}
	if err := ts.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

// BenchmarkShowOneChain times one `causectl show` query end to end: store
// open, prefix resolution, link-component reconstruction and rendering.
func BenchmarkShowOneChain(b *testing.B) {
	dir := benchStore(b)
	var listing bytes.Buffer
	if err := run([]string{"-store", dir, "chains"}, &listing); err != nil {
		b.Fatal(err)
	}
	id := strings.Fields(strings.Split(listing.String(), "\n")[1])[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run([]string{"-store", dir, "show", id}, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
