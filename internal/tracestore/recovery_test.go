package tracestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"causeway/internal/cdr"
	"causeway/internal/ftl"
	"causeway/internal/probe"
	"causeway/internal/reccodec"
	"causeway/internal/uuid"
	"causeway/internal/workload"
)

// fullDecodeIndex rebuilds one shard directory's index the slow way: it
// parses every frame by hand and decodes it with reccodec.Decode, the full
// decoder. Records without wall times touch their chain at now.
func fullDecodeIndex(t *testing.T, dir string, now time.Time) *shard {
	t.Helper()
	ref := &shard{dir: dir, chains: make(map[uuid.UUID]*chainIndex), byParent: make(map[chainSeq]uuid.UUID)}
	ids, err := ref.listSegments()
	if err != nil {
		t.Fatal(err)
	}
	floor := ref.readGC()
	for _, id := range ids {
		if id < floor {
			continue
		}
		data, err := os.ReadFile(ref.segPath(id))
		if err != nil {
			t.Fatal(err)
		}
		off := segHeader
		for off < int64(len(data)) {
			size := binary.LittleEndian.Uint32(data[off:])
			payload := data[off+frameHeader : off+frameHeader+int64(size)]
			rec, err := reccodec.Decode(payload)
			if err != nil {
				t.Fatalf("%s frame at %d: %v", ref.segPath(id), off, err)
			}
			ref.indexRecord(&rec, id, off+frameHeader, size, now)
			off += frameHeader + int64(size)
		}
	}
	return ref
}

// TestRecoveredIndexMatchesFullDecode: the index Open rebuilds with the
// index-only decode, shard by shard and concurrently, equals the index a
// full decode of every frame builds — locations, seq order flags, touch
// times, links, link lookups and event counts.
func TestRecoveredIndexMatchesFullDecode(t *testing.T) {
	sys, err := workload.Generate(workload.Config{
		Processes: 3, Threads: 4, Components: 6, Interfaces: 5, Methods: 12,
		Calls: 500, OnewayPermille: 150, Seed: 11, Aspects: probe.AspectLatency,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ts, err := Open(dir, Options{Shards: 4, SegmentMaxBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for _, sink := range sys.Sinks {
		ts.Insert(sink.Snapshot()...)
	}
	// Out-of-order seqs (dirty chains) and records with no wall times
	// (touched at recovery time).
	wall := time.Unix(1700000000, 0)
	for b := byte(200); b < 208; b++ {
		c := chainID(b)
		ts.Insert(ev(c, 3, ftl.SkelEnd, "IOrder", wall), ev(c, 1, ftl.StubStart, "IOrder", time.Time{}),
			ev(c, 2, ftl.SkelStart, "IOrder", wall), link(c, 1, chainID(b+10)))
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}

	before := time.Now()
	re, err := Open(dir, Options{})
	after := time.Now()
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	// A touch time later than every recorded wall time: a chain with an
	// untimed event ends up touched exactly at the sentinel in the full
	// decode and at the time of Open in the store.
	sentinel := time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC)
	dirty, timed := 0, 0
	for i, sh := range re.shards {
		ref := fullDecodeIndex(t, sh.dir, sentinel)
		if sh.events != ref.events || sh.events == 0 {
			t.Fatalf("shard %d: %d events indexed, full decode gives %d", i, sh.events, ref.events)
		}
		if !reflect.DeepEqual(sh.links, ref.links) || !reflect.DeepEqual(sh.byParent, ref.byParent) {
			t.Fatalf("shard %d: links differ from full decode", i)
		}
		if len(sh.chains) != len(ref.chains) {
			t.Fatalf("shard %d: %d chains, full decode gives %d", i, len(sh.chains), len(ref.chains))
		}
		for c, want := range ref.chains {
			got := sh.chains[c]
			if got == nil || !reflect.DeepEqual(got.locs, want.locs) || got.dirty != want.dirty {
				t.Fatalf("shard %d chain %s: index %+v, full decode %+v", i, c, got, want)
			}
			if want.dirty {
				dirty++
			}
			if want.last.Equal(sentinel) {
				if got.last.Before(before) || got.last.After(after) {
					t.Fatalf("shard %d chain %s: untimed chain touched at %v, not during Open", i, c, got.last)
				}
			} else if !got.last.Equal(want.last) {
				t.Fatalf("shard %d chain %s: touch %v, full decode %v", i, c, got.last, want.last)
			} else {
				timed++
			}
		}
	}
	if dirty == 0 || timed == 0 {
		t.Fatalf("%d out-of-order and %d timed chains recovered; the index went partly untested", dirty, timed)
	}
}

// frame wraps payload in a segment frame.
func frame(payload []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	return append(out, payload...)
}

func encodeRecord(r probe.Record) []byte {
	var e cdr.Encoder
	reccodec.Encode(&e, &r)
	return append([]byte(nil), e.Bytes()...)
}

// TestOpenRejectsCorruptFrames: a complete frame that does not decode —
// trailing bytes, an unknown kind, a string length past the frame — is a
// hard Open error, not a torn tail, and the segment is left as it was.
func TestOpenRejectsCorruptFrames(t *testing.T) {
	good := encodeRecord(ev(chainID(1), 1, ftl.StubStart, "IGood", time.Unix(1700000000, 0)))
	corrupt := map[string][]byte{
		"trailing bytes": append(append([]byte(nil), good...), 0),
		"unknown kind":   append([]byte{9}, good[1:]...),
		"long string": func() []byte {
			b := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(b[2:], 0xffffff00) // Process length
			return b
		}(),
	}
	for name, bad := range corrupt {
		if _, err := reccodec.Decode(bad); err == nil {
			t.Fatalf("%s: reccodec.Decode accepted the frame", name)
		}
		dir := t.TempDir()
		if err := writeManifest(dir, 1); err != nil {
			t.Fatal(err)
		}
		seg := filepath.Join(dir, "shard-000", segName(0))
		if err := os.MkdirAll(filepath.Dir(seg), 0o755); err != nil {
			t.Fatal(err)
		}
		data := append([]byte(segMagic), frame(good)...)
		data = append(data, frame(bad)...)
		data = append(data, frame(good)...)
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ts, err := Open(dir, Options{})
		if err == nil {
			ts.Close()
			t.Fatalf("%s: Open accepted a corrupt frame", name)
		}
		if errors.Is(err, probe.ErrTruncated) {
			t.Fatalf("%s: corrupt frame treated as a torn tail: %v", name, err)
		}
		if after, _ := os.ReadFile(seg); !bytes.Equal(after, data) {
			t.Fatalf("%s: rejected segment was modified", name)
		}
	}
}

// TestTornTailsInManyShards: torn tails in several shards recovered
// concurrently are all truncated, and the warnings come out in shard
// order, identical on every reopen of the same damage.
func TestTornTailsInManyShards(t *testing.T) {
	master := t.TempDir()
	ts, err := Open(master, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Unix(1700000000, 0)
	for b := byte(0); b < 64; b++ {
		c := chainID(b)
		ts.Insert(ev(c, 1, ftl.StubStart, "ITorn", wall), ev(c, 2, ftl.StubEnd, "ITorn", wall))
	}
	total := ts.Len()
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	torn := []int{0, 1, 3}
	for _, i := range torn {
		seg := filepath.Join(master, fmt.Sprintf("shard-%03d", i), segName(0))
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg, data[:len(data)-3], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var first []string
	for run := 0; run < 10; run++ {
		dir := filepath.Join(t.TempDir(), "store")
		copyDir(t, master, dir)
		re, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := re.Len(); got != total-len(torn) {
			t.Fatalf("reopen %d: %d records recovered, want %d", run, got, total-len(torn))
		}
		var warns []string
		for _, w := range re.Warnings() {
			warns = append(warns, strings.ReplaceAll(w, dir, "<store>"))
		}
		re.Close()
		if run == 0 {
			first = warns
			if len(warns) != len(torn) {
				t.Fatalf("%d warnings for %d torn shards: %v", len(warns), len(torn), warns)
			}
			for k, i := range torn {
				if !strings.Contains(warns[k], fmt.Sprintf("shard-%03d", i)) {
					t.Fatalf("warning %d names the wrong shard (want shard %d): %v", k, i, warns)
				}
			}
		} else if !reflect.DeepEqual(warns, first) {
			t.Fatalf("reopen %d warned %v, reopen 0 warned %v", run, warns, first)
		}
		again, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if w := again.Warnings(); len(w) != 0 {
			t.Fatalf("reopen %d: tails not truncated, second open warned %v", run, w)
		}
		again.Close()
	}
}

// copyDir copies the regular files under src to dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// benchStoreDir builds the fixed store BenchmarkStoreOpen reopens (and
// causectl's BenchmarkShowOneChain queries): 20,000 Figure-5-cardinality
// calls with wall times.
func benchStoreDir(b *testing.B) string {
	b.Helper()
	sys, err := workload.Generate(workload.Config{Calls: 20000, Threads: 1, Seed: 7, Aspects: probe.AspectLatency})
	if err != nil {
		b.Fatal(err)
	}
	dir := filepath.Join(b.TempDir(), "store")
	ts, err := Open(dir, Options{})
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

// BenchmarkStoreOpen times recovering the index of a closed store.
func BenchmarkStoreOpen(b *testing.B) {
	dir := benchStoreDir(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if ts.Len() == 0 {
			b.Fatal("empty store")
		}
		ts.Close()
	}
}
