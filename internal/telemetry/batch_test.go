package telemetry

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"causeway/internal/ftl"
	"causeway/internal/probe"
	"causeway/internal/uuid"
)

// randRecord draws a record over the whole field space the layout
// carries: both kinds, zero and non-zero times, empty, short and long
// strings, Semantics, and every flag.
func randRecord(rng *rand.Rand) probe.Record {
	str := func() string {
		switch rng.Intn(4) {
		case 0:
			return ""
		case 1:
			return strings.Repeat(string(rune('a'+rng.Intn(26))), 300+rng.Intn(300))
		default:
			return fmt.Sprintf("s%d", rng.Intn(8))
		}
	}
	when := func() time.Time {
		if rng.Intn(3) == 0 {
			return time.Time{}
		}
		return time.Unix(0, rng.Int63()-rng.Int63()).In(time.UTC)
	}
	id := func() (u uuid.UUID) {
		rng.Read(u[:])
		return u
	}
	r := probe.Record{
		Kind:    probe.KindEvent,
		Process: str(), ProcType: str(), Thread: rng.Uint64(),
		Op:     probe.OpID{Component: str(), Interface: str(), Operation: str(), Object: str()},
		Oneway: rng.Intn(2) == 0, Collocated: rng.Intn(2) == 0,
		LatencyArmed: rng.Intn(2) == 0, CPUArmed: rng.Intn(2) == 0,
		Semantics: str(),
		Chain:     id(), Event: ftl.Event(rng.Intn(256)), Seq: rng.Uint64(),
		WallStart: when(), WallEnd: when(),
		CPUStart: time.Duration(rng.Int63()), CPUEnd: time.Duration(-rng.Int63()),
	}
	if rng.Intn(4) == 0 {
		r.Kind = probe.KindLink
		r.LinkParent, r.LinkParentSeq, r.LinkChild = id(), rng.Uint64(), id()
	}
	return r
}

// sameRecord compares two records field by field, times with Equal:
// decoded times come back in time.Local, not their original location.
func sameRecord(a, b probe.Record) bool {
	if !a.WallStart.Equal(b.WallStart) || !a.WallEnd.Equal(b.WallEnd) ||
		a.WallStart.IsZero() != b.WallStart.IsZero() || a.WallEnd.IsZero() != b.WallEnd.IsZero() {
		return false
	}
	a.WallStart, a.WallEnd, b.WallStart, b.WallEnd = time.Time{}, time.Time{}, time.Time{}, time.Time{}
	return a == b
}

func sameRecords(a, b []probe.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameRecord(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestBatchRoundTrip: random batches survive encode and decode, and the
// decoded records own their strings — overwriting the frame bytes, as the
// transport does when it recycles its read buffer, changes nothing.
func TestBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var enc batchEncoder
	for iter := 0; iter < 300; iter++ {
		recs := make([]probe.Record, rng.Intn(40))
		for i := range recs {
			recs[i] = randRecord(rng)
		}
		body := enc.encode(recs)
		got, err := decodeBatch(body)
		if err != nil {
			t.Fatalf("batch %d: %v", iter, err)
		}
		for i := range body {
			body[i] = 0xa5
		}
		if !sameRecords(recs, got) {
			t.Fatalf("batch %d did not round-trip:\nsent %+v\ngot  %+v", iter, recs, got)
		}
	}
}

// frameOf builds a ship frame body by hand from payloads.
func frameOf(count uint32, payloads ...[]byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, count)
	for _, p := range payloads {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
		b = append(b, p...)
	}
	return b
}

// payloadOf is one record's payload as a frame carries it.
func payloadOf(r probe.Record) []byte {
	return encodeBatch([]probe.Record{r})[2*recordPrefix:]
}

// TestDecodeBatchRejects: every malformed frame is an error, not a panic
// or a partial batch.
func TestDecodeBatchRejects(t *testing.T) {
	good := payloadOf(testRecord("p", 1))
	cases := map[string][]byte{
		"empty body":         nil,
		"short count":        {1, 0},
		"huge count":         frameOf(1<<31, good),
		"count past records": frameOf(2, good),
		"torn record":        frameOf(1, good)[:len(good)],
		"record length past body": func() []byte {
			b := frameOf(1, good)
			binary.LittleEndian.PutUint32(b[recordPrefix:], uint32(len(good)+1))
			return b
		}(),
		"trailing bytes":  append(frameOf(1, good), 0),
		"record trailing": frameOf(1, append(append([]byte(nil), good...), 0)),
		"unknown kind":    frameOf(1, append([]byte{9}, good[1:]...)),
		"short record":    frameOf(1, good[:len(good)-1]),
		"string past payload": func() []byte {
			p := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(p[2:], 0x0fffffff) // Process length
			return frameOf(1, p)
		}(),
	}
	for name, body := range cases {
		if recs, err := decodeBatch(body); err == nil {
			t.Errorf("%s: decoded %d records, want an error", name, len(recs))
		}
	}
	if recs, err := decodeBatch(frameOf(0)); err != nil || len(recs) != 0 {
		t.Fatalf("empty batch: %v, %d records", err, len(recs))
	}
}

// TestDecodeBatchHugeCountAllocatesNothing: a count that cannot fit the
// body is refused before the record slice is allocated.
func TestDecodeBatchHugeCountAllocatesNothing(t *testing.T) {
	body := frameOf(1<<30, payloadOf(testRecord("p", 1)))
	var err error
	allocs := testing.AllocsPerRun(100, func() { _, err = decodeBatch(body) })
	if err == nil {
		t.Fatal("huge count accepted")
	}
	// The error itself allocates (fmt); the record slice would be
	// gigabytes.
	if allocs > 4 {
		t.Fatalf("rejecting a huge count made %.0f allocations", allocs)
	}
}

// fig5Batch is a 256-record frame drawn from a small vocabulary, the shape
// live shipping produces: a few processes, operations and objects.
func fig5Batch() []probe.Record {
	recs := make([]probe.Record, 256)
	for i := range recs {
		recs[i] = probe.Record{
			Kind: probe.KindEvent, Process: fmt.Sprintf("proc%02d", i%4), ProcType: "x86",
			Thread: uint64(i % 7),
			Op: probe.OpID{Component: "pps", Interface: fmt.Sprintf("IStage%d", i%3),
				Operation: "process", Object: fmt.Sprintf("obj%03d", i%5)},
			LatencyArmed: true,
			Chain:        uuid.UUID{0: byte(i / 4)}, Event: ftl.Event(i%4 + 1), Seq: uint64(i%4 + 1),
			WallStart: time.Unix(1700000000, int64(i)), WallEnd: time.Unix(1700000000, int64(i)+1000),
		}
	}
	return recs
}

// TestEncodeBatchAllocFree pins the shipper's warm batch encode at zero
// allocations: the encoder's buffer is reused frame after frame.
func TestEncodeBatchAllocFree(t *testing.T) {
	recs := fig5Batch()
	var enc batchEncoder
	enc.encode(recs)
	if allocs := testing.AllocsPerRun(200, func() { enc.encode(recs) }); allocs != 0 {
		t.Fatalf("warm batch encode made %.0f allocations, want 0", allocs)
	}
}

// TestDecodeBatchAllocCeiling pins the decode of a 256-record frame at a small
// constant — the record slice, plus the intern table when the pool has
// none warm — with no allocation per record: identity strings are shared.
func TestDecodeBatchAllocCeiling(t *testing.T) {
	body := encodeBatch(fig5Batch())
	if _, err := decodeBatch(body); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := decodeBatch(body); err != nil {
			t.Fatal(err)
		}
	})
	limit := 2.0
	if raceEnabled {
		// A dropped pool entry costs a fresh table: its map and one copy
		// of each of the frame's 15 distinct identity strings.
		limit = 32
	}
	if allocs > limit {
		t.Fatalf("decoding a 256-record frame made %.0f allocations, want at most %.0f", allocs, limit)
	}
}

// FuzzDecodeBatch: any frame body is either rejected with an error or
// decoded into records that round-trip; decoding never panics, and the
// record slice never outgrows what the body's length can carry.
func FuzzDecodeBatch(f *testing.F) {
	event := testRecord("proc00", 1)
	event.Semantics, event.WallStart = "ret=ok", time.Unix(1700000000, 5)
	link := probe.Record{Kind: probe.KindLink, Process: "proc00", LinkParent: uuid.UUID{1}, LinkParentSeq: 3, LinkChild: uuid.UUID{2}}
	f.Add(encodeBatch(nil))
	f.Add(encodeBatch([]probe.Record{event}))
	f.Add(encodeBatch([]probe.Record{link}))
	f.Add(encodeBatch([]probe.Record{event, link, testRecord("proc01", 2)}))
	f.Fuzz(func(t *testing.T, body []byte) {
		recs, err := decodeBatch(body)
		if err != nil {
			return
		}
		if len(recs)*minBatchRecord > len(body) || cap(recs) != len(recs) {
			t.Fatalf("%d records (cap %d) from a %d-byte body", len(recs), cap(recs), len(body))
		}
		again := encodeBatch(recs)
		back, err := decodeBatch(again)
		if err != nil {
			t.Fatalf("re-encoded batch rejected: %v", err)
		}
		if !sameRecords(recs, back) || !bytes.Equal(again, encodeBatch(back)) {
			t.Fatal("decoded batch does not round-trip")
		}
	})
}

// BenchmarkDecodeBatch measures the collector's per-frame decode of a
// 256-record ship frame.
func BenchmarkDecodeBatch(b *testing.B) {
	body := encodeBatch(fig5Batch())
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeBatch(body); err != nil {
			b.Fatal(err)
		}
	}
}
