package reccodec

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"causeway/internal/cdr"
	"causeway/internal/ftl"
	"causeway/internal/probe"
	"causeway/internal/uuid"
)

func encode(r probe.Record) []byte {
	var e cdr.Encoder
	Encode(&e, &r)
	return e.Bytes()
}

func sample() probe.Record {
	return probe.Record{
		Kind: probe.KindEvent, Process: "proc00", ProcType: "x86", Thread: 3,
		Op:     probe.OpID{Component: "c", Interface: "I", Operation: "op", Object: "obj001"},
		Oneway: true, LatencyArmed: true, Semantics: "ret=ok",
		Chain: uuid.UUID{1}, Event: ftl.SkelEnd, Seq: 7,
		WallStart: time.Unix(1700000000, 5), CPUStart: 3, CPUEnd: 9,
	}
}

// A record with every string empty encodes to exactly MinPayload bytes,
// and each string byte adds one: MinPayload is the floor of the layout.
func TestMinPayload(t *testing.T) {
	if n := len(encode(probe.Record{Kind: probe.KindEvent})); n != MinPayload {
		t.Fatalf("empty record encodes to %d bytes, MinPayload is %d", n, MinPayload)
	}
	r := sample()
	strs := len(r.Process) + len(r.ProcType) + len(r.Op.Component) + len(r.Op.Interface) +
		len(r.Op.Operation) + len(r.Op.Object) + len(r.Semantics)
	if n := len(encode(r)); n != MinPayload+strs {
		t.Fatalf("record encodes to %d bytes, want %d", n, MinPayload+strs)
	}
}

// The three decodes accept the same payloads; the full and interned
// decodes agree on the whole record, and neither aliases the payload.
func TestDecodesAgree(t *testing.T) {
	link := probe.Record{Kind: probe.KindLink, Process: "p", LinkParent: uuid.UUID{2}, LinkParentSeq: 4, LinkChild: uuid.UUID{3}}
	for _, r := range []probe.Record{sample(), link, {Kind: probe.KindEvent}} {
		buf := encode(r)
		full, err := Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		var in Interner
		var interned, idx probe.Record
		if err := DecodeInterned(buf, &interned, &in); err != nil {
			t.Fatal(err)
		}
		if err := DecodeIndex(buf, &idx); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(full, interned) {
			t.Fatalf("interned decode %+v, full decode %+v", interned, full)
		}
		if r.Kind == probe.KindLink && !reflect.DeepEqual(idx, full) {
			t.Fatalf("index decode of a link %+v, full decode %+v", idx, full)
		}
		for i := range buf {
			buf[i] = 0xff
		}
		if !reflect.DeepEqual(full, interned) || full.Process != r.Process || full.Semantics != r.Semantics {
			t.Fatal("decoded strings alias the payload")
		}
	}
	bad := append(encode(sample()), 0)
	var in Interner
	var rec probe.Record
	if _, err := Decode(bad); err == nil {
		t.Fatal("Decode accepted trailing bytes")
	}
	if err := DecodeInterned(bad, &rec, &in); err == nil {
		t.Fatal("DecodeInterned accepted trailing bytes")
	}
	if err := DecodeIndex(bad, &rec); err == nil {
		t.Fatal("DecodeIndex accepted trailing bytes")
	}
}

// Interning shares one copy per distinct identity string, never takes in
// Semantics or over-long strings, and never holds more than maxInterned
// entries.
func TestInternerBounded(t *testing.T) {
	var in Interner
	var a, b probe.Record
	r := sample()
	if err := DecodeInterned(encode(r), &a, &in); err != nil {
		t.Fatal(err)
	}
	if err := DecodeInterned(encode(r), &b, &in); err != nil {
		t.Fatal(err)
	}
	if unsafe.StringData(a.Process) != unsafe.StringData(b.Process) || unsafe.StringData(a.Op.Object) != unsafe.StringData(b.Op.Object) {
		t.Fatal("identity strings of two records were not shared")
	}
	if len(in.m) != 6 {
		t.Fatalf("table holds %d strings after one vocabulary, want 6 (Semantics excluded)", len(in.m))
	}
	if _, ok := in.m[r.Semantics]; ok {
		t.Fatal("Semantics was interned")
	}

	r.Process = strings.Repeat("p", maxInternedLen+1)
	if err := DecodeInterned(encode(r), &a, &in); err != nil {
		t.Fatal(err)
	}
	if a.Process != r.Process || len(in.m) != 6 {
		t.Fatalf("over-long string interned (table %d) or mangled", len(in.m))
	}

	for i := 0; i < 3*maxInterned; i++ {
		r.Process = fmt.Sprintf("proc%06d", i)
		if err := DecodeInterned(encode(r), &a, &in); err != nil {
			t.Fatal(err)
		}
		if a.Process != r.Process {
			t.Fatalf("decoded %q, want %q", a.Process, r.Process)
		}
		if len(in.m) > maxInterned {
			t.Fatalf("table grew to %d entries", len(in.m))
		}
	}
}
