// Package reccodec is the one binary layout of a probe.Record, shared by
// the trace store's segment frames (internal/tracestore) and the
// telemetry ship and replay frames (internal/telemetry), so a record has
// the same bytes on the wire and on disk.
//
// A payload is the record's fields in a fixed order under internal/cdr
// conventions: length-prefixed strings, little-endian integers, raw
// fixed-size UUIDs, and the zero time.Time as a sentinel. It carries no
// length prefix of its own; framing belongs to the container (a segment
// frame, a ship frame's record list).
package reccodec

import (
	"fmt"
	"math"
	"time"

	"causeway/internal/cdr"
	"causeway/internal/ftl"
	"causeway/internal/probe"
	"causeway/internal/uuid"
)

// MinPayload is the encoded size of a record whose strings are all
// empty — the floor every payload meets, which lets a container bound a
// record count by its byte length before allocating anything.
const MinPayload = 2 + 7*4 + 8 + uuid.Size + 1 + 8 + 4*8 + uuid.Size + 8 + uuid.Size

// timeNone is the encoded sentinel for the zero time.Time (whose UnixNano
// is undefined).
const timeNone = int64(math.MinInt64)

func putTime(e *cdr.Encoder, t time.Time) {
	if t.IsZero() {
		e.PutInt64(timeNone)
		return
	}
	e.PutInt64(t.UnixNano())
}

func getTime(d *cdr.Decoder) time.Time {
	v := d.Int64()
	if v == timeNone {
		return time.Time{}
	}
	return time.Unix(0, v)
}

// Record flag bits (payload byte 2).
const (
	flagOneway = 1 << iota
	flagCollocated
	flagLatencyArmed
	flagCPUArmed
)

// Encode appends r's payload to e (no length prefix).
func Encode(e *cdr.Encoder, r *probe.Record) {
	e.PutOctet(byte(r.Kind))
	var flags byte
	if r.Oneway {
		flags |= flagOneway
	}
	if r.Collocated {
		flags |= flagCollocated
	}
	if r.LatencyArmed {
		flags |= flagLatencyArmed
	}
	if r.CPUArmed {
		flags |= flagCPUArmed
	}
	e.PutOctet(flags)
	e.PutString(r.Process)
	e.PutString(r.ProcType)
	e.PutUint64(r.Thread)
	e.PutString(r.Op.Component)
	e.PutString(r.Op.Interface)
	e.PutString(r.Op.Operation)
	e.PutString(r.Op.Object)
	e.PutString(r.Semantics)
	e.PutRaw(r.Chain[:])
	e.PutOctet(byte(r.Event))
	e.PutUint64(r.Seq)
	putTime(e, r.WallStart)
	putTime(e, r.WallEnd)
	e.PutInt64(int64(r.CPUStart))
	e.PutInt64(int64(r.CPUEnd))
	e.PutRaw(r.LinkParent[:])
	e.PutUint64(r.LinkParentSeq)
	e.PutRaw(r.LinkChild[:])
}

// Decode parses one payload in full; every string is a fresh copy, so
// the record outlives buf.
func Decode(buf []byte) (probe.Record, error) {
	var r probe.Record
	if err := walk(buf, &r, stringsFull, nil); err != nil {
		return probe.Record{}, err
	}
	return r, nil
}

// DecodeIndex is the trace store's recovery decode: an index keeps only
// an event's kind, chain, seq and wall times, so an event's string fields
// are bounds-checked and skipped, never allocated, and come back empty.
// Link records still decode in full, because the index keeps them whole.
// It accepts exactly the payloads Decode accepts.
func DecodeIndex(buf []byte, r *probe.Record) error {
	return walk(buf, r, stringsSkip, nil)
}

// DecodeInterned decodes buf in full into r, resolving the identity
// strings (Process, ProcType and the four Op fields) through in, so a
// batch drawn from a small vocabulary allocates each distinct string once
// rather than once per record. Semantics is copied, never interned: its
// values are unbounded. Every string is independent of buf.
func DecodeInterned(buf []byte, r *probe.Record, in *Interner) error {
	return walk(buf, r, stringsFull, in)
}

// How walk materializes string fields.
const (
	stringsFull = iota // copy out of the payload
	stringsSkip        // bounds-check and skip (events only)
)

// walk decodes buf into r field by field in Encode's order — the one
// place the decode side of the layout is written. Every field of r is
// assigned. The checks are the same in every mode, so every decode
// accepts exactly the same payloads: each length-prefixed field must fit
// the payload, the payload must be consumed exactly, and the kind must be
// known.
func walk(buf []byte, r *probe.Record, mode int, in *Interner) error {
	d := cdr.NewDecoder(buf)
	r.Kind = probe.RecordKind(d.Octet())
	if r.Kind == probe.KindLink {
		mode = stringsFull
	}
	flags := d.Octet()
	r.Oneway = flags&flagOneway != 0
	r.Collocated = flags&flagCollocated != 0
	r.LatencyArmed = flags&flagLatencyArmed != 0
	r.CPUArmed = flags&flagCPUArmed != 0
	r.Process = str(d, mode, in)
	r.ProcType = str(d, mode, in)
	r.Thread = d.Uint64()
	r.Op.Component = str(d, mode, in)
	r.Op.Interface = str(d, mode, in)
	r.Op.Operation = str(d, mode, in)
	r.Op.Object = str(d, mode, in)
	r.Semantics = str(d, mode, nil)
	copy(r.Chain[:], d.Raw(uuid.Size))
	r.Event = ftl.Event(d.Octet())
	r.Seq = d.Uint64()
	r.WallStart = getTime(d)
	r.WallEnd = getTime(d)
	r.CPUStart = time.Duration(d.Int64())
	r.CPUEnd = time.Duration(d.Int64())
	copy(r.LinkParent[:], d.Raw(uuid.Size))
	r.LinkParentSeq = d.Uint64()
	copy(r.LinkChild[:], d.Raw(uuid.Size))
	if err := d.Finish(); err != nil {
		return fmt.Errorf("reccodec: record payload: %w", err)
	}
	if r.Kind != probe.KindEvent && r.Kind != probe.KindLink {
		return fmt.Errorf("reccodec: record kind %d", r.Kind)
	}
	return nil
}

// str decodes one length-prefixed string field: copied, checked and
// skipped, or resolved through in when one is given.
func str(d *cdr.Decoder, mode int, in *Interner) string {
	switch {
	case mode == stringsSkip:
		d.BytesNoCopy()
		return ""
	case in != nil:
		return in.intern(d.BytesNoCopy())
	default:
		return d.String()
	}
}

// Interner bounds: a table holds at most maxInterned strings of at most
// maxInternedLen bytes each, so it pins at most 512 KiB of string data
// however adversarial the input. Longer strings are copied, not
// interned; a full table starts over, so a vocabulary that drifts is
// relearned.
const (
	maxInterned    = 4096
	maxInternedLen = 128
)

// Interner maps byte strings to one shared string copy. The zero value is
// ready to use. It is not safe for concurrent use; the strings it returns
// are ordinary immutable strings and may be retained freely.
type Interner struct {
	m map[string]string
}

func (in *Interner) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > maxInternedLen {
		return string(b)
	}
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	if in.m == nil {
		in.m = make(map[string]string)
	} else if len(in.m) >= maxInterned {
		clear(in.m)
	}
	s := string(b)
	in.m[s] = s
	return s
}
