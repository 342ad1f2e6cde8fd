package tracestore

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"causeway/internal/ftl"
	"causeway/internal/probe"
	"causeway/internal/reccodec"
)

// fuzzRecords are the seed records: a timed event with every string set,
// an untimed one, and a link from a named process.
func fuzzRecords() []probe.Record {
	full := ev(chainID(1), 7, ftl.SkelEnd, "IFuzz", time.Unix(1700000000, 5))
	full.ProcType, full.Op.Object, full.Semantics = "x86", "obj", "ret=ok"
	full.Oneway, full.CPUArmed, full.CPUStart, full.CPUEnd = true, true, 3, 9
	l := link(chainID(1), 3, chainID(2))
	l.Process = "proc00"
	return []probe.Record{full, ev(chainID(2), 1, ftl.StubStart, "", time.Time{}), l}
}

// FuzzSegmentPayload: the index decode accepts a payload exactly when the
// full decode does, and then agrees with it on everything the index
// reads — and on the whole record for links, which the index keeps.
func FuzzSegmentPayload(f *testing.F) {
	for _, r := range fuzzRecords() {
		f.Add(encodeRecord(r))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		full, fullErr := reccodec.Decode(payload)
		idx := probe.Record{Process: "stale", Semantics: "stale"}
		idxErr := reccodec.DecodeIndex(payload, &idx)
		if (fullErr == nil) != (idxErr == nil) {
			t.Fatalf("full decode error %v, index decode error %v", fullErr, idxErr)
		}
		if fullErr != nil {
			return
		}
		if idx.Kind != full.Kind || idx.Chain != full.Chain || idx.Seq != full.Seq ||
			!idx.WallStart.Equal(full.WallStart) || !idx.WallEnd.Equal(full.WallEnd) ||
			idx.WallStart.IsZero() != full.WallStart.IsZero() || idx.WallEnd.IsZero() != full.WallEnd.IsZero() {
			t.Fatalf("index decode %+v disagrees with full decode %+v", idx, full)
		}
		switch full.Kind {
		case probe.KindLink:
			if !reflect.DeepEqual(idx, full) {
				t.Fatalf("link decoded partly: %+v, full %+v", idx, full)
			}
		case probe.KindEvent:
			if idx.Process != "" || idx.Semantics != "" {
				t.Fatalf("index decode left string fields set: %+v", idx)
			}
		}
	})
}

// FuzzScanSegment: any bytes are either rejected or indexed frame by
// frame up to the recovered size, never panic, and never grow the payload
// buffer past maxFramePayload.
func FuzzScanSegment(f *testing.F) {
	seg := []byte(segMagic)
	for _, r := range fuzzRecords() {
		seg = append(seg, frame(encodeRecord(r))...)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-5])
	f.Add([]byte(segMagic))
	f.Add([]byte(segMagic[:3]))
	f.Fuzz(func(t *testing.T, data []byte) {
		var sc segmentScanner
		end := segHeader
		good, err := sc.scan(bytes.NewReader(data), int64(len(data)), func(rec *probe.Record, off int64, size uint32) {
			if off != end+frameHeader {
				t.Fatalf("frame indexed at %d, previous frame ended at %d", off, end)
			}
			if rec.Kind != probe.KindEvent && rec.Kind != probe.KindLink {
				t.Fatalf("frame at %d indexed with kind %d", off, rec.Kind)
			}
			end = off + int64(size)
		})
		if cap(sc.payload) > maxFramePayload {
			t.Fatalf("payload buffer grew to %d bytes", cap(sc.payload))
		}
		if good > int64(len(data)) {
			t.Fatalf("recovered size %d past the %d bytes given", good, len(data))
		}
		switch {
		case err == nil:
			if good != int64(len(data)) || good != end {
				t.Fatalf("clean scan recovered %d of %d bytes, last frame ended at %d", good, len(data), end)
			}
		case errors.Is(err, probe.ErrTruncated):
			if good != 0 && good != end {
				t.Fatalf("torn scan recovered %d bytes, last frame ended at %d", good, end)
			}
		}
	})
}
