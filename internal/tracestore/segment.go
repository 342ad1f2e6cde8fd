package tracestore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"causeway/internal/cdr"
	"causeway/internal/probe"
	"causeway/internal/reccodec"
)

// Segment file layout: an 8-byte magic header followed by frames, each a
// little-endian uint32 payload length plus one record payload in the
// internal/reccodec layout (the same bytes a telemetry ship frame carries
// per record). A crashed writer leaves at most one torn frame at the
// tail; recovery truncates to the last complete frame and the readable
// prefix stands, mirroring probe.ReadStream's ErrTruncated handling for
// gob logs.
const (
	segMagic    = "CWTSEG1\n"
	segHeader   = int64(len(segMagic))
	frameHeader = 4
	// maxFramePayload bounds a frame so a corrupt length prefix cannot
	// provoke a huge allocation.
	maxFramePayload = 16 << 20
	// writeBuffer sizes a segment writer's buffer: one write(2) per
	// 64 KiB of frames on the ingest path. It is also the most a crash
	// can lose of frames the store accepted but never flushed.
	writeBuffer = 64 << 10
)

// segmentWriter appends frames to one segment file through a buffer, so
// the ingest hot path pays an in-memory encode rather than a syscall per
// record. size tracks the logical file size including buffered bytes.
type segmentWriter struct {
	f    *os.File
	bw   *bufio.Writer
	size int64
	enc  cdr.Encoder
	len4 [frameHeader]byte
}

// createSegment creates path and writes the magic header.
func createSegment(path string) (*segmentWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("tracestore: create segment: %w", err)
	}
	w := &segmentWriter{f: f, bw: bufio.NewWriterSize(f, writeBuffer), size: segHeader}
	if _, err := w.bw.WriteString(segMagic); err != nil {
		f.Close()
		return nil, fmt.Errorf("tracestore: segment header: %w", err)
	}
	return w, nil
}

// appendSegment opens an existing (recovered) segment for further appends
// at offset size.
func appendSegment(path string, size int64) (*segmentWriter, error) {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("tracestore: open segment: %w", err)
	}
	if _, err := f.Seek(size, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("tracestore: seek segment: %w", err)
	}
	return &segmentWriter{f: f, bw: bufio.NewWriterSize(f, writeBuffer), size: size}, nil
}

// append encodes r as one frame. It returns the payload's offset and size,
// which the in-memory index retains for ReadAt-backed queries.
func (w *segmentWriter) append(r *probe.Record) (off int64, size uint32, err error) {
	w.enc.Reset()
	reccodec.Encode(&w.enc, r)
	payload := w.enc.Bytes()
	binary.LittleEndian.PutUint32(w.len4[:], uint32(len(payload)))
	if _, err := w.bw.Write(w.len4[:]); err != nil {
		return 0, 0, err
	}
	if _, err := w.bw.Write(payload); err != nil {
		return 0, 0, err
	}
	off = w.size + frameHeader
	w.size += frameHeader + int64(len(payload))
	return off, uint32(len(payload)), nil
}

func (w *segmentWriter) flush() error { return w.bw.Flush() }

func (w *segmentWriter) close() error {
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// sync flushes the buffer and fsyncs the file (compaction uses it before
// the rename that commits a rewritten segment).
func (w *segmentWriter) sync() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	return w.f.Sync()
}

// readPayloadAt reads and decodes the record whose payload lies at
// [off, off+size) of f. *os.File.ReadAt is safe for concurrent use, so
// queries on different shards read in parallel.
func readPayloadAt(f *os.File, off int64, size uint32) (probe.Record, error) {
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, off); err != nil {
		return probe.Record{}, fmt.Errorf("tracestore: read record: %w", err)
	}
	return reccodec.Decode(buf)
}

// segmentScanner indexes segment files frame by frame. A shard scans all
// of its segments with one scanner, so the read buffer, the payload buffer
// and the decoded record are allocated once per shard rather than once per
// segment or frame.
type segmentScanner struct {
	br      *bufio.Reader
	payload []byte
	rec     probe.Record
}

// scan walks every complete frame of the segment held in r (total bytes
// long) from the header on, calling fn with each frame's record, as the
// recovery decode (reccodec.DecodeIndex) leaves it, and its payload
// location. fn must copy what it keeps: the record is reused for the next
// frame. scan returns the byte offset of the last complete frame's end. A tail cut mid-frame — the
// signature a crashed writer leaves — returns an error wrapping
// probe.ErrTruncated; the caller truncates to goodSize and the readable
// prefix stands. Any other decode failure is a hard error.
func (sc *segmentScanner) scan(r io.ReaderAt, total int64, fn func(rec *probe.Record, off int64, size uint32)) (goodSize int64, err error) {
	if total < segHeader {
		// Crash while writing the 8-byte header: nothing readable.
		return 0, fmt.Errorf("tracestore: segment header torn: %w", probe.ErrTruncated)
	}
	if sc.br == nil {
		sc.br = bufio.NewReaderSize(&offsetReader{r: r}, 1<<16)
	} else {
		sc.br.Reset(&offsetReader{r: r})
	}
	br := sc.br
	var magic [segHeader]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return 0, fmt.Errorf("tracestore: segment header: %w", err)
	}
	if string(magic[:]) != segMagic {
		return 0, fmt.Errorf("tracestore: bad segment magic %q", magic)
	}
	good := segHeader
	var len4 [frameHeader]byte
	for good < total {
		if total-good < frameHeader {
			return good, fmt.Errorf("tracestore: frame length torn at %d: %w", good, probe.ErrTruncated)
		}
		if _, err := io.ReadFull(br, len4[:]); err != nil {
			return good, fmt.Errorf("tracestore: frame length at %d: %w", good, err)
		}
		size := binary.LittleEndian.Uint32(len4[:])
		if size > maxFramePayload {
			return good, fmt.Errorf("tracestore: frame at %d claims %d bytes", good, size)
		}
		if total-good-frameHeader < int64(size) {
			return good, fmt.Errorf("tracestore: frame payload torn at %d: %w", good, probe.ErrTruncated)
		}
		if cap(sc.payload) < int(size) {
			sc.payload = make([]byte, size)
		}
		payload := sc.payload[:size]
		if _, err := io.ReadFull(br, payload); err != nil {
			return good, fmt.Errorf("tracestore: frame payload at %d: %w", good, err)
		}
		if err := reccodec.DecodeIndex(payload, &sc.rec); err != nil {
			return good, fmt.Errorf("tracestore: frame at %d: %w", good, err)
		}
		fn(&sc.rec, good+frameHeader, size)
		good += frameHeader + int64(size)
	}
	return good, nil
}

// offsetReader adapts ReadAt-style access into a sequential io.Reader that
// never moves a file's own seek position (the write path owns it).
type offsetReader struct {
	r   io.ReaderAt
	off int64
}

func (r *offsetReader) Read(p []byte) (int, error) {
	n, err := r.r.ReadAt(p, r.off)
	r.off += int64(n)
	return n, err
}
