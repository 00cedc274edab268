package obs

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
)

// SpillOptions tunes a Spill sink. The zero value spills uncompressed
// with a 64 MB chunk size and no total cap.
type SpillOptions struct {
	// ChunkBytes rotates to a new chunk file once the current one exceeds
	// this many encoded bytes (default 64 MB; encoded size is measured
	// before compression so chunk boundaries are deterministic).
	ChunkBytes int64
	// MaxBytes stops recording (counting drops) once this many total
	// encoded bytes have been spilled; 0 = unlimited. The cap keeps a
	// runaway run from filling the disk; the oldest events are the ones
	// kept, matching how trace consumers replay from the start.
	MaxBytes int64
	// Gzip compresses each chunk (name the output *.jsonl.gz).
	Gzip bool
}

// spillBufEvents is the in-memory buffer flushed as one batch (~300 KB);
// it bounds trace memory regardless of run length.
const spillBufEvents = 4096

func (o *SpillOptions) fill() {
	if o.ChunkBytes <= 0 {
		o.ChunkBytes = 64 << 20
	}
}

// Spill is a Recorder that streams events to disk as JSONL instead of
// holding the run in RAM: events gather in a fixed buffer and flush in
// batches to size-bounded chunk files (path, path.001, path.002, ...),
// optionally gzip-compressed. The first chunk is written to the given
// path itself, so a run that fits one chunk produces exactly the file
// the old in-memory exporter did, byte for byte.
//
// Like every Recorder it is single-threaded; Close flushes and reports
// the first write error encountered.
type Spill struct {
	path string
	opt  SpillOptions

	buf  []Event
	line []byte

	f  *os.File
	zw *gzip.Writer
	bw *bufio.Writer

	chunk      int
	chunkBytes int64
	totalBytes int64
	written    uint64
	dropped    uint64
	err        error
	closed     bool
}

// NewSpill opens a spill sink writing its first chunk to path.
func NewSpill(path string, opt SpillOptions) (*Spill, error) {
	opt.fill()
	s := &Spill{path: path, opt: opt, buf: make([]Event, 0, spillBufEvents)}
	if err := s.openChunk(); err != nil {
		return nil, err
	}
	return s, nil
}

// chunkPath names chunk i: the base path for chunk 0, then numbered
// suffixes appended after the full name (x.jsonl, x.jsonl.001, ...).
func (s *Spill) chunkPath(i int) string {
	if i == 0 {
		return s.path
	}
	return fmt.Sprintf("%s.%03d", s.path, i)
}

func (s *Spill) openChunk() error {
	f, err := os.Create(s.chunkPath(s.chunk))
	if err != nil {
		s.err = err
		return err
	}
	s.f = f
	var w io.Writer = f
	if s.opt.Gzip {
		s.zw = gzip.NewWriter(f)
		w = s.zw
	}
	s.bw = bufio.NewWriter(w)
	s.chunkBytes = 0
	return nil
}

func (s *Spill) closeChunk() error {
	var first error
	if s.bw != nil {
		if err := s.bw.Flush(); err != nil && first == nil {
			first = err
		}
	}
	if s.zw != nil {
		if err := s.zw.Close(); err != nil && first == nil {
			first = err
		}
		s.zw = nil
	}
	if s.f != nil {
		if err := s.f.Close(); err != nil && first == nil {
			first = err
		}
		s.f = nil
	}
	s.bw = nil
	return first
}

// Record implements Recorder. Steady state it appends into the
// preallocated buffer; every spillBufEvents records it encodes and writes
// the batch.
func (s *Spill) Record(e Event) {
	if s.err != nil || s.closed || s.capped() {
		s.dropped++
		return
	}
	s.buf = append(s.buf, e)
	if len(s.buf) >= spillBufEvents {
		s.flush()
	}
}

func (s *Spill) capped() bool {
	return s.opt.MaxBytes > 0 && s.totalBytes >= s.opt.MaxBytes
}

func (s *Spill) flush() {
	if s.err != nil {
		s.buf = s.buf[:0]
		return
	}
	for i := range s.buf {
		if s.capped() {
			s.dropped += uint64(len(s.buf) - i)
			break
		}
		s.line = s.buf[i].appendJSONL(s.line[:0])
		if _, err := s.bw.Write(s.line); err != nil {
			s.err = err
			break
		}
		n := int64(len(s.line))
		s.chunkBytes += n
		s.totalBytes += n
		s.written++
		if s.chunkBytes >= s.opt.ChunkBytes {
			if err := s.closeChunk(); err != nil && s.err == nil {
				s.err = err
				break
			}
			s.chunk++
			if err := s.openChunk(); err != nil {
				break
			}
		}
	}
	s.buf = s.buf[:0]
}

// Close flushes buffered events and closes the current chunk. It is
// idempotent and returns the first error seen over the sink's lifetime.
func (s *Spill) Close() error {
	if s.closed {
		return s.err
	}
	s.flush()
	s.closed = true
	if err := s.closeChunk(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

// Written reports events successfully encoded to disk.
func (s *Spill) Written() uint64 { return s.written }

// Dropped reports events discarded after an error or the size cap.
func (s *Spill) Dropped() uint64 { return s.dropped }

// Chunks reports how many chunk files were started.
func (s *Spill) Chunks() int { return s.chunk + 1 }

// Bytes reports total encoded (pre-compression) bytes spilled.
func (s *Spill) Bytes() int64 { return s.totalBytes }

// Err reports the first write error (nil when healthy).
func (s *Spill) Err() error { return s.err }
