package obs

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/tcdnet/tcd/internal/units"
)

func spillEvents(n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{
			At:   units.Time(i) * units.Microsecond,
			Kind: KindMarkCE,
			Port: "T0[1]->L0",
			Flow: int64(i % 7),
			Val:  int64(i) * 1500,
		}
	}
	return evs
}

// TestSpillMatchesWriteJSONL: a run that fits one chunk produces exactly
// the bytes the in-memory exporter would have written.
func TestSpillMatchesWriteJSONL(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	evs := spillEvents(2*spillBufEvents + 1000) // two mid-run flushes and Close's

	s, err := NewSpill(path, SpillOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evs {
		s.Record(e)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Written() != uint64(len(evs)) || s.Dropped() != 0 || s.Chunks() != 1 {
		t.Fatalf("written=%d dropped=%d chunks=%d", s.Written(), s.Dropped(), s.Chunks())
	}

	var want bytes.Buffer
	if err := WriteJSONL(&want, evs); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("spill output differs from WriteJSONL")
	}
	if int64(len(got)) != s.Bytes() {
		t.Fatalf("Bytes() = %d, file has %d", s.Bytes(), len(got))
	}
}

// TestSpillChunkRotation: small chunks rotate into numbered files whose
// concatenation is the full trace.
func TestSpillChunkRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	evs := spillEvents(spillBufEvents + 500)

	s, err := NewSpill(path, SpillOptions{ChunkBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evs {
		s.Record(e)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Chunks() < 2 {
		t.Fatalf("chunks = %d, want rotation with 4 KB chunks", s.Chunks())
	}

	var got bytes.Buffer
	for i := 0; i < s.Chunks(); i++ {
		name := path
		if i > 0 {
			name = fmt.Sprintf("%s.%03d", path, i)
		}
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		got.Write(b)
	}
	var want bytes.Buffer
	if err := WriteJSONL(&want, evs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("concatenated chunks differ from WriteJSONL")
	}
}

// TestSpillMaxBytesKeepsOldest: the disk cap stops recording but keeps
// the earliest events (trace consumers replay from the start).
func TestSpillMaxBytesKeepsOldest(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	evs := spillEvents(2 * spillBufEvents) // the second buffer is refused at Record

	s, err := NewSpill(path, SpillOptions{MaxBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evs {
		s.Record(e)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Dropped() == 0 {
		t.Fatal("cap did not drop anything")
	}
	if s.Written()+s.Dropped() != uint64(len(evs)) {
		t.Fatalf("written %d + dropped %d != %d", s.Written(), s.Dropped(), len(evs))
	}
	var want bytes.Buffer
	if err := WriteJSONL(&want, evs[:s.Written()]); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("capped spill does not hold the oldest events")
	}
}

// TestSpillGzipRoundTrip: a gzip chunk decompresses to the exact JSONL.
func TestSpillGzipRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl.gz")
	evs := spillEvents(800)

	s, err := NewSpill(path, SpillOptions{Gzip: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evs {
		s.Record(e)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if _, err := got.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteJSONL(&want, evs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("gzip spill does not decompress to the JSONL trace")
	}
	if s.Bytes() != int64(want.Len()) {
		t.Fatalf("Bytes() = %d (pre-compression), want %d", s.Bytes(), want.Len())
	}
}

func TestSpillCloseIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	s, err := NewSpill(path, SpillOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.Record(Event{Kind: KindMarkCE, Flow: -1})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s.Record(Event{Kind: KindMarkCE, Flow: -1})
	if s.Dropped() != 1 {
		t.Fatalf("record after close: dropped = %d, want 1", s.Dropped())
	}
}
