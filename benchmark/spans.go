package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval around a call the benchmark makes into a
// layer's public API. Spans of one op share its Op id; Parent is the
// index of the enclosing span (-1 for a root).
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
	Op      int32  `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced ops pay one nil check per boundary. A tracer is
// single-threaded like the simulator; a second goroutine records into a
// fork.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, StartNs: time.Since(t.t0).Nanoseconds(), Parent: int32(parent), Op: int32(op)})
	return len(t.spans) - 1
}

// end closes the span opened by begin.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].EndNs = time.Since(t.t0).Nanoseconds()
}

// add records a span measured by the caller.
func (t *tracer) add(name string, parent, op int, start, end time.Time) {
	if t != nil {
		t.spans = append(t.spans, span{Name: name, StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(), Parent: int32(parent), Op: int32(op)})
	}
}

// fork returns a tracer sharing t's clock, for a goroutine that records
// its own spans; merge folds them back once the goroutine has finished.
func (t *tracer) fork() *tracer {
	if t == nil {
		return nil
	}
	return &tracer{t0: t.t0}
}

// merge appends a finished fork's spans. A forked span's Parent must be
// a span that existed before the fork.
func (t *tracer) merge(child *tracer) {
	if t != nil && child != nil {
		t.spans = append(t.spans, child.spans...)
	}
}

// writeFile dumps the spans as JSON under dir.
func (t *tracer) writeFile(dir, workload string, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace_"+workload+".json"), b, 0o644)
}
