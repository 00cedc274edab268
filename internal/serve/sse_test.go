package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// readSSETypes consumes an SSE stream and returns the event types in
// order until the stream closes.
func readSSETypes(t *testing.T, r io.Reader) []string {
	t.Helper()
	var types []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			types = append(types, strings.TrimPrefix(line, "event: "))
		}
	}
	return types
}

// TestSSELifecycle subscribes before the job runs and checks the event
// sequence queued -> running -> (progress...) -> done, with the stream
// closing after the terminal event.
func TestSSELifecycle(t *testing.T) {
	release := make(chan struct{})
	exec := func(ctx context.Context, spec *JobSpec, progress io.Writer) ([]byte, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		fmt.Fprintln(progress, "tick 1")
		fmt.Fprintln(progress, "tick 2")
		return []byte(`{"ok":true}`), nil
	}
	s := New(Config{Workers: 1, Exec: exec})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(shortSpec))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()

	// Subscribe while the job is still parked, then let it run.
	es, err := http.Get(ts.URL + "/v1/specs/" + resp.Header.Get("X-Spec-Hash") + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer es.Body.Close()
	if ct := es.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	close(release)

	typesCh := make(chan []string, 1)
	go func() { typesCh <- readSSETypes(t, es.Body) }()
	var types []string
	select {
	case types = <-typesCh:
	case <-time.After(10 * time.Second):
		t.Fatal("SSE stream never closed after terminal event")
	}

	joined := strings.Join(types, ",")
	for _, w := range []string{"queued", "running", "progress", "done"} {
		if !strings.Contains(joined, w) {
			t.Errorf("event sequence %q missing %q", joined, w)
		}
	}
	if types[len(types)-1] != "done" {
		t.Errorf("stream did not end on the terminal event: %q", joined)
	}
	if idxOf(types, "queued") > idxOf(types, "running") || idxOf(types, "running") > idxOf(types, "done") {
		t.Errorf("events out of order: %q", joined)
	}
}

func idxOf(ss []string, want string) int {
	for i, s := range ss {
		if s == want {
			return i
		}
	}
	return len(ss)
}

// TestSSELateSubscriber: a subscriber arriving after the run finished
// gets its terminal event alone, and the finished run keeps no stream.
func TestSSELateSubscriber(t *testing.T) {
	exec := func(ctx context.Context, spec *JobSpec, progress io.Writer) ([]byte, error) {
		fmt.Fprintln(progress, "tick")
		return []byte(`{"ok":true}`), nil
	}
	s := New(Config{Workers: 1, Exec: exec})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	code, hdr, _ := submitWait(t, ts.URL, shortSpec)
	if code != http.StatusOK {
		t.Fatalf("submit: %d", code)
	}

	es, err := http.Get(ts.URL + "/v1/specs/" + hdr.Get("X-Spec-Hash") + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer es.Body.Close()
	done := make(chan []string, 1)
	go func() { done <- readSSETypes(t, es.Body) }()
	select {
	case types := <-done:
		if joined := strings.Join(types, ","); joined != "done" {
			t.Errorf("late stream %q, want done alone", joined)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("late subscriber's stream never closed")
	}
	if n := openStreams(s); n != 0 {
		t.Errorf("%d event streams open after the run finished", n)
	}
}

// TestHubReplayBound: a run's replay ring keeps the newest replayCap
// events, oldest first.
func TestHubReplayBound(t *testing.T) {
	s := &Server{}
	e := &cacheEntry{stream: &stream{}}
	for i := 0; i < replayCap+50; i++ {
		s.publish(e, Event{"progress", fmt.Sprintf(`{"i":%d}`, i)})
	}
	replay, ch := e.subscribe()
	e.unsubscribe(ch)
	if len(replay) != replayCap {
		t.Fatalf("replay length %d, want %d", len(replay), replayCap)
	}
	for i, ev := range replay {
		if want := fmt.Sprintf(`{"i":%d}`, 50+i); ev.Data != want {
			t.Fatalf("replay[%d] = %s, want %s", i, ev.Data, want)
		}
	}
}

// TestHubSlowSubscriber: a subscriber that never drains loses events
// (counted) but never blocks the publisher.
func TestHubSlowSubscriber(t *testing.T) {
	s := &Server{}
	e := &cacheEntry{stream: &stream{}}
	_, ch := e.subscribe()
	donePub := make(chan struct{})
	go func() {
		for i := 0; i < 500; i++ {
			s.mu.Lock()
			s.publish(e, Event{"progress", "{}"})
			s.mu.Unlock()
		}
		close(donePub)
	}()
	select {
	case <-donePub:
	case <-time.After(5 * time.Second):
		t.Fatal("publisher blocked on a slow subscriber")
	}
	s.mu.Lock()
	e.unsubscribe(ch)
	dropped := s.sseDropped
	s.mu.Unlock()
	if dropped == 0 {
		t.Error("expected fan-out drops for a subscriber that never drains")
	}
}

// stalledWriter is an SSE client that has stopped reading: every write
// blocks until unblock closes. The first write signals written.
type stalledWriter struct {
	hdr     http.Header
	buf     strings.Builder
	written chan struct{}
	unblock chan struct{}
}

func (w *stalledWriter) Header() http.Header { return w.hdr }
func (w *stalledWriter) WriteHeader(int)     {}
func (w *stalledWriter) Flush()              {}

func (w *stalledWriter) Write(b []byte) (int, error) {
	select {
	case w.written <- struct{}{}:
	default:
	}
	<-w.unblock
	return w.buf.Write(b)
}

// TestSlowSubscriberGetsTerminal: a subscriber that falls behind a run
// loses progress events, but its stream still ends on the terminal one.
func TestSlowSubscriberGetsTerminal(t *testing.T) {
	start := make(chan struct{})
	exec := func(ctx context.Context, spec *JobSpec, progress io.Writer) ([]byte, error) {
		<-start
		for i := 0; i < 100; i++ {
			fmt.Fprintf(progress, "tick %d\n", i)
		}
		return []byte(`{"ok":true}`), nil
	}
	s, ts := newTestDaemon(t, Config{Workers: 1, Exec: exec})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(shortSpec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// The client subscribes, then stalls on its first write: the replay.
	w := &stalledWriter{hdr: http.Header{}, written: make(chan struct{}, 1), unblock: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		req := httptest.NewRequest("GET", "/v1/specs/"+resp.Header.Get("X-Spec-Hash")+"/events", nil)
		s.Handler().ServeHTTP(w, req)
	}()
	<-w.written
	close(start)
	if code, _, _ := submitWait(t, ts.URL, shortSpec); code != http.StatusOK {
		t.Fatalf("waiting on the run: %d", code)
	}
	close(w.unblock)
	select {
	case <-served:
	case <-time.After(10 * time.Second):
		t.Fatal("stalled subscriber's stream never closed")
	}

	types := readSSETypes(t, strings.NewReader(w.buf.String()))
	if joined := strings.Join(types, ","); len(types) == 0 || types[len(types)-1] != "done" {
		t.Errorf("stream did not end on its terminal event: %q", joined)
	}
	if st := s.snapshot(); st.SSEDropped == 0 {
		t.Error("no drops counted for a subscriber 100 events behind")
	}
}

// TestProgressEventBytes holds the SSE frames of progress lines, and the
// package's one JSON string quoter, to the bytes json.Marshal gave them:
// HTML-escaped, control bytes and invalid UTF-8 escaped, one event per
// non-empty line.
func TestProgressEventBytes(t *testing.T) {
	lines := []string{
		"progress: sim=1.5ms wall=3ms events=12345 rate=4.12M ev/s pending=31",
		`run 2/4 done <exp="fig3" & seed=2>`,
		"tab\tquote\" back\\slash del\x7f ctl\x01\x1f\b\f\r",
		"é U+2028:\u2028 U+2029:\u2029 bad:\xff\xc3 end",
	}
	s := &Server{}
	e := &cacheEntry{stream: &stream{}}
	w := progressWriter{s, e}
	_, _ = w.Write([]byte(lines[0] + "\n"))
	_, _ = w.Write([]byte(lines[1] + "\n\n" + lines[2] + "\n"))
	_, _ = w.Write([]byte(lines[3]))
	if len(e.stream.replay) != len(lines) {
		t.Fatalf("%d events, want %d", len(e.stream.replay), len(lines))
	}
	for i, line := range lines {
		b, err := json.Marshal(line)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := e.stream.replay[i].sse(), (Event{"progress", string(b)}).sse(); got != want {
			t.Errorf("line %d: got %q, want %q", i, got, want)
		}
	}

	rnd := rand.New(rand.NewSource(1))
	alphabet := []byte("a <>&\"\\\x00\x1f\x7f\n\t\xe2\x80\xa8\xa9\xc3\xa9\xff")
	for n := 0; n < 5000; n++ {
		src := make([]byte, rnd.Intn(24))
		for i := range src {
			src[i] = alphabet[rnd.Intn(len(alphabet))]
		}
		want, _ := json.Marshal(string(src))
		if got := mustJSON(string(src)); got != string(want) {
			t.Fatalf("mustJSON(%q) = %s, want %s", src, got, want)
		}
	}
}

// TestProgressWriteAllocs holds a progress write to one allocation per
// line, the event's data string, once the replay ring is full.
func TestProgressWriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race changes allocation counts")
	}
	s := &Server{}
	e := &cacheEntry{stream: &stream{}}
	w := progressWriter{s, e}
	one := []byte("progress: sim=1.5ms wall=3ms events=12345 rate=4.12M ev/s pending=31\n")
	two := []byte("run 1/2 done <a & \"b\">\nrun 2/2 start\n")
	for i := 0; i < replayCap; i++ {
		_, _ = w.Write(one)
	}
	if a := testing.AllocsPerRun(100, func() { _, _ = w.Write(one) }); a != 1 {
		t.Errorf("a one-line write takes %.0f allocations, want 1", a)
	}
	if a := testing.AllocsPerRun(100, func() { _, _ = w.Write(two) }); a != 2 {
		t.Errorf("a two-line write takes %.0f allocations, want 2", a)
	}
}
