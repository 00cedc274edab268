package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// blockingExec returns an ExecFunc that parks until release is closed
// (or ctx cancels) and signals each start on started.
func blockingExec(started chan<- string, release <-chan struct{}) ExecFunc {
	return func(ctx context.Context, spec *JobSpec, progress io.Writer) ([]byte, error) {
		select {
		case started <- spec.Exp:
		default:
		}
		select {
		case <-release:
			return []byte(`{"ok":true}`), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// openStreams counts the cache entries that still carry an event stream:
// one per run in flight.
func openStreams(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.cache.entries {
		if e.stream != nil {
			n++
		}
	}
	return n
}

// getJSON GETs url and decodes its JSON body into v, returning the
// status code.
func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode
}

// distinctSpec makes the i-th semantically distinct submission.
func distinctSpec(i int) string {
	return `{"exp":"deadlock-unit","seed":` + strconv.Itoa(i+1) + `}`
}

// TestBackpressure fills the worker pool and queue with blocked jobs and
// requires the next distinct submission to bounce with 429 and a
// Retry-After header, while an identical submission still coalesces.
func TestBackpressure(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	s := New(Config{Workers: 1, QueueCap: 2, Exec: blockingExec(started, release)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// Close cancels the run context, which unblocks blockingExec even if
	// the test bails before release is closed.
	defer s.Close()

	// One running + two queued fills the daemon.
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(distinctSpec(i)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fill submission %d: %d", i, resp.StatusCode)
		}
	}
	<-started // the worker picked up job 0; jobs 1,2 occupy the queue

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(distinctSpec(3)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap submission: got %d (%s), want 429", resp.StatusCode, body)
	}
	ra := resp.Header.Get("Retry-After")
	if sec, err := strconv.Atoi(ra); err != nil || sec < 1 || sec > 60 {
		t.Errorf("Retry-After %q not an int in [1,60]", ra)
	}

	// Identical to a queued spec: coalesces, does not consume a slot.
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(distinctSpec(1)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || resp.Header.Get("X-Cache") != "coalesced" {
		t.Errorf("identical submission: code %d cache %q, want 202 coalesced", resp.StatusCode, resp.Header.Get("X-Cache"))
	}

	// The rejected spec was released from the cache: once the daemon
	// drains it can be resubmitted successfully.
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _, _ := submitWait(t, ts.URL, distinctSpec(3))
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rejected spec never became submittable (last code %d)", code)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShutdownCancelsInFlight: Close cancels a running job, resolves its
// waiters with 503, and leaves no goroutines behind.
func TestShutdownCancelsInFlight(t *testing.T) {
	before := runtime.NumGoroutine()

	started := make(chan string, 1)
	s := New(Config{Workers: 2, QueueCap: 4, Exec: blockingExec(started, nil)})
	ts := httptest.NewServer(s.Handler())

	var wg sync.WaitGroup
	codes := make([]int, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", strings.NewReader(distinctSpec(i)))
			if err != nil {
				codes[i] = -1
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	<-started // at least one job is running when we pull the plug

	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return with jobs in flight")
	}
	wg.Wait()
	ts.Close()

	for i, code := range codes {
		if code != http.StatusServiceUnavailable {
			t.Errorf("waiter %d: got %d, want 503", i, code)
		}
	}
	if n := openStreams(s); n != 0 {
		t.Errorf("%d event streams open after Close, want 0", n)
	}

	// All workers and handlers drained: goroutine count returns to
	// baseline (slack for the test server's own pool).
	deadline := time.Now().Add(5 * time.Second)
	for {
		http.DefaultClient.CloseIdleConnections()
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after drain", before, after)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestGracefulShutdownDrains: Shutdown lets queued jobs finish instead
// of canceling them.
func TestGracefulShutdownDrains(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 4)
	s := New(Config{Workers: 1, QueueCap: 4, Exec: blockingExec(started, release)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", strings.NewReader(distinctSpec(i)))
			if err != nil {
				codes[i] = -1
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	<-started
	// Both submissions must be accepted before the drain starts closing
	// the door (the submit goroutines race Shutdown otherwise).
	for deadline := time.Now().Add(5 * time.Second); s.snapshot().Submitted < 2; {
		if time.Now().After(deadline) {
			t.Fatal("submissions never landed")
		}
		time.Sleep(time.Millisecond)
	}

	// Release the executor, then drain.
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("drained job %d: got %d, want 200", i, code)
		}
	}

	// New submissions after shutdown bounce with 503.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(distinctSpec(9)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown submit: got %d, want 503", resp.StatusCode)
	}
}

// specStatus is the body of GET /v1/specs/{hash}.
type specStatus struct {
	State       string
	Submissions uint64
	Error       string
	ResultURL   string `json:"result_url"`
}

// TestSpecStatusFollowsTheEntry: the status at /v1/specs/{hash} is the
// cache entry's — queued, running, then done for a run and its coalesced
// twin together, and failed with the error until a resubmission replaces
// the entry.
func TestSpecStatusFollowsTheEntry(t *testing.T) {
	started := make(chan string, 1)
	unblock, release := make(chan struct{}), make(chan struct{})
	blocker, block := blockingExec(started, unblock), blockingExec(started, release)
	var calls atomic.Int32
	exec := func(ctx context.Context, spec *JobSpec, progress io.Writer) ([]byte, error) {
		switch {
		case spec.Seed == 10:
			return blocker(ctx, spec, progress)
		case spec.Seed == 2 && calls.Add(1) == 1:
			return nil, errors.New("transient failure")
		}
		return block(ctx, spec, progress)
	}
	// One worker busy with a blocker keeps the next run queued.
	s, ts := newTestDaemon(t, Config{Workers: 1, Exec: exec})
	submit := func(spec string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp
	}
	status := func(hash string) specStatus {
		t.Helper()
		var st specStatus
		if code := getJSON(t, ts.URL+"/v1/specs/"+hash, &st); code != http.StatusOK {
			t.Fatalf("status of %s: %d", hash, code)
		}
		return st
	}

	submit(distinctSpec(9)) // occupies the worker
	<-started
	resp := submit(distinctSpec(0))
	hash := resp.Header.Get("X-Spec-Hash")
	if resp.StatusCode != http.StatusAccepted || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("submit: %d, X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if st := status(hash); st.State != "queued" {
		t.Errorf("behind a busy worker: state %q, want queued", st.State)
	}
	close(unblock)
	<-started
	if st := status(hash); st.State != "running" {
		t.Errorf("started: state %q, want running", st.State)
	}
	twin := submit(distinctSpec(0))
	if twin.StatusCode != http.StatusAccepted || twin.Header.Get("X-Cache") != "coalesced" || twin.Header.Get("X-Spec-Hash") != hash {
		t.Errorf("identical submit: %d, X-Cache %q, hash %q; want 202, coalesced, %q", twin.StatusCode, twin.Header.Get("X-Cache"), twin.Header.Get("X-Spec-Hash"), hash)
	}
	close(release)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		st := status(hash)
		if st.State == "done" {
			if st.ResultURL != "/v1/specs/"+hash+"/result" || st.Submissions != 2 {
				t.Errorf("done: result_url %q, %d submissions; want the hash's result and 2", st.ResultURL, st.Submissions)
			}
			break
		}
		if st.State != "running" || time.Now().After(deadline) {
			t.Fatalf("state %q, want running until done", st.State)
		}
	}
	if st := s.snapshot(); st.Completed != 3 || st.Misses != 2 || st.Coalesced != 1 {
		t.Errorf("%d completed, %d misses, %d coalesced; want 3 (the blocker, the run and its twin), 2 and 1", st.Completed, st.Misses, st.Coalesced)
	}

	// Seed 2 fails once: the entry reads failed with the error until the
	// spec is submitted again.
	code, hdr, _ := submitWait(t, ts.URL, distinctSpec(1))
	failed := hdr.Get("X-Spec-Hash")
	if code != http.StatusInternalServerError {
		t.Fatalf("failing run: %d, want 500", code)
	}
	if st := status(failed); st.State != "failed" || st.Error != "transient failure" {
		t.Errorf("failed run: state %q, error %q", st.State, st.Error)
	}
	var body struct{ Error string }
	if code := getJSON(t, ts.URL+"/v1/specs/"+failed+"/result", &body); code != http.StatusInternalServerError || body.Error != "transient failure" {
		t.Errorf("result of a failed run: %d %q, want 500 and its error", code, body.Error)
	}
	if code, hdr, _ := submitWait(t, ts.URL, distinctSpec(1)); code != http.StatusOK || hdr.Get("X-Cache") != "miss" {
		t.Errorf("resubmitting a failed spec: %d, X-Cache %q; want 200 miss", code, hdr.Get("X-Cache"))
	}
	if st := status(failed); st.State != "done" || st.Error != "" {
		t.Errorf("after the resubmission: state %q, error %q", st.State, st.Error)
	}
	if n := openStreams(s); n != 0 {
		t.Errorf("%d event streams open with nothing in flight", n)
	}
}
