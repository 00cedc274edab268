package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
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

// TestJobRecordEviction: finished-job metadata is bounded; old records
// (and their SSE replay buffers) fall off while the result cache still
// serves by spec hash.
func TestJobRecordEviction(t *testing.T) {
	body := []byte(`{"ok":true}`)
	exec := func(ctx context.Context, spec *JobSpec, progress io.Writer) ([]byte, error) {
		return body, nil
	}
	// A budget that holds every body of the flood: the record ring is the
	// only bound in play.
	s := New(Config{Workers: 1, CacheBytes: (jobRecords + 8) * int64(len(body)+entryOverhead), Exec: exec})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	var firstID, firstHash string
	for i := 0; i < jobRecords+8; i++ {
		resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", strings.NewReader(distinctSpec(i)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if i == 0 {
			firstID, firstHash = resp.Header.Get("X-Job-Id"), resp.Header.Get("X-Spec-Hash")
		}
	}
	s.mu.Lock()
	records := len(s.jobs)
	s.mu.Unlock()
	if records > jobRecords {
		t.Errorf("job records not bounded: %d > %d", records, jobRecords)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + firstID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted job status: got %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/specs/" + firstHash + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("evicted job's cached result: got %d, want 200", resp.StatusCode)
	}
}
