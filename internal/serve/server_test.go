package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tcdnet/tcd/internal/exp"
)

// newTestDaemon builds a Server on an httptest listener and tears both
// down with the test.
func newTestDaemon(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// submitWait POSTs a spec with ?wait=1 and returns status, headers and
// body.
func submitWait(t *testing.T, base, spec string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs?wait=1", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading result: %v", err)
	}
	return resp.StatusCode, resp.Header, b
}

// shortSpec is a real catalog run small enough for unit tests: the
// 3-switch deadlock ring at a 50 µs horizon.
const shortSpec = `{"exp":"deadlock-unit","seed":3,"horizon_us":50}`

// shortFlood submits n more such runs, one per seed from 100 up: enough
// distinct bodies to push shortSpec's out of a few-KB budget.
func shortFlood(t *testing.T, base string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		submitWait(t, base, fmt.Sprintf(`{"exp":"deadlock-unit","seed":%d,"horizon_us":50}`, 100+i))
	}
}

// TestEndToEndDeterminism races N concurrent submissions of one spec
// through a live daemon and requires every response — cache-miss,
// coalesced and warm-hit alike — to be byte-identical. A second daemon
// recomputes the same spec from scratch to pin down cross-process
// determinism, not just single-entry caching.
func TestEndToEndDeterminism(t *testing.T) {
	_, ts := newTestDaemon(t, Config{Workers: 4, QueueCap: 64})

	const n = 16
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		bodies [][]byte
		caches []string
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, hdr, b := submitWait(t, ts.URL, shortSpec)
			mu.Lock()
			defer mu.Unlock()
			if code != http.StatusOK {
				t.Errorf("submit returned %d: %s", code, b)
				return
			}
			bodies = append(bodies, b)
			caches = append(caches, hdr.Get("X-Cache"))
		}()
	}
	wg.Wait()
	if len(bodies) != n {
		t.Fatalf("only %d/%d submissions succeeded", len(bodies), n)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs from response 0 (%d vs %d bytes)", i, len(bodies[i]), len(bodies[0]))
		}
	}
	// Exactly one submission computed; the rest coalesced or hit warm.
	misses := 0
	for _, c := range caches {
		if c == "miss" {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("want exactly 1 cache miss across %d identical submissions, got %d (%v)", n, misses, caches)
	}

	// A second wave is all warm hits, still byte-identical.
	code, hdr, b := submitWait(t, ts.URL, shortSpec)
	if code != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		t.Fatalf("second wave: code %d cache %q", code, hdr.Get("X-Cache"))
	}
	if !bytes.Equal(b, bodies[0]) {
		t.Fatal("warm-hit bytes differ from cache-miss bytes")
	}

	// An independent daemon recomputes identical bytes.
	_, ts2 := newTestDaemon(t, Config{Workers: 1})
	code, _, b2 := submitWait(t, ts2.URL, shortSpec)
	if code != http.StatusOK {
		t.Fatalf("second daemon: %d: %s", code, b2)
	}
	if !bytes.Equal(b2, bodies[0]) {
		t.Fatal("independent daemon produced different bytes for the same spec")
	}

	// Whitespace/field-order variants of the spec land on the same entry.
	variant := `{"horizon_us":50, "seed":3, "exp":"deadlock-unit"}`
	code, hdr, b3 := submitWait(t, ts.URL, variant)
	if code != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		t.Fatalf("variant spec: code %d cache %q", code, hdr.Get("X-Cache"))
	}
	if !bytes.Equal(b3, bodies[0]) {
		t.Fatal("variant spelling produced different bytes")
	}
}

// TestAsyncLifecycle exercises the poll path: 202 on submit, the spec's
// status transitions to done, and its result URL serves the bytes a
// blocking resubmission gets from the cache.
func TestAsyncLifecycle(t *testing.T) {
	_, ts := newTestDaemon(t, Config{Workers: 2})

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(shortSpec))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	hash := resp.Header.Get("X-Spec-Hash")
	if hash == "" {
		t.Fatal("missing X-Spec-Hash")
	}

	var st specStatus
	for deadline := time.Now().Add(10 * time.Second); st.State != "done"; time.Sleep(10 * time.Millisecond) {
		if getJSON(t, ts.URL+"/v1/specs/"+hash, &st); st.State == "failed" {
			t.Fatalf("run failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never finished: state %q", st.State)
		}
	}

	r1, err := http.Get(ts.URL + st.ResultURL)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := io.ReadAll(r1.Body)
	r1.Body.Close()
	if r1.StatusCode != http.StatusOK || len(b1) == 0 {
		t.Fatalf("result at %q: %d (%d bytes)", st.ResultURL, r1.StatusCode, len(b1))
	}
	code, hdr, b2 := submitWait(t, ts.URL, shortSpec)
	if code != http.StatusOK || hdr.Get("X-Cache") != "hit" || !bytes.Equal(b1, b2) {
		t.Fatalf("resubmission: %d, X-Cache %q, same bytes as the result URL %v", code, hdr.Get("X-Cache"), bytes.Equal(b1, b2))
	}
}

// TestSubmitRejectsBadSpecs: the parse layer guards the queue.
func TestSubmitRejectsBadSpecs(t *testing.T) {
	_, ts := newTestDaemon(t, Config{Workers: 1})
	for _, body := range []string{
		`{`,
		`{"exp":"nope"}`,
		`{"exp":"fig3","bogus":true}`,
		`{"exp":"fig3","runs":1000000}`,
		`{"exp":"fig11","horizon_us":1e-7}`,
		`{"exp":"fig16"}`,
	} {
		code, _, _ := submitWait(t, ts.URL, body)
		if code != http.StatusBadRequest {
			t.Errorf("spec %q: got %d, want 400", body, code)
		}
	}
}

// TestExpsListsWhatTheParserAdmits: /v1/exps and ParseJobSpec read the
// same registry, so the catalog names exactly the scenarios of
// exp.Scenarios (what `tcdsim -list` prints) whose minimal spec is
// admitted, in registry order.
func TestExpsListsWhatTheParserAdmits(t *testing.T) {
	_, ts := newTestDaemon(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/exps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var served []struct{ Name string }
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil {
		t.Fatalf("decoding /v1/exps: %v", err)
	}
	var got, want []string
	for _, e := range served {
		got = append(got, e.Name)
	}
	for _, sc := range exp.Scenarios {
		if _, err := ParseJobSpec([]byte(fmt.Sprintf(`{"exp":%q}`, sc.Name))); err == nil {
			want = append(want, sc.Name)
		}
	}
	if len(got) == 0 || !slices.Equal(got, want) {
		t.Errorf("/v1/exps serves %v, the parser admits %v", got, want)
	}
}

// TestMetricsEndpoint scrapes /metrics after traffic and checks the
// Prometheus families exist with sane values, then floods a budget that
// holds a handful of bodies and requires both endpoints to report the
// cache inside it.
func TestMetricsEndpoint(t *testing.T) {
	const budget = 16 << 10
	_, ts := newTestDaemon(t, Config{Workers: 2, CacheBytes: budget})
	submitWait(t, ts.URL, shortSpec)
	submitWait(t, ts.URL, shortSpec) // warm hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(b)
	for _, w := range []string{
		`tcdsimd_jobs_total{state="submitted"} 2`,
		`tcdsimd_jobs_total{state="completed"} 2`,
		`tcdsimd_cache_requests_total{kind="warm-hit"} 1`,
		`tcdsimd_cache_requests_total{kind="miss"} 1`,
		"# TYPE tcdsimd_jobs_total counter",
		"tcdsimd_queue_cap 64",
		"tcdsimd_cache_budget_bytes 16384",
		"\ntcdsimd_cache_bytes ",
	} {
		if !strings.Contains(text, w) {
			t.Errorf("/metrics missing %q in:\n%s", w, text)
		}
	}

	st, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	sb, _ := io.ReadAll(st.Body)
	st.Body.Close()
	if !strings.Contains(string(sb), `"cache_warm_hits": 1`) {
		t.Errorf("/v1/stats missing warm hit count:\n%s", sb)
	}

	shortFlood(t, ts.URL, 32)
	st, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	err = json.NewDecoder(st.Body).Decode(&stats)
	st.Body.Close()
	if err != nil || stats.CacheBudget != budget || stats.CacheBytes <= 0 || stats.CacheBytes > stats.CacheBudget || stats.CacheEvicted == 0 {
		t.Errorf("/v1/stats after a flood (decode error %v): %d of %d cache bytes, %d evicted", err, stats.CacheBytes, stats.CacheBudget, stats.CacheEvicted)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := fmt.Sprintf("\ntcdsimd_cache_bytes %d\n", stats.CacheBytes); !strings.Contains(string(b), want) {
		t.Errorf("/metrics after a flood missing %q in:\n%s", want, b)
	}
}

// TestStatsSnapshotIsOneInstant polls the stats snapshot while four
// clients submit against a small queue. Every submission is counted
// once, as a warm hit, a miss, a coalesced twin or a rejection, and no
// more submissions can have resolved than were made: a snapshot that
// reads its counters at different instants breaks one or the other.
func TestStatsSnapshotIsOneInstant(t *testing.T) {
	s, ts := newTestDaemon(t, Config{Workers: 2, QueueCap: 4, Exec: func(context.Context, *JobSpec, io.Writer) ([]byte, error) {
		return []byte(`{}`), nil
	}})
	const clients, perClient = 4, 300
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(distinctSpec((c*perClient+i)%97)))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
			}
		}()
	}
	submitted := make(chan struct{})
	go func() { wg.Wait(); close(submitted) }()

	polls, torn := 0, 0
	for done := false; !done; polls++ {
		select {
		case <-submitted:
			done = true
		default:
		}
		st := s.snapshot()
		if st.Submitted != st.WarmHits+st.Misses+st.Coalesced+st.Rejected || st.Completed+st.Failed+st.Canceled > st.Submitted {
			if torn++; torn == 1 {
				t.Errorf("torn snapshot: %+v", st)
			}
		}
	}
	if torn > 0 {
		t.Errorf("%d torn snapshots in %d polls", torn, polls)
	}
	if st := s.snapshot(); st.Submitted != clients*perClient {
		t.Errorf("%d submissions counted, want %d", st.Submitted, clients*perClient)
	}
}

// TestFailedJobNotCached: a failing exec resolves waiters with the
// error, and the next identical submission retries instead of serving
// the failure from cache.
func TestFailedJobNotCached(t *testing.T) {
	var calls int32
	var mu sync.Mutex
	exec := func(ctx context.Context, spec *JobSpec, progress io.Writer) ([]byte, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n == 1 {
			return nil, fmt.Errorf("transient failure %d", n)
		}
		return []byte(`{"ok":true}`), nil
	}
	_, ts := newTestDaemon(t, Config{Workers: 1, Exec: exec})

	code, _, body := submitWait(t, ts.URL, shortSpec)
	if code != http.StatusInternalServerError {
		t.Fatalf("first submit: got %d (%s), want 500", code, body)
	}
	code, hdr, body := submitWait(t, ts.URL, shortSpec)
	if code != http.StatusOK {
		t.Fatalf("retry submit: got %d (%s), want 200", code, body)
	}
	if hdr.Get("X-Cache") != "miss" {
		t.Errorf("retry should recompute, got X-Cache %q", hdr.Get("X-Cache"))
	}
}

// TestMisfitFaultsFailAsInput submits a fault schedule that passes the
// static checks but names a link fig3's topology lacks. The run rejects
// it when it arms the injector; the entry fails with that message, as
// bad input rather than as a panic.
func TestMisfitFaultsFailAsInput(t *testing.T) {
	_, ts := newTestDaemon(t, Config{Workers: 1})
	code, _, body := submitWait(t, ts.URL,
		`{"exp":"fig3","horizon_us":100,"faults":{"events":[{"kind":"link-down","link":"X-Y","at_us":10}]}}`)
	var doc struct{ Error string }
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("status %d, body %q is not an error document: %v", code, body, err)
	}
	if code != http.StatusInternalServerError || !strings.HasSuffix(doc.Error, `: exp: fault: event 0: cannot resolve link "X-Y"`) ||
		strings.Contains(doc.Error, "panicked") {
		t.Errorf("status %d, error %q; want 500 and the injector's message without a panic prefix", code, doc.Error)
	}
}

// mixedWave sends one concurrent wave of n ?wait=1 submissions — warm
// ones from a pool of four specs, each sent many times, beside a
// never-seen cold one every third (n/3 + 4 distinct specs) — and requires
// every body to be want's for the spec that was sent.
func mixedWave(t *testing.T, base string, n int, want func(*JobSpec) []byte) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		raw := distinctSpec(i % 4) // warm pool
		if i%3 == 0 {
			raw = distinctSpec(4 + i) // cold
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			spec, err := ParseJobSpec([]byte(raw))
			if err != nil {
				t.Errorf("spec %s: %v", raw, err)
				return
			}
			resp, err := http.Post(base+"/v1/jobs?wait=1", "application/json", strings.NewReader(raw))
			if err != nil {
				t.Errorf("spec %s: %v", raw, err)
				return
			}
			defer resp.Body.Close()
			got, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got, want(spec)) {
				t.Errorf("spec %s: status %d, read error %v, wrong body (%d bytes): %.80q", raw, resp.StatusCode, err, len(got), got)
			}
		}()
	}
	wg.Wait()
}

// TestMixedWave sends one concurrent wave of warm submissions beside
// never-seen cold ones to a four-worker daemon: hits, coalesced twins
// and misses interleave on the cache, the queue and the event streams at
// once.
// Every body must be the stub's output for the spec that was sent.
func TestMixedWave(t *testing.T) {
	echo := func(spec *JobSpec) []byte {
		return append([]byte(`{"echo":`), append(spec.Canonical(), '}')...)
	}
	s, ts := newTestDaemon(t, Config{Workers: 4, QueueCap: 256, Exec: func(_ context.Context, spec *JobSpec, _ io.Writer) ([]byte, error) {
		return echo(spec), nil
	}})

	const n = 96
	mixedWave(t, ts.URL, n, echo)

	st := s.snapshot()
	if st.WarmHits+st.Coalesced == 0 {
		t.Error("no warm submission met the cache")
	}
	if st.Failed != 0 || st.Misses != n/3+4 {
		t.Errorf("%d failed, %d misses; want 0 and %d (one per distinct spec)", st.Failed, st.Misses, n/3+4)
	}
	assertOnlyTheCacheHolds(t, s, n/3+4)
}

// assertOnlyTheCacheHolds requires that, with nothing in flight, the
// daemon keeps per-spec state in the cache alone: no entry carries an
// event stream and the live entries are at most the distinct specs
// submitted.
func assertOnlyTheCacheHolds(t *testing.T, s *Server, distinct int) {
	t.Helper()
	if n := openStreams(s); n != 0 {
		t.Errorf("%d event streams open with nothing in flight", n)
	}
	if live := s.snapshot().CacheLive; live > distinct {
		t.Errorf("%d live cache entries for %d distinct specs", live, distinct)
	}
}
