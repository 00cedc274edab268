package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tcdnet/tcd/internal/exp"
	"github.com/tcdnet/tcd/internal/obs"
)

// Config tunes a Server.
type Config struct {
	// Workers is the simulation worker-pool size (<= 0 = GOMAXPROCS).
	Workers int
	// QueueCap bounds the jobs waiting for a worker; submissions past
	// the cap are rejected with 429 + Retry-After (<= 0 = 64).
	QueueCap int
	// CacheBytes is the completed-result cache's byte budget: bodies
	// plus a fixed per-entry overhead (<= 0 = 32 MiB, eight of the
	// largest bodies a tracer can produce).
	CacheBytes int64
	// Exec runs one job (nil = CatalogExec). Tests inject stubs here.
	Exec ExecFunc
}

// jobRecords bounds the finished-job metadata (and SSE replay buffers) a
// Server retains. A record names its result by spec hash and holds no
// bytes: the cache's budget alone decides how long a body lives, so a
// record may outlive its result (410 Gone) or the result its record.
const jobRecords = 4096

// errShutdown resolves jobs orphaned by a daemon shutdown.
var errShutdown = errors.New("serve: daemon shutting down")

// job is one submission's lifecycle record. The result itself lives in
// the cache under hash; the job carries identity and state.
type job struct {
	id   string
	spec *JobSpec
	hash string
	// cache is how this submission met the cache: "miss" (this job's
	// run produced the entry), "coalesced" (attached to an in-flight
	// twin), or "hit" (served from a completed entry).
	cache string

	mu        sync.Mutex
	state     string // queued | running | done | failed | canceled
	errMsg    string
	submitted time.Time
	finished  time.Time
}

func (j *job) setState(state, errMsg string) {
	j.mu.Lock()
	j.state = state
	if errMsg != "" {
		j.errMsg = errMsg
	}
	if state == "done" || state == "failed" || state == "canceled" {
		j.finished = time.Now()
	}
	j.mu.Unlock()
}

// view renders the status JSON under the job's lock.
func (j *job) view() map[string]interface{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := map[string]interface{}{
		"id":    j.id,
		"hash":  j.hash,
		"exp":   j.spec.Exp,
		"state": j.state,
		"cache": j.cache,
	}
	if j.errMsg != "" {
		v["error"] = j.errMsg
	}
	if !j.finished.IsZero() {
		v["wall_ms"] = float64(j.finished.Sub(j.submitted).Microseconds()) / 1000
	}
	if j.state == "done" {
		v["result_url"] = "/v1/jobs/" + j.id + "/result"
	}
	return v
}

// Server is the simulation-as-a-service daemon core: HTTP handlers in
// front of a bounded job queue, a worker pool, the spec-hash result
// cache and the SSE hub. It carries no listener of its own — callers
// mount Handler() on an http.Server (cmd/tcdsimd) or httptest (tests).
type Server struct {
	exec        ExecFunc
	queueCap    int
	workerCount int

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	queue  chan queued

	hub   *hub
	cache *resultCache
	mux   *http.ServeMux

	mu        sync.Mutex
	closed    bool
	jobs      map[string]*job
	doneOrder []string // finished job ids, oldest first, for record eviction
	nextID    uint64
	// attached maps an in-flight entry to every job waiting on it (the
	// owning "miss" job first); resolved and published together.
	attached map[*cacheEntry][]*job

	histMu  sync.Mutex
	latency *obs.Hist // completed-run wall time, microseconds

	// lock-free counters for /metrics and /v1/stats
	submitted uint64
	completed uint64
	failed    uint64
	canceled  uint64
	rejected  uint64
	warmHits  uint64
	coalesced uint64
	misses    uint64
	inflight  int64
	// pending counts enqueued-but-unresolved owning jobs. Unlike
	// inflight it is incremented at enqueue time, so the dequeue-to-run
	// handoff window is covered and Shutdown's drain poll cannot fire
	// between a worker taking a job and starting it.
	pending int64
}

// queued is an owning ("miss") job on its way to a worker, with the
// in-flight entry its run resolves.
type queued struct {
	j     *job
	entry *cacheEntry
}

// New builds and starts a Server (workers begin immediately).
func New(cfg Config) *Server {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	queueCap := cfg.QueueCap
	if queueCap <= 0 {
		queueCap = 64
	}
	cacheBytes := cfg.CacheBytes
	if cacheBytes <= 0 {
		cacheBytes = 32 << 20
	}
	exec := cfg.Exec
	if exec == nil {
		exec = CatalogExec
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		exec:        exec,
		queueCap:    queueCap,
		workerCount: workers,
		ctx:         ctx,
		cancel:      cancel,
		queue:       make(chan queued, queueCap),
		hub:         newHub(),
		cache:       newResultCache(cacheBytes),
		jobs:        make(map[string]*job),
		attached:    make(map[*cacheEntry][]*job),
		latency:     obs.NewHist(),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/specs/{hash}/result", s.handleSpecResult)
	s.mux.HandleFunc("GET /v1/exps", s.handleExps)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Workers reports the resolved worker-pool size.
func (s *Server) Workers() int { return s.workerCount }

// Shutdown drains gracefully: new submissions are rejected with 503,
// queued and in-flight jobs are given until ctx expires to finish, then
// Close tears the rest down. Always returns after Close.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	var err error
wait:
	for {
		if atomic.LoadInt64(&s.pending) == 0 {
			break
		}
		select {
		case <-ctx.Done():
			err = ctx.Err()
			break wait
		case <-time.After(5 * time.Millisecond):
		}
	}
	s.Close()
	return err
}

// Close stops the daemon immediately: the run context is canceled (the
// executor stops at its next run boundary), workers are joined, jobs
// still in the queue are resolved as canceled so no waiter hangs, and
// every SSE stream is closed.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed && s.ctx.Err() != nil {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
	// Workers are gone; anything left in the queue never started.
	for {
		select {
		case q := <-s.queue:
			atomic.AddInt64(&s.pending, -1)
			s.finishEntry(q.entry, nil, errShutdown, 0, true)
		default:
			s.hub.close()
			return
		}
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case q := <-s.queue:
			s.runJob(q.j, q.entry)
		}
	}
}

// runJob executes one owning ("miss") job and resolves everyone
// attached to its cache entry.
func (s *Server) runJob(j *job, entry *cacheEntry) {
	atomic.AddInt64(&s.inflight, 1)
	defer atomic.AddInt64(&s.inflight, -1)
	defer atomic.AddInt64(&s.pending, -1)
	j.setState("running", "")
	s.hub.publish(j.id, Event{"running", fmt.Sprintf(`{"id":%q,"hash":%q}`, j.id, j.hash)})
	start := time.Now()
	pw := &progressWriter{hub: s.hub, id: j.id}
	b, err := s.exec(s.ctx, j.spec, pw)
	pw.flush()
	wall := time.Since(start)
	if err == nil {
		s.histMu.Lock()
		s.latency.Observe(wall.Microseconds())
		s.histMu.Unlock()
	}
	canceled := err != nil && (errors.Is(err, context.Canceled) || s.ctx.Err() != nil)
	s.finishEntry(entry, b, err, wall, canceled)
}

// finishEntry resolves entry and every job attached to it (owner
// included): result bytes into the cache, then states, counters, SSE
// streams and the finished-job ring. All of it is one s.mu section.
// Completing the entry wakes its ?wait=1 clients, and whatever such a
// client does next (submit again, fetch its job) goes through s.mu, so
// it cannot see a job that has finished but is not yet recorded — the
// window that let the record ring read one past its cap.
func (s *Server) finishEntry(entry *cacheEntry, b []byte, err error, wall time.Duration, canceled bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs := s.attached[entry]
	delete(s.attached, entry)
	s.cache.complete(entry, b, err, wall)
	state := "done"
	errMsg := ""
	switch {
	case canceled:
		state, errMsg = "canceled", errShutdown.Error()
		if err != nil {
			errMsg = err.Error()
		}
	case err != nil:
		state, errMsg = "failed", err.Error()
	}
	for _, j := range jobs {
		j.setState(state, errMsg)
		switch state {
		case "done":
			atomic.AddUint64(&s.completed, 1)
		case "failed":
			atomic.AddUint64(&s.failed, 1)
		default:
			atomic.AddUint64(&s.canceled, 1)
		}
		data := fmt.Sprintf(`{"id":%q,"hash":%q,"state":%q,"wall_ms":%.3f,"bytes":%d,"error":%s}`,
			j.id, j.hash, state, float64(entry.wall.Microseconds())/1000, len(entry.bytes), mustJSON(errMsg))
		s.hub.publish(j.id, Event{state, data})
		s.recordFinishedLocked(j.id)
	}
}

// recordFinishedLocked (s.mu held) appends a finished job to the ring
// and evicts the oldest records (and their SSE replay buffers) past the
// cap.
func (s *Server) recordFinishedLocked(id string) {
	s.doneOrder = append(s.doneOrder, id)
	for len(s.doneOrder) > 0 && len(s.jobs) > jobRecords {
		old := s.doneOrder[0]
		s.doneOrder = s.doneOrder[1:]
		delete(s.jobs, old)
		s.hub.drop(old)
	}
}

// retryAfterSeconds estimates the queue drain time for the Retry-After
// header: mean job wall time x queue depth / workers, clamped to
// [1, 60] s. With no completed job yet there is nothing to extrapolate
// from, so it answers 1.
func (s *Server) retryAfterSeconds() int {
	s.histMu.Lock()
	mean := s.latency.Mean() // microseconds
	n := s.latency.Count()
	s.histMu.Unlock()
	if n == 0 {
		return 1
	}
	sec := mean / 1e6 * float64(len(s.queue)) / float64(s.workerCount)
	if sec < 1 {
		return 1
	}
	if sec > 60 {
		return 60
	}
	return int(sec + 0.5)
}

// handleSubmit accepts a spec, canonicalizes and hashes it, and either
// serves it from cache, coalesces it onto an identical in-flight job, or
// enqueues it. ?wait=1 blocks until the result is ready and returns the
// result bytes directly (the load harness path).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, MaxSpecBytes)
	data, err := io.ReadAll(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("serve: reading body: %w", err))
		return
	}
	spec, err := ParseJobSpec(data)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	hash := spec.Hash()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, errShutdown)
		return
	}
	entry, created := s.cache.reserve(hash)
	s.nextID++
	j := &job{
		id: fmt.Sprintf("j%08d", s.nextID), spec: spec, hash: hash,
		submitted: time.Now(), state: "queued",
	}
	s.jobs[j.id] = j
	atomic.AddUint64(&s.submitted, 1)
	switch {
	case created && len(s.queue) == cap(s.queue):
		// Backpressure: undo the reservation and the job record, and
		// tell the client when the queue should have drained.
		delete(s.jobs, j.id)
		s.cache.release(entry, errors.New("serve: queue full"))
		atomic.AddUint64(&s.rejected, 1)
		retry := s.retryAfterSeconds()
		s.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeErr(w, http.StatusTooManyRequests,
			fmt.Errorf("serve: job queue full (%d queued); retry after %ds", s.queueCap, retry))
		return
	case created:
		// A worker owns j from the moment it is sent, so everything the
		// worker reads (j.cache) or follows ("queued" before its
		// "running") is settled first. s.mu serialises senders and
		// workers only drain, so the room checked above is still there
		// and the send cannot block.
		j.cache = "miss"
		atomic.AddInt64(&s.pending, 1)
		atomic.AddUint64(&s.misses, 1)
		s.attached[entry] = append(s.attached[entry], j)
		s.hub.publish(j.id, Event{"queued", fmt.Sprintf(`{"id":%q,"hash":%q,"cache":"miss","queue_depth":%d}`, j.id, j.hash, len(s.queue)+1)})
		s.queue <- queued{j, entry}
	case entry.completed():
		// A failed entry leaves the map in the critical section that
		// resolves it, so a completed entry reserve returns succeeded.
		j.cache = "hit"
		atomic.AddUint64(&s.warmHits, 1)
		j.state = "done"
		j.finished = time.Now()
		atomic.AddUint64(&s.completed, 1)
		s.hub.publish(j.id, Event{"cached", fmt.Sprintf(`{"id":%q,"hash":%q}`, j.id, j.hash)})
		s.hub.publish(j.id, Event{"done", fmt.Sprintf(`{"id":%q,"hash":%q,"state":"done","cache":"hit","bytes":%d}`, j.id, j.hash, len(entry.bytes))})
		s.recordFinishedLocked(j.id)
	default:
		j.cache = "coalesced"
		atomic.AddUint64(&s.coalesced, 1)
		s.attached[entry] = append(s.attached[entry], j)
		s.hub.publish(j.id, Event{"coalesced", fmt.Sprintf(`{"id":%q,"hash":%q}`, j.id, j.hash)})
	}
	s.mu.Unlock()

	if r.URL.Query().Get("wait") != "" {
		s.waitAndServeResult(w, r, j, entry)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Job-Id", j.id)
	w.Header().Set("X-Spec-Hash", j.hash)
	w.Header().Set("X-Cache", j.cache)
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(j.view()) //nolint:errcheck
}

// waitAndServeResult blocks until the job's entry resolves, then serves
// the result bytes (or the error). The request holds the entry only
// until it has written it, so an eviction meanwhile costs it nothing.
func (s *Server) waitAndServeResult(w http.ResponseWriter, r *http.Request, j *job, entry *cacheEntry) {
	select {
	case <-entry.done:
	case <-r.Context().Done():
		writeErr(w, http.StatusRequestTimeout, r.Context().Err())
		return
	}
	s.serveEntry(w, entry, j)
}

// serveEntry writes a resolved entry's bytes or error. j, when non-nil,
// contributes the identity headers.
func (s *Server) serveEntry(w http.ResponseWriter, entry *cacheEntry, j *job) {
	if j != nil {
		w.Header().Set("X-Job-Id", j.id)
		w.Header().Set("X-Cache", j.cache)
	}
	w.Header().Set("X-Spec-Hash", entry.hash)
	if entry.err != nil {
		code := http.StatusInternalServerError
		if errors.Is(entry.err, errShutdown) || errors.Is(entry.err, context.Canceled) {
			code = http.StatusServiceUnavailable
		}
		writeErr(w, code, entry.err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(entry.bytes)))
	w.Write(entry.bytes) //nolint:errcheck
}

func (s *Server) lookupJob(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, errors.New("serve: unknown job"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(j.view()) //nolint:errcheck
}

// handleResult serves a finished job's body from the cache by its spec
// hash. The record holds no bytes, so a done job whose body the budget
// has dropped answers 410 Gone: the hash is in the header and a
// resubmission recomputes the same bytes.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, errors.New("serve: unknown job"))
		return
	}
	j.mu.Lock()
	state, errMsg := j.state, j.errMsg
	j.mu.Unlock()
	w.Header().Set("X-Spec-Hash", j.hash)
	switch state {
	case "done":
		entry := s.cache.lookup(j.hash)
		if entry == nil || !entry.completed() {
			writeErr(w, http.StatusGone, fmt.Errorf("serve: result of job %s left the cache; resubmit the spec", j.id))
			return
		}
		s.serveEntry(w, entry, j)
	case "failed":
		writeErr(w, http.StatusInternalServerError, errors.New(errMsg))
	case "canceled":
		writeErr(w, http.StatusServiceUnavailable, errors.New(errMsg))
	default:
		writeErr(w, http.StatusConflict, fmt.Errorf("serve: job %s not finished (state %s)", j.id, state))
	}
}

func (s *Server) handleSpecResult(w http.ResponseWriter, r *http.Request) {
	entry := s.cache.lookup(r.PathValue("hash"))
	if entry == nil || !entry.completed() || entry.err != nil {
		writeErr(w, http.StatusNotFound, errors.New("serve: no cached result for spec"))
		return
	}
	s.serveEntry(w, entry, nil)
}

// handleEvents streams a job's SSE feed: the replay buffer first, then
// live events until a terminal event, client disconnect, or shutdown.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, errors.New("serve: unknown job"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, errors.New("serve: streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	replay, sub := s.hub.subscribe(j.id)
	defer s.hub.unsubscribe(j.id, sub)
	for _, ev := range replay {
		io.WriteString(w, ev.sse()) //nolint:errcheck
		if ev.terminal() {
			fl.Flush()
			return
		}
	}
	fl.Flush()
	for {
		select {
		case ev, ok := <-sub.ch:
			if !ok {
				return
			}
			io.WriteString(w, ev.sse()) //nolint:errcheck
			fl.Flush()
			if ev.terminal() {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleExps(w http.ResponseWriter, _ *http.Request) {
	type expJSON struct {
		Name    string   `json:"name"`
		Desc    string   `json:"desc"`
		Dets    []string `json:"dets,omitempty"`
		CCs     []string `json:"ccs,omitempty"`
		Faults  bool     `json:"faults"`
		Default struct {
			Det string `json:"det,omitempty"`
			CC  string `json:"cc,omitempty"`
		} `json:"default"`
	}
	var out []expJSON
	for _, sc := range exp.Scenarios {
		if !sc.ServiceAddressable() {
			continue
		}
		ej := expJSON{Name: sc.Name, Desc: sc.Desc, Faults: sc.Faults}
		for _, d := range sc.Dets {
			ej.Dets = append(ej.Dets, d.String())
		}
		for _, c := range sc.CCs {
			ej.CCs = append(ej.CCs, c.String())
		}
		if len(sc.Dets) > 0 {
			ej.Default.Det = sc.DefaultDet.String()
		}
		if len(sc.CCs) > 0 {
			ej.Default.CC = sc.DefaultCC.String()
		}
		out = append(out, ej)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out) //nolint:errcheck
}

// Stats is the /v1/stats snapshot.
type Stats struct {
	Submitted     uint64  `json:"submitted"`
	Completed     uint64  `json:"completed"`
	Failed        uint64  `json:"failed"`
	Canceled      uint64  `json:"canceled"`
	Rejected      uint64  `json:"rejected"`
	WarmHits      uint64  `json:"cache_warm_hits"`
	Coalesced     uint64  `json:"cache_coalesced"`
	Misses        uint64  `json:"cache_misses"`
	CacheLive     int     `json:"cache_entries_live"`
	CacheDone     int     `json:"cache_entries_done"`
	CacheEvicted  uint64  `json:"cache_evicted"`
	CacheBytes    int64   `json:"cache_bytes"`
	CacheBudget   int64   `json:"cache_budget_bytes"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCap      int     `json:"queue_cap"`
	InFlight      int64   `json:"in_flight"`
	SSEDropped    uint64  `json:"sse_dropped"`
	LatencyCount  int64   `json:"latency_count"`
	LatencyP50Us  int64   `json:"latency_p50_us"`
	LatencyP95Us  int64   `json:"latency_p95_us"`
	LatencyP99Us  int64   `json:"latency_p99_us"`
	LatencyMeanUs float64 `json:"latency_mean_us"`
}

func (s *Server) snapshot() Stats {
	live, done, used, evicted := s.cache.stats()
	st := Stats{
		Submitted:    atomic.LoadUint64(&s.submitted),
		Completed:    atomic.LoadUint64(&s.completed),
		Failed:       atomic.LoadUint64(&s.failed),
		Canceled:     atomic.LoadUint64(&s.canceled),
		Rejected:     atomic.LoadUint64(&s.rejected),
		WarmHits:     atomic.LoadUint64(&s.warmHits),
		Coalesced:    atomic.LoadUint64(&s.coalesced),
		Misses:       atomic.LoadUint64(&s.misses),
		CacheLive:    live,
		CacheDone:    done,
		CacheEvicted: evicted,
		CacheBytes:   used,
		CacheBudget:  s.cache.budget,
		QueueDepth:   len(s.queue),
		QueueCap:     s.queueCap,
		InFlight:     atomic.LoadInt64(&s.inflight),
		SSEDropped:   s.hub.droppedCount(),
	}
	s.histMu.Lock()
	st.LatencyCount = s.latency.Count()
	if st.LatencyCount > 0 {
		st.LatencyP50Us = s.latency.Quantile(0.5)
		st.LatencyP95Us = s.latency.Quantile(0.95)
		st.LatencyP99Us = s.latency.Quantile(0.99)
		st.LatencyMeanUs = s.latency.Mean()
	}
	s.histMu.Unlock()
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.snapshot()) //nolint:errcheck
}

// handleMetrics renders the daemon gauges and counters in Prometheus
// text format through the obs registry, so the daemon's /metrics speaks
// the same dialect as the simulator's live endpoint.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.snapshot()
	reg := obs.NewRegistry()
	reg.Counter("tcdsimd_jobs_total", "state", "submitted").Add(int64(st.Submitted))
	reg.Counter("tcdsimd_jobs_total", "state", "completed").Add(int64(st.Completed))
	reg.Counter("tcdsimd_jobs_total", "state", "failed").Add(int64(st.Failed))
	reg.Counter("tcdsimd_jobs_total", "state", "canceled").Add(int64(st.Canceled))
	reg.Counter("tcdsimd_jobs_total", "state", "rejected").Add(int64(st.Rejected))
	reg.Counter("tcdsimd_cache_requests_total", "kind", "warm-hit").Add(int64(st.WarmHits))
	reg.Counter("tcdsimd_cache_requests_total", "kind", "coalesced").Add(int64(st.Coalesced))
	reg.Counter("tcdsimd_cache_requests_total", "kind", "miss").Add(int64(st.Misses))
	reg.Counter("tcdsimd_cache_evicted_total").Add(int64(st.CacheEvicted))
	reg.Counter("tcdsimd_sse_dropped_total").Add(int64(st.SSEDropped))
	reg.Gauge("tcdsimd_queue_depth").Set(float64(st.QueueDepth))
	reg.Gauge("tcdsimd_queue_cap").Set(float64(st.QueueCap))
	reg.Gauge("tcdsimd_in_flight").Set(float64(st.InFlight))
	reg.Gauge("tcdsimd_cache_entries").Set(float64(st.CacheLive))
	reg.Gauge("tcdsimd_cache_bytes").Set(float64(st.CacheBytes))
	reg.Gauge("tcdsimd_cache_budget_bytes").Set(float64(st.CacheBudget))
	reg.Gauge("tcdsimd_job_latency_us", "q", "p50").Set(float64(st.LatencyP50Us))
	reg.Gauge("tcdsimd_job_latency_us", "q", "p95").Set(float64(st.LatencyP95Us))
	reg.Gauge("tcdsimd_job_latency_us", "q", "p99").Set(float64(st.LatencyP99Us))
	reg.Gauge("tcdsimd_job_latency_mean_us").Set(st.LatencyMeanUs)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	reg.WriteProm(w) //nolint:errcheck
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		writeErr(w, http.StatusServiceUnavailable, errShutdown)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, `{"ok":true}`+"\n") //nolint:errcheck
}

func writeErr(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, `{"error":%s}`+"\n", mustJSON(err.Error())) //nolint:errcheck
}

// mustJSON quotes a string as a JSON literal.
func mustJSON(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// progressWriter splits the simulator's progress stream into lines and
// publishes each as an SSE progress event on the job's topic.
type progressWriter struct {
	hub *hub
	id  string
	mu  sync.Mutex
	buf []byte
}

func (p *progressWriter) Write(b []byte) (int, error) {
	p.mu.Lock()
	p.buf = append(p.buf, b...)
	for {
		i := -1
		for k, c := range p.buf {
			if c == '\n' {
				i = k
				break
			}
		}
		if i < 0 {
			break
		}
		line := string(p.buf[:i])
		p.buf = p.buf[i+1:]
		if line != "" {
			p.hub.publish(p.id, Event{"progress", mustJSON(line)})
		}
	}
	p.mu.Unlock()
	return len(b), nil
}

// flush publishes any unterminated trailing line.
func (p *progressWriter) flush() {
	p.mu.Lock()
	if len(p.buf) > 0 {
		p.hub.publish(p.id, Event{"progress", mustJSON(string(p.buf))})
		p.buf = nil
	}
	p.mu.Unlock()
}
