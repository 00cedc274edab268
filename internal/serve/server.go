package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

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

// errShutdown resolves runs orphaned by a daemon shutdown.
var errShutdown = errors.New("serve: daemon shutting down")

// Server is the simulation-as-a-service daemon core: HTTP handlers in
// front of a bounded job queue, a worker pool and the spec-hash result
// cache, whose entries carry their runs' SSE streams. It carries no
// listener of its own — callers mount Handler() on an http.Server
// (cmd/tcdsimd) or httptest (tests).
type Server struct {
	exec        ExecFunc
	queueCap    int
	workerCount int

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	queue  chan queued
	mux    *http.ServeMux

	// mu guards everything below and every cache entry's mutable
	// fields, so each /v1/stats snapshot reads one instant.
	mu      sync.Mutex
	cache   *resultCache
	latency *obs.Hist // completed-run wall time, microseconds
	closed  bool
	// pending counts enqueued runs that finish has not resolved;
	// drained closes once the server is closed and pending is zero.
	pending  int
	drained  chan struct{}
	inflight int

	submitted, completed, failed, canceled, rejected uint64
	warmHits, coalesced, misses, sseDropped          uint64
	// lineBuf is progressWriter's scratch for quoting a line.
	lineBuf []byte
}

// queued is a run on its way to a worker: the spec it runs and the
// in-flight entry it resolves.
type queued struct {
	spec  *JobSpec
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
		cache:       newResultCache(cacheBytes),
		latency:     obs.NewHist(),
		drained:     make(chan struct{}),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/specs/{hash}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/specs/{hash}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/specs/{hash}/events", s.handleEvents)
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
	s.closeDoor()
	var err error
	select {
	case <-s.drained:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.Close()
	return err
}

// closeDoor rejects further submissions; drained closes now if nothing
// is pending, or when finish resolves the last pending run.
func (s *Server) closeDoor() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		if s.pending == 0 {
			close(s.drained)
		}
	}
}

// Close stops the daemon immediately: the run context is canceled (the
// executor stops at its next run boundary), workers are joined, and runs
// still in the queue are resolved as canceled, so no waiter hangs and
// every SSE stream ends on its terminal event.
func (s *Server) Close() {
	s.closeDoor()
	s.cancel()
	s.wg.Wait()
	// Workers are gone; anything left in the queue never started.
	for {
		select {
		case q := <-s.queue:
			s.finish(q.entry, nil, errShutdown, 0, true)
		default:
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
			s.run(q)
		}
	}
}

// run executes one queued spec and resolves its entry.
func (s *Server) run(q queued) {
	e := q.entry
	s.mu.Lock()
	e.state = "running"
	s.inflight++
	s.publish(e, Event{"running", fmt.Sprintf(`{"hash":%q}`, e.hash)})
	s.mu.Unlock()
	start := time.Now()
	b, err := s.exec(s.ctx, q.spec, progressWriter{s, e})
	wall := time.Since(start)
	canceled := err != nil && (errors.Is(err, context.Canceled) || s.ctx.Err() != nil)
	s.finish(e, b, err, wall, canceled)
}

// finish resolves an enqueued entry in one s.mu section: its state, the
// result into the cache, the counters for every submission it answers,
// the terminal event that closes its stream, and the pending count a
// drain waits on. Completing the entry wakes its ?wait=1 clients, and
// whatever such a client reads next of the entry's state goes through
// s.mu, so it cannot see a resolved entry that still reads running.
func (s *Server) finish(e *cacheEntry, b []byte, err error, wall time.Duration, canceled bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.state == "running" {
		s.inflight--
	}
	counter := &s.completed
	switch {
	case canceled:
		e.state, counter = "canceled", &s.canceled
	case err != nil:
		e.state, counter = "failed", &s.failed
	default:
		e.state = "done"
		s.latency.Observe(wall.Microseconds())
	}
	s.cache.complete(e, b, err, wall)
	*counter += e.subs
	s.publish(e, terminalEvent(e))
	if s.pending--; s.closed && s.pending == 0 {
		close(s.drained)
	}
}

// terminalEvent is a resolved entry's last event: the one a live stream
// ends on and all a late subscriber gets.
func terminalEvent(e *cacheEntry) Event {
	errMsg := ""
	if e.err != nil {
		errMsg = e.err.Error()
	}
	return Event{e.state, fmt.Sprintf(`{"hash":%q,"state":%q,"wall_ms":%.3f,"bytes":%d,"error":%s}`,
		e.hash, e.state, float64(e.wall.Microseconds())/1000, len(e.bytes), mustJSON(errMsg))}
}

// retryAfterSeconds estimates the queue drain time for the Retry-After
// header: mean job wall time x queue depth / workers, clamped to
// [1, 60] s. With no completed job yet there is nothing to extrapolate
// from, so it answers 1. Callers hold s.mu.
func (s *Server) retryAfterSeconds() int {
	if s.latency.Count() == 0 {
		return 1
	}
	sec := s.latency.Mean() / 1e6 * float64(len(s.queue)) / float64(s.workerCount)
	if sec < 1 {
		return 1
	}
	if sec > 60 {
		return 60
	}
	return int(sec + 0.5)
}

// handleSubmit accepts a spec, canonicalizes and hashes it, and either
// serves it from cache, coalesces it onto an identical in-flight run, or
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
	e, created := s.cache.reserve(hash)
	s.submitted++
	var cache string
	switch {
	case created && len(s.queue) == cap(s.queue):
		// Backpressure: undo the reservation and tell the client when
		// the queue should have drained.
		s.cache.release(e)
		s.rejected++
		retry := s.retryAfterSeconds()
		s.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeErr(w, http.StatusTooManyRequests,
			fmt.Errorf("serve: job queue full (%d queued); retry after %ds", s.queueCap, retry))
		return
	case created:
		// The run's stream opens with its "queued" before a worker can
		// publish "running". s.mu serialises senders and workers only
		// drain, so the room checked above is still there and the send
		// cannot block.
		cache = "miss"
		e.exp, e.state, e.subs, e.stream = spec.Exp, "queued", 1, &stream{}
		s.pending++
		s.misses++
		s.publish(e, Event{"queued", fmt.Sprintf(`{"hash":%q,"exp":%q,"queue_depth":%d}`, hash, e.exp, len(s.queue)+1)})
		s.queue <- queued{spec, e}
	case e.completed():
		cache = "hit"
		e.subs++
		s.warmHits++
		s.completed++
	default:
		cache = "coalesced"
		e.subs++
		s.coalesced++
	}
	state := e.state
	s.mu.Unlock()

	if r.URL.Query().Get("wait") != "" {
		select {
		case <-e.done:
		case <-r.Context().Done():
			writeErr(w, http.StatusRequestTimeout, r.Context().Err())
			return
		}
		// The request holds the entry only until it has written it, so an
		// eviction meanwhile costs it nothing.
		s.serveEntry(w, e, cache)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Spec-Hash", hash)
	w.Header().Set("X-Cache", cache)
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintf(w, `{"hash":%q,"exp":%q,"state":%q,"cache":%q}`+"\n", hash, e.exp, state, cache) //nolint:errcheck
}

// serveEntry writes a resolved entry's bytes or its run's error. cache,
// when set, is how this submission met the cache.
func (s *Server) serveEntry(w http.ResponseWriter, e *cacheEntry, cache string) {
	if cache != "" {
		w.Header().Set("X-Cache", cache)
	}
	w.Header().Set("X-Spec-Hash", e.hash)
	switch e.state {
	case "failed":
		writeErr(w, http.StatusInternalServerError, e.err)
	case "canceled":
		writeErr(w, http.StatusServiceUnavailable, e.err)
	default:
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(e.bytes)))
		w.Write(e.bytes) //nolint:errcheck
	}
}

// handleStatus reports a spec's entry: its state, how many submissions
// it has answered and, once resolved, the run's wall time and the result
// or error.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	e := s.cache.lookup(r.PathValue("hash"))
	var v map[string]interface{}
	if e != nil {
		v = map[string]interface{}{"hash": e.hash, "exp": e.exp, "state": e.state, "submissions": e.subs}
		if e.completed() {
			v["wall_ms"] = float64(e.wall.Microseconds()) / 1000
			if e.err != nil {
				v["error"] = e.err.Error()
			} else {
				v["result_url"] = "/v1/specs/" + e.hash + "/result"
			}
		}
	}
	s.mu.Unlock()
	if e == nil {
		writeErr(w, http.StatusNotFound, errors.New("serve: no entry for spec; submit it"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

// handleResult serves a resolved spec's body, or its run's error. A spec
// whose entry the budget has dropped answers 404: a resubmission
// recomputes the same bytes.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	e := s.cache.lookup(r.PathValue("hash"))
	s.mu.Unlock()
	switch {
	case e == nil:
		writeErr(w, http.StatusNotFound, errors.New("serve: no entry for spec; submit it"))
	case !e.completed():
		writeErr(w, http.StatusConflict, errors.New("serve: the spec's run is still in flight"))
	default:
		s.serveEntry(w, e, "")
	}
}

// handleEvents streams a spec's SSE feed. For a run in flight that is the
// replay buffer, then live events until the terminal event, client
// disconnect or shutdown; for a resolved spec, its terminal event alone.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, errors.New("serve: streaming unsupported"))
		return
	}
	s.mu.Lock()
	e := s.cache.lookup(r.PathValue("hash"))
	var (
		replay []Event
		ch     chan Event
	)
	if e != nil && e.stream != nil {
		replay, ch = e.subscribe()
	}
	s.mu.Unlock()
	if e == nil {
		writeErr(w, http.StatusNotFound, errors.New("serve: no entry for spec; submit it"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	if ch == nil {
		io.WriteString(w, terminalEvent(e).sse()) //nolint:errcheck
		fl.Flush()
		return
	}
	defer func() {
		s.mu.Lock()
		e.unsubscribe(ch)
		s.mu.Unlock()
	}()
	for _, ev := range replay {
		io.WriteString(w, ev.sse()) //nolint:errcheck
	}
	fl.Flush()
	for {
		select {
		case ev, ok := <-ch:
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
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.cache
	st := Stats{
		Submitted:    s.submitted,
		Completed:    s.completed,
		Failed:       s.failed,
		Canceled:     s.canceled,
		Rejected:     s.rejected,
		WarmHits:     s.warmHits,
		Coalesced:    s.coalesced,
		Misses:       s.misses,
		CacheLive:    len(c.entries),
		CacheDone:    c.order.Len(),
		CacheEvicted: c.evicted,
		CacheBytes:   c.used,
		CacheBudget:  c.budget,
		QueueDepth:   len(s.queue),
		QueueCap:     s.queueCap,
		InFlight:     int64(s.inflight),
		SSEDropped:   s.sseDropped,
		LatencyCount: s.latency.Count(),
	}
	if st.LatencyCount > 0 {
		st.LatencyP50Us = s.latency.Quantile(0.5)
		st.LatencyP95Us = s.latency.Quantile(0.95)
		st.LatencyP99Us = s.latency.Quantile(0.99)
		st.LatencyMeanUs = s.latency.Mean()
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.snapshot()) //nolint:errcheck
}

// handleMetrics renders the daemon gauges and counters in Prometheus
// text format through the obs registry.
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
	return string(appendQuoted(nil, []byte(s)))
}

// progressWriter publishes each line of a progress write as an SSE
// progress event on the run's stream. Every writer of the stream (the
// obs ticker, the sweep's run lines, the battery's cell lines) writes
// whole lines, so a write never leaves a partial line behind.
type progressWriter struct {
	s *Server
	e *cacheEntry
}

// Write publishes each non-empty line of b. A line costs one allocation,
// its event's data string: it is quoted into the server's scratch buffer.
func (p progressWriter) Write(b []byte) (int, error) {
	p.s.mu.Lock()
	defer p.s.mu.Unlock()
	for rest := b; len(rest) > 0; {
		var line []byte
		line, rest, _ = bytes.Cut(rest, []byte("\n"))
		if len(line) > 0 {
			p.s.lineBuf = appendQuoted(p.s.lineBuf[:0], line)
			p.s.publish(p.e, Event{"progress", string(p.s.lineBuf)})
		}
	}
	return len(b), nil
}

// appendQuoted appends src as a JSON string, the bytes json.Marshal
// writes for string(src): '"', '\\', control bytes, '<', '>' and '&'
// escaped, each invalid UTF-8 byte as \ufffd, and U+2028 and U+2029
// escaped.
func appendQuoted(dst, src []byte) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(src); {
		if c := src[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, src[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRune(src[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, src[start:i]...), `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, src[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
			start = i + size
		}
		i += size
	}
	return append(append(dst, src[start:]...), '"')
}
