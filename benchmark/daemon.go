package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/tcdnet/tcd/internal/rng"
	"github.com/tcdnet/tcd/internal/serve"
)

// The daemon workload's traffic mix: every round is roundCold never-seen
// specs and roundWarm repeats of specs primed during set-up, in a seeded
// order, split over two closed-loop clients. Closed loop, because the
// daemon's callers are sweep scripts that wait for each reply.
const (
	daemonClients = 2
	roundCold     = 30
	roundWarm     = 70
	warmSpecs     = 24
	jobHorizonUs  = 5000
)

// jobKinds are the experiments the cold jobs cycle through: ~13 ms of
// simulation on average against ~0.13 ms for a warm hit.
var jobKinds = [...]struct{ exp, fabric string }{
	{"fig3", "cee"}, {"fig12", "ib"}, {"table3", "cee"},
	{"fig20", "cee"}, {"victim-under-flap", "cee"}, {"deadlock-unit", "ib"},
}

func jobBody(kind int, seed uint64) []byte {
	k := jobKinds[kind]
	return []byte(fmt.Sprintf(`{"exp":%q,"fabric":%q,"seed":%d,"horizon_us":%d}`, k.exp, k.fabric, seed, jobHorizonUs))
}

// request is one scheduled submission.
type request struct {
	body []byte
	cold bool
	kind int // index into jobKinds (cold) or into the warm set (warm)
}

// jobSeedBase spaces the job seeds of different benchmark seeds apart.
func jobSeedBase(seed uint64) uint64 { return seed%(1<<40)*1_000_003 + 1 }

// warmBodies are the specs primed during set-up: four seeds of each kind.
func warmBodies(seed uint64) [][]byte {
	base := jobSeedBase(seed)
	out := make([][]byte, 0, warmSpecs)
	for i := 0; i < warmSpecs; i++ {
		out = append(out, jobBody(i%len(jobKinds), base+uint64(i/len(jobKinds))))
	}
	return out
}

// schedule is round number round's submissions, a pure function of the
// benchmark seed: cold jobs take seeds no earlier round used, warm ones
// draw from the primed set, and the order is a seeded shuffle.
func schedule(seed uint64, round int) []request {
	r := rng.New(seed*0x9e3779b97f4a7c15 + uint64(round) + 1)
	warm := warmBodies(seed)
	reqs := make([]request, 0, roundCold+roundWarm)
	coldSeed := jobSeedBase(seed) + 1000 + uint64(round)*roundCold
	for i := 0; i < roundCold; i++ {
		kind := i % len(jobKinds)
		reqs = append(reqs, request{body: jobBody(kind, coldSeed+uint64(i)), cold: true, kind: kind})
	}
	for i := 0; i < roundWarm; i++ {
		w := r.Intn(len(warm))
		reqs = append(reqs, request{body: warm[w], kind: w})
	}
	r.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// reply is what a client saw for one request.
type reply struct {
	req     request
	status  int
	cache   string
	hash    string
	body    []byte
	err     error
	latency time.Duration
}

// checkReply holds one reply to the daemon's contract: 200, a miss for a
// never-seen spec and a hit for a primed one, and the primed bytes back.
func checkReply(rp reply, primed [][]byte) string {
	want := "hit"
	if rp.req.cold {
		want = "miss"
	}
	switch {
	case rp.err != nil:
		return "request failed: " + rp.err.Error()
	case rp.status != http.StatusOK:
		return fmt.Sprintf("status %d for %s", rp.status, rp.req.body)
	case rp.cache != want:
		return fmt.Sprintf("X-Cache %q, want %q, for %s", rp.cache, want, rp.req.body)
	case !rp.req.cold && !bytes.Equal(rp.body, primed[rp.req.kind]):
		return fmt.Sprintf("two bodies for spec hash %s differ", rp.hash)
	}
	return ""
}

// server is one in-process tcdsimd behind a loopback listener.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	served chan struct{}
	base   string // http://host:port
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: serve.New(serve.Config{Workers: 2}), served: make(chan struct{}), base: "http://" + ln.Addr().String()}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln) //nolint:errcheck // always ErrServerClosed after stop
	}()
	return s, nil
}

func (s *server) stop() {
	s.hs.Close()
	<-s.served
	s.srv.Close()
}

// daemon drives the rounds against one long-lived server; every set-up
// step starts, primes and stops another one beside it.
type daemon struct {
	env *env

	main    *server
	clients [daemonClients]*http.Client

	warm   [][]byte // spec bodies primed during set-up
	primed [][]byte // their result bytes
	round  int
	// direct marks the experiment kinds whose first cold body has been
	// compared with a direct serve.CatalogExec of the same spec.
	direct [len(jobKinds)]bool
}

func (d *daemon) generate() error {
	d.warm = warmBodies(d.env.seed)
	d.primed = make([][]byte, len(d.warm))
	for i := range d.clients {
		// One connection per client: never more connections than cores.
		d.clients[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	}
	return nil
}

func (d *daemon) close() {
	if d.main != nil {
		d.main.stop()
		d.main = nil
	}
	for _, c := range d.clients {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
}

// fresh starts a server and primes the warm set: what a sweep script pays
// before its first warm hit.
func (d *daemon) fresh() (*server, error) {
	s, err := startServer()
	if err != nil {
		return nil, err
	}
	reqs := make([]request, len(d.warm))
	for i, b := range d.warm {
		reqs[i] = request{body: b, cold: true, kind: i} // a fresh cache: every spec is a miss
	}
	for _, rp := range d.submit(s, nil, -1, -1, reqs) {
		fail := checkReply(rp, nil)
		i := rp.req.kind
		if fail == "" && d.primed[i] != nil && !bytes.Equal(d.primed[i], rp.body) {
			fail = fmt.Sprintf("spec %s gave different bytes on two servers", d.warm[i])
		}
		if fail != "" {
			s.stop()
			return nil, fmt.Errorf("priming: %s", fail)
		}
		if d.primed[i] == nil {
			d.primed[i] = rp.body
		}
	}
	return s, nil
}

func (d *daemon) setupStep() error {
	s, err := d.fresh()
	if err != nil {
		return err
	}
	s.stop() // closes its connections; the clients drop them
	return nil
}

// submit sends reqs over the closed-loop clients, client c taking every
// daemonClients-th request starting at c, and returns the replies in
// request order once every client has finished.
func (d *daemon) submit(s *server, tr *tracer, parent, id int, reqs []request) []reply {
	out := make([]reply, len(reqs))
	forks := make([]*tracer, daemonClients)
	var wg sync.WaitGroup
	for c := 0; c < daemonClients; c++ {
		forks[c] = tr.fork()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(reqs); i += daemonClients {
				name := "serve.warm"
				if reqs[i].cold {
					name = "serve.cold"
				}
				sp := forks[c].begin(name, parent, id)
				out[i] = post(d.clients[c], s.base, reqs[i])
				forks[c].end(sp)
			}
		}(c)
	}
	wg.Wait()
	for _, f := range forks {
		tr.merge(f)
	}
	return out
}

func post(c *http.Client, base string, rq request) reply {
	rp := reply{req: rq}
	t0 := time.Now()
	resp, err := c.Post(base+"/v1/jobs?wait=1", "application/json", bytes.NewReader(rq.body))
	if err != nil {
		rp.err = err
		return rp
	}
	rp.body, rp.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	rp.latency = time.Since(t0)
	rp.status = resp.StatusCode
	rp.cache = resp.Header.Get("X-Cache")
	rp.hash = resp.Header.Get("X-Spec-Hash")
	return rp
}

// op is one round of the traffic mix. The first (warm-up) round starts
// the long-lived server.
func (d *daemon) op(tr *tracer, id int) opResult {
	if d.main == nil {
		s, err := d.fresh()
		if err != nil {
			return opResult{fail: err.Error()}
		}
		d.main = s
	}
	reqs := schedule(d.env.seed, d.round)
	d.round++
	o := tr.begin("op", -1, id)
	t0 := time.Now()
	replies := d.submit(d.main, tr, o, id, reqs)
	out := opResult{ns: time.Since(t0).Nanoseconds()}
	tr.end(o)
	for _, rp := range replies {
		if out.fail == "" {
			out.fail = checkReply(rp, d.primed)
		}
		if rp.req.cold {
			out.coldMs = append(out.coldMs, ms(rp.latency))
			if out.fail == "" && !d.direct[rp.req.kind] {
				d.direct[rp.req.kind] = true
				out.fail = checkDirect(rp)
			}
		} else {
			out.warmMs = append(out.warmMs, ms(rp.latency))
		}
	}
	return out
}

// checkDirect compares a cold reply with the executor run without the
// daemon around it: queueing, caching and HTTP must not change a byte.
func checkDirect(rp reply) string {
	spec, err := serve.ParseJobSpec(rp.req.body)
	if err != nil {
		return err.Error()
	}
	want, err := serve.CatalogExec(context.Background(), spec, nil)
	if err != nil {
		return err.Error()
	}
	if !bytes.Equal(rp.body, want) {
		return fmt.Sprintf("daemon body for %s differs from a direct CatalogExec", rp.req.body)
	}
	return ""
}

// counts reads the daemon's own counters from /v1/stats.
func (d *daemon) counts() (map[string]float64, string) {
	resp, err := d.clients[0].Get(d.main.base + "/v1/stats")
	if err != nil {
		return nil, err.Error()
	}
	defer resp.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, "decoding /v1/stats: " + err.Error()
	}
	c := map[string]float64{
		"serve.cache_hits":      float64(st.WarmHits),
		"serve.cache_misses":    float64(st.Misses),
		"serve.cache_coalesced": float64(st.Coalesced),
		"serve.cache_evicted":   float64(st.CacheEvicted),
		"serve.rejected_429":    float64(st.Rejected),
		"serve.failed":          float64(st.Failed),
	}
	if n := st.WarmHits + st.Misses + st.Coalesced; n > 0 {
		c["serve.hit_ratio"] = float64(st.WarmHits) / float64(n)
	}
	if st.Rejected+st.Failed > 0 {
		return c, fmt.Sprintf("daemon rejected %d and failed %d jobs", st.Rejected, st.Failed)
	}
	return c, ""
}
