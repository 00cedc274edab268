package main

import (
	"bytes"
	"math"
	"net/http"
	"os"
	"runtime"
	"strings"
	"testing"

	"github.com/tcdnet/tcd/internal/exp"
	"github.com/tcdnet/tcd/internal/workload"
)

func TestQuietFloor(t *testing.T) {
	seq := func(n int) []float64 { // n, n-1, ..., 1: unsorted on purpose
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i)
		}
		return out
	}
	for _, c := range []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"n=1", []float64{7}, 7},
		{"n=9 takes one", seq(9), 1},
		{"n=10 takes one", seq(10), 1},
		{"n=19 takes one", seq(19), 1},
		{"n=20 takes two", seq(20), 1.5},
		{"n=100 takes ten", seq(100), 5.5},
		{"ties", []float64{3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 9}, 1},
		{"slow outliers ignored", append(seq(10), 1e9, 1e9), 1},
	} {
		if got := quietFloor(c.in); got != c.want {
			t.Errorf("%s: quietFloor = %v, want %v", c.name, got, c.want)
		}
	}
	in := seq(10)
	quietFloor(in)
	if in[0] != 10 {
		t.Error("quietFloor reordered its input")
	}
}

func TestQuantiles(t *testing.T) {
	// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,20], n=4) = [2.75, 5.5, 8.25]
	got := iqrShare([]float64{20, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if want := (8.25 - 2.75) / 5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if q := tailQuantile(hundred, 0.95); q != 0 {
		t.Errorf("p95 with only 5 samples beyond it = %v, want 0", q)
	}
	if q := tailQuantile(hundred, 0.90); q != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", q)
	}
}

func traceBytes(t *testing.T, p ftParams, seed uint64) []byte {
	t.Helper()
	s := newFatTree(&env{seed: seed}, p)
	if err := s.generate(); err != nil {
		t.Fatal(err)
	}
	if len(s.trace) != p.flows {
		t.Fatalf("k=%d seed %d: %d flows, want %d", p.k, seed, len(s.trace), p.flows)
	}
	if d := float64(s.hopPackets(s.trace)-p.hopPackets) / float64(p.hopPackets); math.Abs(d) > 0.005 {
		t.Errorf("k=%d seed %d: offered work is %+.2f%% off the budget", p.k, seed, 100*d)
	}
	var buf bytes.Buffer
	if err := workload.WriteTrace(&buf, s.trace); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTracesFollowTheSeed(t *testing.T) {
	for _, p := range []ftParams{ft8, ft16} {
		a, again, b := traceBytes(t, p, 3), traceBytes(t, p, 3), traceBytes(t, p, 4)
		if !bytes.Equal(a, again) {
			t.Errorf("k=%d: one seed gave two traces", p.k)
		}
		if bytes.Equal(a, b) {
			t.Errorf("k=%d: two seeds gave one trace", p.k)
		}
	}
}

func TestScheduleFollowsTheSeed(t *testing.T) {
	flat := func(seed uint64, round int) string {
		var sb strings.Builder
		for _, rq := range schedule(seed, round) {
			sb.Write(rq.body)
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	if flat(3, 0) != flat(3, 0) {
		t.Error("one seed gave two request orders")
	}
	if flat(3, 0) == flat(4, 0) {
		t.Error("two seeds gave one request order")
	}
	warm := make(map[string]bool)
	for _, b := range warmBodies(3) {
		warm[string(b)] = true
	}
	if len(warm) != warmSpecs {
		t.Fatalf("%d distinct warm specs, want %d", len(warm), warmSpecs)
	}
	seen := make(map[string]bool)
	for round := 0; round < 5; round++ {
		cold := 0
		for _, rq := range schedule(3, round) {
			if !rq.cold {
				if !warm[string(rq.body)] {
					t.Fatalf("round %d: warm request %s was never primed", round, rq.body)
				}
				continue
			}
			cold++
			if seen[string(rq.body)] || warm[string(rq.body)] {
				t.Fatalf("round %d: cold spec %s was seen before", round, rq.body)
			}
			seen[string(rq.body)] = true
		}
		if cold != roundCold {
			t.Errorf("round %d: %d cold requests, want %d", round, cold, roundCold)
		}
	}
}

func TestSimChecksFire(t *testing.T) {
	var s simRunner
	result := func(v float64) func() *exp.Result {
		return func() *exp.Result {
			r := exp.NewResult("x")
			r.Scalars["v"] = v
			return r
		}
	}
	if out := s.run(nil, 0, result(1), nil); out.fail != "" {
		t.Fatalf("first op failed: %s", out.fail)
	}
	if out := s.run(nil, 1, result(1), nil); out.fail != "" {
		t.Fatalf("identical op failed: %s", out.fail)
	}
	if out := s.run(nil, 2, result(2), nil); !strings.Contains(out.fail, "differ") {
		t.Errorf("corrupted result not caught: %q", out.fail)
	}
	r := exp.NewResult("ft")
	r.Scalars["generated"], r.Scalars["completed"] = 100, 89
	if fail := checkFlows(r); !strings.Contains(fail, "completed") {
		t.Errorf("89 of 100 flows accepted: %q", fail)
	}
	r.Scalars["completed"], r.Scalars["buffer_violations"] = 100, 1
	if fail := checkFlows(r); !strings.Contains(fail, "losslessness") {
		t.Errorf("buffer violation accepted: %q", fail)
	}
	if _, fail := layerCounts(map[string]float64{"cbfc_violations": 2}, nil); !strings.Contains(fail, "losslessness") {
		t.Errorf("registry violation accepted: %q", fail)
	}
}

func TestDaemonChecksFire(t *testing.T) {
	primed := [][]byte{[]byte("result-0"), []byte("result-1")}
	warm := reply{req: request{body: []byte(`{"exp":"fig3"}`), kind: 1}, status: http.StatusOK, cache: "hit", body: []byte("result-1")}
	cold := reply{req: request{body: []byte(`{"exp":"fig3"}`), cold: true}, status: http.StatusOK, cache: "miss", body: []byte("anything")}
	for _, c := range []struct {
		name   string
		mutate func(w, c *reply)
		want   string
	}{
		{"clean", func(w, c *reply) {}, ""},
		{"corrupted warm body", func(w, c *reply) { w.body = []byte("result-1x") }, "differ"},
		{"warm served as miss", func(w, c *reply) { w.cache = "miss" }, "X-Cache"},
		{"cold served as hit", func(w, c *reply) { c.cache = "hit" }, "X-Cache"},
		{"status", func(w, c *reply) { c.status = http.StatusTooManyRequests }, "status 429"},
	} {
		w, cl := warm, cold
		c.mutate(&w, &cl)
		fail := checkReply(w, primed) + checkReply(cl, primed)
		if (c.want == "") != (fail == "") || !strings.Contains(fail, c.want) {
			t.Errorf("%s: got %q, want it to contain %q", c.name, fail, c.want)
		}
	}
	cold.req.body = jobBody(5, 99) // deadlock-unit: the cheapest job
	if fail := checkDirect(cold); !strings.Contains(fail, "differs from a direct CatalogExec") {
		t.Errorf("wrong cold body accepted: %q", fail)
	}
}

// TestDaemonRound drives one real round through the loopback daemon.
func TestDaemonRound(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server and simulates 54 jobs")
	}
	d := &daemon{env: &env{seed: 2}}
	defer d.close()
	if err := d.generate(); err != nil {
		t.Fatal(err)
	}
	if err := d.setupStep(); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	out := d.op(tr, 0)
	if out.fail != "" {
		t.Fatalf("round failed: %s", out.fail)
	}
	if len(out.coldMs) != roundCold || len(out.warmMs) != roundWarm {
		t.Errorf("%d cold and %d warm latencies, want %d and %d", len(out.coldMs), len(out.warmMs), roundCold, roundWarm)
	}
	if len(tr.spans) != 1+roundCold+roundWarm {
		t.Errorf("%d spans, want one per request and one for the op", len(tr.spans))
	}
	c, fail := d.counts()
	if fail != "" {
		t.Fatal(fail)
	}
	if c["serve.cache_hits"] != roundWarm || c["serve.cache_misses"] != roundCold+warmSpecs {
		t.Errorf("daemon counted %v hits and %v misses", c["serve.cache_hits"], c["serve.cache_misses"])
	}
	d.primed[0] = append([]byte("x"), d.primed[0]...)
	if out := d.op(nil, 1); !strings.Contains(out.fail, "differ") {
		t.Errorf("a round against corrupted reference bytes passed: %q", out.fail)
	}
}

func TestRSSMeter(t *testing.T) {
	var none *rssMeter
	none.sample() // a nil meter samples nothing and does not panic

	m, err := newRSSMeter()
	if err != nil {
		t.Skip(err)
	}
	defer m.close()
	before := m.take()
	if before <= 0 {
		t.Fatalf("resident set %v MB", before)
	}
	if m.take() != 0 {
		t.Error("take did not start a new peak")
	}
	block := make([]byte, 64<<20)
	for i := 0; i < len(block); i += 4096 {
		block[i] = 1
	}
	m.sample()
	high := m.take()
	if high < before+48 {
		t.Errorf("resident set %v MB after touching 64 MB on top of %v MB", high, before)
	}
	runtime.KeepAlive(block)
}

func TestTracer(t *testing.T) {
	var none *tracer
	none.end(none.begin("x", -1, 0)) // a nil tracer records nothing and does not panic
	none.merge(none.fork())

	tr := newTracer()
	op := tr.begin("op", -1, 4)
	f := tr.fork()
	f.end(f.begin("child", op, 4))
	tr.merge(f)
	tr.end(op)
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[1].Op != 4 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if s := tr.spans[0]; s.EndNs < tr.spans[1].EndNs || s.StartNs > tr.spans[1].StartNs {
		t.Errorf("child %+v not inside parent %+v", tr.spans[1], s)
	}
}

func TestBenchmarkJSONInSync(t *testing.T) {
	want, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := writeBenchmarkJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Error("BENCHMARK.json differs from the program's tables; regenerate it with: go run ./benchmark -benchmark-json > BENCHMARK.json")
	}
	names := make(map[string]bool)
	for _, d := range append(gated(daemonWorkload), perLayer...) {
		if names[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		names[d.Name] = true
	}
	if n := len(contractPerLayer()); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}
	if len(gated("incast-cee")) != 4 || len(gated(daemonWorkload)) != 6 || len(endToEnd) != 4 {
		t.Error("the simulator workloads have 4 end-to-end metrics, daemon-mix the same 4 and 2 of its own")
	}
}

func TestFlagsAndCounts(t *testing.T) {
	got := strings.Join(joinTraceValue([]string{"--workload", "x", "--trace", "1", "--seed", "2", "-trace", "--seconds", "5", "-trace", "0"}), " ")
	if want := "--workload x --trace=1 --seed 2 -trace --seconds 5 -trace=0"; got != want {
		t.Errorf("joinTraceValue = %q, want %q", got, want)
	}
	w := findWorkload("incast-cee")
	if n := opsFor(w, nominalSeconds); n != w.Ops {
		t.Errorf("nominal ops = %d, want %d", n, w.Ops)
	}
	if n := opsFor(w, 1); n != minOps {
		t.Errorf("ops at 1 s = %d, want the floor of %d", n, minOps)
	}
	if n := opsFor(w, 2*nominalSeconds); n != 2*w.Ops {
		t.Errorf("ops at twice the length = %d, want %d", n, 2*w.Ops)
	}
	var out, errs bytes.Buffer
	if code := run([]string{"-workload", "no-such"}, &out, &errs); code != 2 {
		t.Errorf("unknown workload exited %d, want 2", code)
	}
}

func TestVerdict(t *testing.T) {
	lower := &metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := &metricDef{Name: "hits", Better: "higher", Bound: 0.10}
	tight := []float64{1.00, 1.01, 0.99, 1.00}
	scale := func(f float64) []float64 {
		out := make([]float64, len(tight))
		for i, v := range tight {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		name      string
		def       *metricDef
		base, cur []float64
		want      string
	}{
		{"same", lower, tight, tight, "within bound"},
		{"5% slower", lower, tight, scale(1.05), "within bound"},
		{"15% slower", lower, tight, scale(1.15), "worse"},
		{"20% faster", lower, tight, scale(0.8), "better"},
		{"higher is better", higher, tight, scale(1.2), "better"},
		{"higher got lower", higher, tight, scale(0.8), "worse"},
		{"noisy base", lower, []float64{1, 1.3, 0.8, 1.1}, scale(1.0), "unresolved"},
		{"noisy but every run wins", lower, []float64{1, 1.3, 0.8, 1.1}, scale(0.5), "better"},
		{"single runs", lower, []float64{1}, []float64{0.7}, "unresolved"},
	} {
		if _, _, got := verdict(c.def, c.base, c.cur); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
