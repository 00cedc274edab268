package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"github.com/tcdnet/tcd/internal/stats"
)

// env is what the harness hands a scenario.
type env struct {
	seed uint64
	// rss is sampled by the scenario at every stage boundary of an op (nil
	// in unit tests).
	rss *rssMeter
}

// opResult is what one op reports back to the harness.
type opResult struct {
	// fail is the reason the op failed its output checks ("" = passed).
	fail string
	// ns is the time the program took for the op, measured by the
	// scenario so that the output checks stay outside it.
	ns int64
	// stages cuts ns into consecutive pieces that do the same work in
	// every op (the simulator workloads: one per simulated millisecond).
	// Empty means the op is one stage.
	stages []int64
	// encodeNs is the part of ns spent in Result.WriteJSON (simulator
	// workloads).
	encodeNs int64
	// bytes and crc describe the encoded result.
	bytes int
	crc   uint32
	// coldMs and warmMs are a daemon round's request latencies.
	coldMs, warmMs []float64
}

// scenario is one workload's program-facing half: it turns the seed into
// inputs and drives the program with them. The harness owns repetition,
// timing and accounting.
type scenario interface {
	// generate makes the inputs from env.seed.
	generate() error
	// setupStep performs the set-up step once: everything an op does
	// before the first simulated event (for the daemon: a fresh server
	// and a primed cache, beside the one the rounds run against).
	setupStep() error
	// op runs one operation and checks its output.
	op(tr *tracer, id int) opResult
	// counts reports the exact per-op counts of the layers the scenario
	// exercises and a failure reason if the audit behind them failed. It
	// is called once, after the timed ops.
	counts() (map[string]float64, string)
	close()
}

// runResult is everything one invocation measured.
type runResult struct {
	attempted, failed int
	failures          []string
	ops               int
	values            map[string]metric
}

func (r *runResult) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, daemonEndToEnd, perLayer} {
		if d := findDef(defs, name); d != nil {
			r.values[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("benchmark: undeclared metric " + name)
}

func (r *runResult) note(res opResult, what string) {
	r.attempted++
	if res.fail != "" {
		r.failed++
		if len(r.failures) < 5 {
			r.failures = append(r.failures, what+": "+res.fail)
		}
	}
}

// opDeadline is how long a run may have taken and still start another
// timed op beyond the first minOps. A run on a quiet host takes 20-30 s.
const opDeadline = 120 * time.Second

// runWorkload is the timing rule of the benchmark: a fixed number of
// identical ops after warmupOps untimed ones, a forced collection
// between ops, and the quiet floor of the timed ops as the result. The
// set-up samples are spread evenly between the timed ops, so that they see
// the same stretch of the host as the ops and a warmed-up process.
func runWorkload(w *workloadDef, seed uint64, seconds int, traced bool, outDir string) (*runResult, error) {
	// Two threads, like the sandbox's two cores: the simulator is single
	// threaded and the daemon workload uses two workers.
	runtime.GOMAXPROCS(2)
	start := time.Now()
	res := &runResult{values: make(map[string]metric)}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	rss, err := newRSSMeter()
	if err != nil {
		return nil, err
	}
	defer rss.close()

	sc := w.New(&env{seed: seed, rss: rss})
	defer sc.close()

	g := tr.begin("workload.generate", -1, -1)
	t0 := time.Now()
	if err := sc.generate(); err != nil {
		return nil, fmt.Errorf("%s: generating inputs: %w", w.Name, err)
	}
	genMs := ms(time.Since(t0))
	tr.end(g)

	for i := 0; i < warmupOps; i++ {
		res.note(sc.op(nil, -1-i), fmt.Sprintf("warm-up op %d", i))
	}

	n := opsFor(w, seconds)
	if traced {
		// Half the ops record spans, half do not; the probes take the rest
		// of the run's time.
		n = max(12, n*6/10)
	}
	res.ops = n
	var plain, spanned stageTimes
	setup := make([]float64, 0, w.SetupSteps)
	var allocs, allocMB, gcs, encode, peaks, clock []float64
	var cold, warm, coldP50, warmP50 []float64
	var last opResult
	var m0, m1 runtime.MemStats
	for i := 0; i < n; i++ {
		if i >= minOps && time.Since(start) > opDeadline {
			// The host is giving this process a fraction of a core (README,
			// noise study): the driver ends a run at 180 s, and a run cut
			// short is one odd sample of ten where a killed run is none.
			fmt.Fprintf(os.Stderr, "benchmark: %s: %.0f s gone, stopping after %d of %d timed ops\n", w.Name, time.Since(start).Seconds(), i, n)
			res.ops = i
			break
		}
		optr := tr
		if i%2 == 0 {
			optr = nil
		}
		// Set-up step j is taken before op j*n/SetupSteps, each timed on
		// its own.
		if len(setup) < w.SetupSteps && len(setup)*n/w.SetupSteps <= i {
			runtime.GC()
			s := tr.begin("setup", -1, -1)
			for len(setup) < w.SetupSteps && len(setup)*n/w.SetupSteps <= i {
				t0 := time.Now()
				if err := sc.setupStep(); err != nil {
					return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
				}
				setup = append(setup, time.Since(t0).Seconds())
			}
			tr.end(s)
		}
		for k := 0; k < clockSamplesPerOp; k++ {
			clock = append(clock, clockSample())
		}
		runtime.GC()
		runtime.ReadMemStats(&m0)
		rss.take()
		r := sc.op(optr, i)
		rss.sample()
		peaks = append(peaks, rss.take())
		runtime.ReadMemStats(&m1)
		res.note(r, fmt.Sprintf("op %d", i))
		if optr == nil {
			plain.add(r)
		} else {
			spanned.add(r)
		}
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		gcs = append(gcs, float64(m1.NumGC-m0.NumGC))
		encode = append(encode, float64(r.encodeNs)/1e6)
		if len(r.coldMs) > 0 {
			cold = append(cold, r.coldMs...)
			warm = append(warm, r.warmMs...)
			coldP50 = append(coldP50, median(r.coldMs))
			warmP50 = append(warmP50, median(r.warmMs))
		}
		last = r
	}

	counts, fail := sc.counts()
	res.note(opResult{fail: fail}, "audit op")
	// The canary's 16 MB are allocated only now: live heap during the ops
	// would be the benchmark's memory in the program's resident set.
	canary := newCanary().sample(20)

	// Times are reported at the reference level of the host's clock (see
	// clockSample); the harness's own health numbers stay in host seconds.
	level := quietFloor(clock) / clockNominal
	rawWall := plain.floor()
	wall := rawWall / level
	setupS := quietFloor(setup) / level
	res.set("wall_s", wall)
	res.set("setup_s", setupS)
	res.set("allocs_per_op", median(allocs))
	res.set("bench.clock_level", level)
	res.set("bench.wall_host_s", rawWall)
	res.set("bench.rep_median_s", median(plain.ops))
	res.set("bench.rep_p90_s", stats.Percentile(plain.ops, 0.9))
	contended := 0
	for _, d := range plain.ops {
		if d > 1.25*rawWall {
			contended++
		}
	}
	res.set("bench.contended_share", float64(contended)/float64(len(plain.ops)))
	res.set("bench.canary_ms", quietFloor(canary)*1000)
	if len(spanned.ops) > 0 {
		res.set("bench.trace_overhead_ratio", spanned.floor()/rawWall)
	}
	res.set("workload.generate_ms", genMs)
	res.set("go.alloc_mb_per_op", median(allocMB))
	res.set("go.gc_cycles_per_op", median(gcs))
	for name, v := range counts {
		res.set(name, v)
	}
	if last.bytes > 0 { // simulator workloads
		enc := quietFloor(encode) / level
		res.set("exp.build_ms", setupS*1000)
		res.set("exp.encode_ms", enc)
		res.set("exp.run_ms", wall*1000-setupS*1000-enc)
		res.set("exp.result_bytes", float64(last.bytes))
		res.set("exp.result_crc32", float64(last.crc))
		res.set("exp.encode_mb_per_s", float64(last.bytes)/(1<<20)/(enc/1000))
		if ev := counts["sim.events"]; ev > 0 {
			res.set("sim.mevents_per_s", ev/wall/1e6)
			res.set("sim.ns_per_event", wall*1e9/ev)
		}
	}
	if len(cold) > 0 { // daemon workload
		res.set("cold_p50_ms", quietFloor(coldP50)/level)
		res.set("warm_p50_ms", quietFloor(warmP50)/level)
		res.set("serve.cold_p95_ms", tailQuantile(cold, 0.95))
		res.set("serve.warm_p99_ms", tailQuantile(warm, 0.99))
	}
	if traced {
		if err := runProbes(res, tr, outDir); err != nil {
			return nil, err
		}
		if res.values["cold_p50_ms"].Value > 0 {
			res.set("serve.overhead_cold_ms", res.values["cold_p50_ms"].Value-res.values["serve.exec_cold_ms"].Value)
			res.set("serve.tcp_overhead_us", res.values["warm_p50_ms"].Value*1000-res.values["serve.warm_handler_us"].Value)
		}
		if err := tr.writeFile(outDir, w.Name, seed); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	// Layers this workload does not exercise report 0.
	for _, d := range contractPerLayer() {
		if _, ok := res.values[d.Name]; !ok {
			res.set(d.Name, 0)
		}
	}
	res.set("peak_rss_mb", median(peaks))
	return res, nil
}

// stageTimes collects the timed ops of one kind, whole and by stage.
type stageTimes struct {
	ops    []float64   // seconds per op
	stages [][]float64 // stages[j] is stage j's seconds in every op
}

func (t *stageTimes) add(r opResult) {
	t.ops = append(t.ops, float64(r.ns)/1e9)
	st := r.stages
	if len(st) == 0 {
		st = []int64{r.ns}
	}
	if t.stages == nil {
		t.stages = make([][]float64, len(st))
	}
	if len(st) != len(t.stages) {
		panic(fmt.Sprintf("benchmark: op with %d stages after ops with %d", len(st), len(t.stages)))
	}
	for j, ns := range st {
		t.stages[j] = append(t.stages[j], float64(ns)/1e9)
	}
}

// floor is the quiet floor of the op: the sum of the quiet floors of its
// stages. For a one-stage op that is the mean of the fastest tenth of the
// ops. Cutting a long op into stages composes a quiet op from quiet
// pieces: a 0.9 s op needs 0.9 s without a neighbour's burst to show its
// floor, a 45 ms stage needs 45 ms, and on this host the bursts come
// several times a second (README, noise study).
func (t *stageTimes) floor() float64 {
	sum := 0.0
	for _, st := range t.stages {
		sum += quietFloor(st)
	}
	return sum
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// rssMeter follows the process's resident set through /proc/self/statm.
// The process-wide high-water mark (VmHWM) is the maximum of a collector
// sawtooth over every op of the run: one op in twenty overshoots by a
// tenth or more when the concurrent mark lags the allocator, and the mark
// never comes down. Sampling at every stage boundary gives each op its own
// peak; the run reports the median over the ops. A nil meter samples
// nothing.
type rssMeter struct {
	f    *os.File
	page float64 // MB per page
	peak float64
	buf  [64]byte
}

func newRSSMeter() (*rssMeter, error) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil, fmt.Errorf("resident set: %w", err)
	}
	m := &rssMeter{f: f, page: float64(os.Getpagesize()) / (1 << 20)}
	if m.sample(); m.peak == 0 {
		f.Close()
		return nil, fmt.Errorf("resident set: cannot parse /proc/self/statm")
	}
	return m, nil
}

// sample raises the current peak to the resident set as it is now. A read
// that fails or does not parse leaves the peak alone; newRSSMeter has seen
// one succeed.
func (m *rssMeter) sample() {
	if m == nil {
		return
	}
	n, _ := m.f.ReadAt(m.buf[:], 0)   // io.EOF with n > 0: the line is shorter than buf
	fields := bytes.Fields(m.buf[:n]) // size resident shared ...
	if len(fields) < 2 {
		return
	}
	if pages, err := strconv.ParseInt(string(fields[1]), 10, 64); err == nil {
		m.peak = max(m.peak, float64(pages)*m.page)
	}
}

// take returns the peak in MB since the last take and starts a new one.
func (m *rssMeter) take() float64 {
	p := m.peak
	m.peak = 0
	return p
}

func (m *rssMeter) close() { m.f.Close() }

// clockSample times a fixed chain of a million dependent multiply-adds: no
// memory, no branches to mispredict, nothing of this repo's, so its quiet
// floor is the host's clock and nothing else. The sandbox has two quiet
// levels about a sixth apart that last tens of minutes and move every
// workload, the daemon included, by the same share; the chain moves with
// them (correlation with wall_s 0.76-0.96 over 14 runs across a change of
// level), which a loaded host's bursts, that the quiet floor removes, do
// not. Every reported time is divided by the run's level (README, "The
// level of the host").
func clockSample() float64 {
	t0 := time.Now()
	x := clockSink | 1
	for i := 0; i < 1_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	clockSink = x
	return time.Since(t0).Seconds()
}

var clockSink uint64

const (
	// clockNominal is a clock sample at the sandbox's faster quiet level:
	// level 1.0, the host the reported seconds are seconds of.
	clockNominal = 1.19e-3
	// clockSamplesPerOp samples are taken before every timed op.
	clockSamplesPerOp = 3
)

// canary is a fixed 16 MB pointer chase: every step misses the caches, so
// its floor tracks the host's memory latency and nothing in this repo. If
// it differs by more than a tenth between two sets of runs, the host
// changed, not the code.
type canary struct{ next []uint32 }

var canarySink uint32

func newCanary() *canary {
	const n = 4 << 20 // 4 Mi uint32 = 16 MB
	next := make([]uint32, n)
	for i := range next {
		next[i] = uint32(i)
	}
	// Sattolo's shuffle: one cycle through every slot.
	x := uint64(0x9e3779b97f4a7c15)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	return &canary{next: next}
}

// sample times k batches of 200k dependent loads, in seconds per batch.
func (c *canary) sample(k int) []float64 {
	out := make([]float64, 0, k)
	p := canarySink % uint32(len(c.next))
	for b := 0; b < k; b++ {
		t0 := time.Now()
		for i := 0; i < 200000; i++ {
			p = c.next[p]
		}
		out = append(out, time.Since(t0).Seconds())
	}
	canarySink = p
	return out
}
