// Package sweep is the parallel experiment runner: it fans a declarative
// grid of run specs (experiment kind, fabric, detector, congestion
// control, seed, horizon) across a worker pool, one simulator run per
// task.
//
// Concurrency model: a single run is strictly single-threaded — it owns a
// private sim.Scheduler, RNG and result recorder, exactly as in a serial
// invocation — and parallelism exists only *across* runs. Workers share
// nothing but the spec list and the result slice (each run writes its own
// index), so a parallel sweep produces byte-identical per-run results to
// the serial path; results are merged in stable spec order regardless of
// completion order. A run that panics is captured (spec, message, stack)
// without killing the sweep, and a cancelled context skips runs that have
// not started. Every front-end's run starts in runOne: the CLI and the
// daemon both submit a job (see Job), of one run or of many.
package sweep

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"github.com/tcdnet/tcd/internal/exp"
	"github.com/tcdnet/tcd/internal/obs"
	"github.com/tcdnet/tcd/internal/stats"
)

// Spec identifies one simulator run of a sweep. The zero values of the
// enum fields are meaningful ("fig3"-style defaults), so specs compare
// cheaply.
type Spec struct {
	// Exp names the experiment kind (an exp.Scenarios name such as
	// "fig3", "table3", or a caller-defined label).
	Exp string
	// Fabric selects CEE or IB.
	Fabric exp.FabricKind
	// Det selects the detector under test.
	Det exp.DetectorKind
	// CC selects the congestion control.
	CC exp.CCKind
	// Seed feeds the run's private random streams.
	Seed uint64
}

// String renders a compact label for progress lines and errors.
func (s Spec) String() string {
	return fmt.Sprintf("%s/%s/%s/%s/seed=%d", s.Exp, s.Fabric, s.Det, s.CC, s.Seed)
}

// Grid declares a cross product of run specs. Nil axes collapse to a
// single zero value, so a grid that only sweeps seeds stays one line.
type Grid struct {
	Exps    []string
	Fabrics []exp.FabricKind
	Dets    []exp.DetectorKind
	CCs     []exp.CCKind
	Seeds   []uint64
}

// Seq returns n consecutive seeds starting at base — the common
// multi-seed repetition axis.
func Seq(base uint64, n int) []uint64 {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = base + uint64(i)
	}
	return seeds
}

// Specs expands the grid in deterministic order: experiments outermost,
// seeds innermost, matching how the serial CLI would iterate the axes.
func (g Grid) Specs() []Spec {
	exps := g.Exps
	if len(exps) == 0 {
		exps = []string{""}
	}
	fabrics := g.Fabrics
	if len(fabrics) == 0 {
		fabrics = []exp.FabricKind{exp.CEE}
	}
	dets := g.Dets
	if len(dets) == 0 {
		dets = []exp.DetectorKind{exp.DetNone}
	}
	ccs := g.CCs
	if len(ccs) == 0 {
		ccs = []exp.CCKind{exp.CCFixed}
	}
	seeds := g.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	specs := make([]Spec, 0, len(exps)*len(fabrics)*len(dets)*len(ccs)*len(seeds))
	for _, e := range exps {
		for _, f := range fabrics {
			for _, d := range dets {
				for _, c := range ccs {
					for _, s := range seeds {
						specs = append(specs, Spec{Exp: e, Fabric: f, Det: d, CC: c, Seed: s})
					}
				}
			}
		}
	}
	return specs
}

// Shard partitions a spec list for multi-process sweeps: it returns the
// specs assigned to shard index of total, taking every total-th spec
// starting at index (round-robin, so seed-repetition axes spread evenly
// across shards instead of one shard getting every seed of one
// scenario). Sharding is deterministic: the union of all shards of the
// same spec list is exactly the list, with no overlap, so a sharded
// sweep reproduces the single-process sweep run-for-run.
func Shard(specs []Spec, index, total int) []Spec {
	if total <= 1 {
		return specs
	}
	if index < 0 || index >= total {
		return nil
	}
	out := make([]Spec, 0, (len(specs)+total-1-index)/total)
	for i := index; i < len(specs); i += total {
		out = append(out, specs[i])
	}
	return out
}

// Seeds is the spec list of a job: runs consecutive seeds from base.Seed
// of scenario sc, on base's fabric, detector and congestion control.
func Seeds(sc *exp.Scenario, base exp.Params, runs int) []Spec {
	return Grid{
		Exps:    []string{sc.Name},
		Fabrics: []exp.FabricKind{base.Fabric},
		Dets:    []exp.DetectorKind{base.Det},
		CCs:     []exp.CCKind{base.CC},
		Seeds:   Seq(base.Seed, runs),
	}.Specs()
}

// RunFunc executes one spec and returns its results. It is called from
// worker goroutines and must not share mutable state across calls: build
// a fresh rig (scheduler, RNG, recorder) per invocation.
type RunFunc func(Spec) []*exp.Result

// Scenario is the RunFunc of a registry scenario: each spec cell's
// fabric, detector, congestion control and seed are overlaid on base, the
// parameters every run of the sweep shares (the horizon among them). Of
// base.Obs the progress ticker is kept, and a telemetry fold — per-run
// state that Aggregate merges across seeds — is replaced by a private one
// per run. Every run writes into base's trace recorder and metrics
// registry, so a caller sets them only for a job of one run.
func Scenario(sc *exp.Scenario, base exp.Params) RunFunc {
	return func(sp Spec) []*exp.Result {
		p := base
		p.Fabric, p.Det, p.CC, p.Seed = sp.Fabric, sp.Det, sp.CC, sp.Seed
		if base.Obs.Telemetry != nil {
			p.Obs.Telemetry = obs.NewTelemetry(nil)
		}
		return sc.Run(p)
	}
}

// RunResult is the outcome of one spec.
type RunResult struct {
	Spec    Spec
	Results []*exp.Result
	// Err carries a captured panic (its message is the panic value; a
	// Stack method returns the goroutine stack), the *exp.InputError a
	// run panicked with, or the context error for runs skipped by
	// cancellation.
	Err error
	// Wall is the run's wall-clock duration (zero when skipped).
	Wall time.Duration
}

// Options tunes the engine.
type Options struct {
	// Parallel is the worker count; <= 0 means GOMAXPROCS.
	Parallel int
	// Progress, if non-nil, receives a "run i/n start <spec>" line as a
	// run is handed to a worker and a "run i/n done <spec> (<wall>)" line
	// as it ends, one write per line, all from Run's own goroutine. A run
	// skipped by cancellation writes nothing.
	Progress io.Writer
}

// panicError is a recovered run panic. Its message is the panic value
// alone: it reaches HTTP clients, and the RunResult or the Job error
// names the run.
type panicError struct {
	value interface{}
	stack []byte
}

func (e *panicError) Error() string { return fmt.Sprintf("panicked: %v", e.value) }

// Stack returns the panicking goroutine's stack, for local diagnostics.
func (e *panicError) Stack() []byte { return e.stack }

// Run executes every spec through fn on a pool of Options.Parallel
// workers and returns the outcomes in spec order. One diverging run
// (panic) marks only its own RunResult; cancelling ctx lets in-flight
// runs finish and marks not-yet-started ones with ctx.Err().
//
// Run's goroutine hands out the runs and collects them, so it alone
// checks ctx and writes Options.Progress.
func Run(ctx context.Context, specs []Spec, fn RunFunc, opt Options) []*RunResult {
	n, workers := len(specs), opt.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	say := func(format string, args ...any) {
		if opt.Progress != nil {
			fmt.Fprintf(opt.Progress, format, args...)
		}
	}
	out := make([]*RunResult, n)
	idx, done := make(chan int), make(chan int)
	defer close(idx)
	for w := 0; w < workers; w++ {
		go func() {
			for i := range idx {
				out[i] = runOne(specs[i], fn)
				done <- i
			}
		}()
	}
	for next, busy := 0, 0; next < n || busy > 0; {
		if next < n && busy < workers {
			if err := ctx.Err(); err != nil {
				out[next] = &RunResult{Spec: specs[next], Err: err}
			} else {
				say("run %d/%d start %s\n", next+1, n, specs[next])
				idx <- next
				busy++
			}
			next++
			continue
		}
		i := <-done
		busy--
		say("run %d/%d done %s (%v)\n", i+1, n, specs[i], out[i].Wall)
	}
	return out
}

// runOne executes a single spec with panic capture. An *exp.InputError
// is bad input, not a crash: it becomes the run's error as it is.
func runOne(spec Spec, fn RunFunc) (r *RunResult) {
	r = &RunResult{Spec: spec}
	start := time.Now()
	defer func() {
		r.Wall = time.Since(start)
		if v := recover(); v != nil {
			if bad, ok := v.(*exp.InputError); ok {
				r.Err = bad
			} else {
				r.Err = &panicError{value: v, stack: stack()}
			}
		}
	}()
	r.Results = fn(spec)
	return r
}

func stack() []byte {
	buf := make([]byte, 16<<10)
	return buf[:runtime.Stack(buf, false)]
}

// Stats summarizes one scalar across seeds.
type Stats struct {
	N                        int
	Min, Mean, Max, P50, P95 float64
}

// Fold computes the summary of vals (which must be non-empty).
func Fold(vals []float64) Stats {
	s := Stats{N: len(vals), Min: vals[0], Max: vals[0]}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.Mean = sum / float64(len(sorted))
	s.P50 = stats.Percentile(sorted, 0.5)
	s.P95 = stats.Percentile(sorted, 0.95)
	return s
}

// Aggregate folds the outputs of successful runs across seeds: results
// are grouped by result name (an experiment returning several results
// yields several aggregates), each scalar key becomes min/mean/max plus
// p50/p95 statistics, and streaming telemetry histograms with the same
// name merge bucket-wise into one whole-sweep distribution (merging is
// associative and commutative, so serial and parallel sweeps fold
// identically). Group and key order is the stable first-seen order, so
// aggregation over a deterministic sweep is itself deterministic.
func Aggregate(rs []*RunResult) []*exp.Result {
	type group struct {
		name     string
		keys     []string
		vals     map[string][]float64
		histKeys []string
		hists    map[string]*obs.Hist
		runs     int
	}
	var order []string
	groups := make(map[string]*group)
	for _, r := range rs {
		if r == nil || r.Err != nil {
			continue
		}
		for _, res := range r.Results {
			g, ok := groups[res.Name]
			if !ok {
				g = &group{
					name:  res.Name,
					vals:  make(map[string][]float64),
					hists: make(map[string]*obs.Hist),
				}
				groups[res.Name] = g
				order = append(order, res.Name)
			}
			g.runs++
			keys := make([]string, 0, len(res.Scalars))
			for k := range res.Scalars {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				if _, seen := g.vals[k]; !seen {
					g.keys = append(g.keys, k)
				}
				g.vals[k] = append(g.vals[k], res.Scalars[k])
			}
			hkeys := make([]string, 0, len(res.Hists))
			for k := range res.Hists {
				hkeys = append(hkeys, k)
			}
			sort.Strings(hkeys)
			for _, k := range hkeys {
				m, seen := g.hists[k]
				if !seen {
					m = obs.NewHist()
					g.hists[k] = m
					g.histKeys = append(g.histKeys, k)
				}
				m.Merge(res.Hists[k])
			}
		}
	}
	var out []*exp.Result
	for _, name := range order {
		g := groups[name]
		agg := exp.NewResult(fmt.Sprintf("%s-agg-%druns", name, g.runs))
		for _, k := range g.keys {
			st := Fold(g.vals[k])
			agg.Scalars[k+" mean"] = st.Mean
			agg.AddNote("%-40s min=%-12.4g mean=%-12.4g max=%-12.4g p50=%-12.4g p95=%.4g (n=%d)",
				k, st.Min, st.Mean, st.Max, st.P50, st.P95, st.N)
		}
		if len(g.histKeys) > 0 {
			agg.Hists = make(map[string]*obs.Hist, len(g.histKeys))
			for _, k := range g.histKeys {
				h := g.hists[k]
				agg.Hists[k] = h
				agg.Scalars["hist_"+k+"_p50"] = float64(h.Quantile(0.5))
				agg.Scalars["hist_"+k+"_p99"] = float64(h.Quantile(0.99))
				agg.AddNote("hist %-32s n=%-10d min=%-12d p50=%-12d p99=%-12d max=%d (merged over %d runs)",
					k, h.Count(), h.Min(), h.Quantile(0.5), h.Quantile(0.99), h.Max(), g.runs)
			}
		}
		out = append(out, agg)
	}
	return out
}

// Job runs specs through fn (usually Scenario) and returns the job
// document every front-end encodes with exp.WriteResultsJSON — each run's
// results in spec order, then their Aggregate when there is more than one
// run — beside the runs themselves. The first failed run, in spec order,
// fails the job; its error names the run.
func Job(ctx context.Context, specs []Spec, fn RunFunc, opt Options) ([]*exp.Result, []*RunResult, error) {
	rs := Run(ctx, specs, fn, opt)
	var doc []*exp.Result
	for _, r := range rs {
		if r.Err != nil {
			return nil, rs, fmt.Errorf("run %s: %w", r.Spec, r.Err)
		}
		doc = append(doc, r.Results...)
	}
	if len(rs) > 1 {
		doc = append(doc, Aggregate(rs)...)
	}
	return doc, rs, nil
}

// WriteCSV exports every scalar of every successful run as long-format
// CSV (one row per spec × result × scalar), the shape plotting scripts
// and spreadsheets ingest directly. Telemetry histograms export as
// hist:<name>:<stat> rows (count, min, mean, p50, p90, p99, max) per
// run, so cross-seed distributions can be rebuilt downstream.
func WriteCSV(w io.Writer, rs []*RunResult) error {
	if _, err := io.WriteString(w, "exp,fabric,det,cc,seed,result,scalar,value\n"); err != nil {
		return err
	}
	for _, r := range rs {
		if r.Err != nil {
			continue
		}
		for _, res := range r.Results {
			row := func(k string, v float64) error {
				_, err := fmt.Fprintf(w, "%s,%s,%s,%s,%d,%s,%q,%g\n",
					r.Spec.Exp, r.Spec.Fabric, r.Spec.Det, r.Spec.CC, r.Spec.Seed,
					res.Name, k, v)
				return err
			}
			keys := make([]string, 0, len(res.Scalars))
			for k := range res.Scalars {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				if err := row(k, res.Scalars[k]); err != nil {
					return err
				}
			}
			hkeys := make([]string, 0, len(res.Hists))
			for k := range res.Hists {
				hkeys = append(hkeys, k)
			}
			sort.Strings(hkeys)
			for _, k := range hkeys {
				h := res.Hists[k]
				for _, st := range []struct {
					name string
					v    float64
				}{
					{"count", float64(h.Count())},
					{"min", float64(h.Min())},
					{"mean", h.Mean()},
					{"p50", float64(h.Quantile(0.5))},
					{"p90", float64(h.Quantile(0.9))},
					{"p99", float64(h.Quantile(0.99))},
					{"max", float64(h.Max())},
				} {
					if err := row("hist:"+k+":"+st.name, st.v); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}
