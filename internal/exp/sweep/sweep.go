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
// not started.
package sweep

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/tcdnet/tcd/internal/exp"
	"github.com/tcdnet/tcd/internal/obs"
	"github.com/tcdnet/tcd/internal/stats"
)

// Spec identifies one simulator run of a sweep. The zero values of the
// enum fields are meaningful ("fig3"-style defaults), so specs marshal
// compactly and compare cheaply.
type Spec struct {
	// Exp names the experiment kind (an exp.Scenarios name such as
	// "fig3", "table3", or a caller-defined label).
	Exp string `json:"exp"`
	// Fabric selects CEE or IB.
	Fabric exp.FabricKind `json:"fabric"`
	// Det selects the detector under test.
	Det exp.DetectorKind `json:"det"`
	// CC selects the congestion control.
	CC exp.CCKind `json:"cc"`
	// Seed feeds the run's private random streams.
	Seed uint64 `json:"seed"`
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

// RunFunc executes one spec and returns its results. It is called from
// worker goroutines and must not share mutable state across calls: build
// a fresh rig (scheduler, RNG, recorder) per invocation.
type RunFunc func(Spec) []*exp.Result

// Scenario is the RunFunc of a registry scenario: each spec cell's
// fabric, detector, congestion control and seed are overlaid on base, the
// parameters every run of the sweep shares (the horizon among them). Of
// base.Obs only what concurrent runs can share survives: the progress
// ticker is kept, and a telemetry fold — per-run state that Aggregate
// merges across seeds — is replaced by a private one per run. The caller
// leaves the single-run trace/metrics/live sinks out of base.
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
	Spec    Spec          `json:"spec"`
	Results []*exp.Result `json:"-"`
	// Err carries a captured panic ("panic: <msg>" plus stack) or the
	// context error for runs skipped by cancellation.
	Err error `json:"-"`
	// Wall is the run's wall-clock duration (zero when skipped).
	Wall time.Duration `json:"-"`
}

// Options tunes the engine.
type Options struct {
	// Parallel is the worker count; <= 0 means GOMAXPROCS.
	Parallel int
	// OnStart, if non-nil, is called just before a run begins executing
	// on a worker (in start order, serialized — safe to print from).
	// Runs skipped by cancellation never see OnStart.
	OnStart func(index int, spec Spec)
	// OnDone, if non-nil, is called after each run completes (in
	// completion order, serialized — safe to print from).
	OnDone func(index int, r *RunResult)
}

// panicError is a recovered run panic.
type panicError struct {
	spec  Spec
	value interface{}
	stack []byte
}

func (e *panicError) Error() string {
	return fmt.Sprintf("sweep: run %s panicked: %v\n%s", e.spec, e.value, e.stack)
}

// Run executes every spec through fn on a pool of Options.Parallel
// workers and returns the outcomes in spec order. One diverging run
// (panic) marks only its own RunResult; cancelling ctx lets in-flight
// runs finish and marks not-yet-started ones with ctx.Err().
func Run(ctx context.Context, specs []Spec, fn RunFunc, opt Options) []*RunResult {
	workers := opt.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	out := make([]*RunResult, len(specs))
	idx := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex // serializes OnStart/OnDone
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if opt.OnStart != nil && ctx.Err() == nil {
					mu.Lock()
					opt.OnStart(i, specs[i])
					mu.Unlock()
				}
				r := runOne(ctx, specs[i], fn)
				out[i] = r
				if opt.OnDone != nil {
					mu.Lock()
					opt.OnDone(i, r)
					mu.Unlock()
				}
			}
		}()
	}
	for i := range specs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// runOne executes a single spec with panic capture.
func runOne(ctx context.Context, spec Spec, fn RunFunc) (r *RunResult) {
	r = &RunResult{Spec: spec}
	if err := ctx.Err(); err != nil {
		r.Err = err
		return r
	}
	start := time.Now()
	defer func() {
		r.Wall = time.Since(start)
		if v := recover(); v != nil {
			r.Err = &panicError{spec: spec, value: v, stack: stack()}
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

// Errors returns the failed runs (panics, cancellations).
func Errors(rs []*RunResult) []*RunResult {
	var out []*RunResult
	for _, r := range rs {
		if r != nil && r.Err != nil {
			out = append(out, r)
		}
	}
	return out
}

// WriteJSON serializes the sweep — per-run spec, wall time, error and
// full results — as one indented JSON document: an array of runs, each
// closing with the array of its results. Per-run result payloads are
// exp.Result's deterministic encoding, written once at their nesting
// depth, so two sweeps over the same specs differ only in the wall-clock
// fields.
func WriteJSON(w io.Writer, rs []*RunResult) error {
	type runJSON struct {
		Spec   Spec    `json:"spec"`
		WallMs float64 `json:"wall_ms"`
		Error  string  `json:"error,omitempty"`
	}
	// Runs sit one level deep ("  "), their results three ("      ").
	bw := bufio.NewWriter(w) // its first error sticks; Flush reports it
	bw.WriteString("[")
	for i, r := range rs {
		rj := runJSON{Spec: r.Spec, WallMs: float64(r.Wall.Microseconds()) / 1000}
		if r.Err != nil {
			rj.Error = r.Err.Error()
		}
		run, err := json.MarshalIndent(rj, "  ", "  ")
		if err != nil {
			return err
		}
		if i > 0 {
			bw.WriteString(",")
		}
		bw.WriteString("\n  ")
		if len(r.Results) == 0 {
			bw.Write(run)
			continue
		}
		// The run's object closes with "\n  }"; "results" goes in before.
		bw.Write(run[:len(run)-len("\n  }")])
		bw.WriteString(",\n    \"results\": [")
		for j, res := range r.Results {
			if j > 0 {
				bw.WriteString(",")
			}
			bw.WriteString("\n      ")
			if err := res.WriteJSONIndent(bw, "      "); err != nil {
				return err
			}
		}
		bw.WriteString("\n    ]\n  }")
	}
	if len(rs) > 0 {
		bw.WriteString("\n")
	}
	bw.WriteString("]\n")
	return bw.Flush()
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
