package sweep

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/tcdnet/tcd/internal/exp"
	"github.com/tcdnet/tcd/internal/units"
)

// observeRun is a reduced-scale §3.1 observation run — heavy enough to
// exercise the full simulator stack, light enough for the race detector.
func observeRun(s Spec) []*exp.Result {
	cfg := exp.DefaultObserveConfig(s.Fabric, s.Det, false)
	cfg.Seed = s.Seed
	cfg.Horizon = 2 * units.Millisecond
	cfg.BurstRounds = 4
	return []*exp.Result{exp.Observe(cfg)}
}

func resultJSON(t *testing.T, rs []*RunResult) []string {
	t.Helper()
	var out []string
	for _, r := range rs {
		if r.Err != nil {
			t.Fatalf("run %s failed: %v", r.Spec, r.Err)
		}
		for _, res := range r.Results {
			var buf bytes.Buffer
			if err := res.WriteJSON(&buf); err != nil {
				t.Fatalf("WriteJSON: %v", err)
			}
			out = append(out, buf.String())
		}
	}
	return out
}

// TestSerialParallelEquivalence is the engine's core guarantee: the same
// grid run with one worker and with eight workers yields byte-identical
// per-run Result JSON, in the same (spec) order.
func TestSerialParallelEquivalence(t *testing.T) {
	grid := Grid{
		Exps:    []string{"observe"},
		Fabrics: []exp.FabricKind{exp.CEE, exp.IB},
		Dets:    []exp.DetectorKind{exp.DetBaseline},
		Seeds:   Seq(1, 2),
	}
	specs := grid.Specs()
	serial := Run(context.Background(), specs, observeRun, Options{Parallel: 1})
	parallel := Run(context.Background(), specs, observeRun, Options{Parallel: 8})

	sj, pj := resultJSON(t, serial), resultJSON(t, parallel)
	if len(sj) != len(pj) {
		t.Fatalf("result counts differ: serial %d, parallel %d", len(sj), len(pj))
	}
	for i := range sj {
		if sj[i] != pj[i] {
			t.Errorf("run %d (%s): serial and parallel Result JSON differ", i, specs[i])
		}
	}
}

func TestGridSpecsOrderAndDefaults(t *testing.T) {
	g := Grid{
		Exps:  []string{"a", "b"},
		Seeds: []uint64{10, 11},
	}
	specs := g.Specs()
	if len(specs) != 4 {
		t.Fatalf("len(specs) = %d, want 4", len(specs))
	}
	want := []Spec{
		{Exp: "a", Seed: 10}, {Exp: "a", Seed: 11},
		{Exp: "b", Seed: 10}, {Exp: "b", Seed: 11},
	}
	for i := range want {
		if specs[i] != want[i] {
			t.Errorf("specs[%d] = %+v, want %+v", i, specs[i], want[i])
		}
	}
}

// TestShardPartitionsExactly pins the multi-process contract: shards are
// disjoint, their union (in round-robin order) is the original list, and
// degenerate parameters behave sanely.
func TestShardPartitionsExactly(t *testing.T) {
	specs := Grid{Exps: []string{"a", "b", "c"}, Seeds: Seq(1, 4)}.Specs()
	for _, total := range []int{1, 2, 3, 5, len(specs), len(specs) + 3} {
		seen := make(map[Spec]int)
		for idx := 0; idx < total; idx++ {
			shard := Shard(specs, idx, total)
			for i, s := range shard {
				if want := specs[idx+i*total]; s != want {
					t.Fatalf("total=%d shard %d[%d] = %+v, want %+v", total, idx, i, s, want)
				}
				seen[s]++
			}
		}
		if len(seen) != len(specs) {
			t.Fatalf("total=%d: union covers %d specs, want %d", total, len(seen), len(specs))
		}
		for s, n := range seen {
			if n != 1 {
				t.Fatalf("total=%d: spec %+v assigned to %d shards", total, s, n)
			}
		}
	}
	if got := Shard(specs, -1, 4); got != nil {
		t.Errorf("Shard(index=-1) = %v, want nil", got)
	}
	if got := Shard(specs, 4, 4); got != nil {
		t.Errorf("Shard(index=total) = %v, want nil", got)
	}
	if got := Shard(specs, 0, 0); len(got) != len(specs) {
		t.Errorf("Shard(total=0) dropped specs: %d of %d", len(got), len(specs))
	}
}

func TestPanicCapture(t *testing.T) {
	specs := Grid{Exps: []string{"x"}, Seeds: Seq(0, 4)}.Specs()
	fn := func(s Spec) []*exp.Result {
		if s.Seed == 2 {
			panic("diverged")
		}
		r := exp.NewResult("ok")
		r.Scalars["seed"] = float64(s.Seed)
		return []*exp.Result{r}
	}
	rs := Run(context.Background(), specs, fn, Options{Parallel: 4})
	errs := Errors(rs)
	if len(errs) != 1 {
		t.Fatalf("Errors() = %d failed runs, want 1", len(errs))
	}
	if errs[0].Spec.Seed != 2 {
		t.Errorf("failed seed = %d, want 2", errs[0].Spec.Seed)
	}
	if msg := errs[0].Err.Error(); !strings.Contains(msg, "diverged") || !strings.Contains(msg, "sweep_test.go") {
		t.Errorf("panic error lacks message or stack: %q", msg)
	}
	for _, r := range rs {
		if r.Spec.Seed != 2 && (r.Err != nil || len(r.Results) != 1) {
			t.Errorf("run seed=%d was disturbed by the panicking run: %+v", r.Spec.Seed, r)
		}
	}
}

func TestCancellationSkipsPendingRuns(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	specs := Grid{Exps: []string{"x"}, Seeds: Seq(0, 8)}.Specs()
	ran := 0
	fn := func(s Spec) []*exp.Result {
		ran++
		cancel() // cancel after the first run starts (Parallel=1: serialized)
		return []*exp.Result{exp.NewResult("ok")}
	}
	rs := Run(ctx, specs, fn, Options{Parallel: 1})
	if ran == len(specs) {
		t.Fatal("cancellation did not skip any runs")
	}
	skipped := Errors(rs)
	if len(skipped) != len(specs)-ran {
		t.Errorf("skipped %d runs, want %d", len(skipped), len(specs)-ran)
	}
	for _, r := range skipped {
		if r.Err != context.Canceled {
			t.Errorf("skipped run error = %v, want context.Canceled", r.Err)
		}
	}
}

func TestAggregateFoldsAcrossSeeds(t *testing.T) {
	mk := func(seed uint64, v float64) *RunResult {
		r := exp.NewResult("obs")
		r.Scalars["metric"] = v
		return &RunResult{Spec: Spec{Seed: seed}, Results: []*exp.Result{r}}
	}
	rs := []*RunResult{mk(1, 1), mk(2, 3), mk(3, 2), {Spec: Spec{Seed: 4}, Err: context.Canceled}}
	aggs := Aggregate(rs)
	if len(aggs) != 1 {
		t.Fatalf("len(aggs) = %d, want 1", len(aggs))
	}
	agg := aggs[0]
	if agg.Name != "obs-agg-3runs" {
		t.Errorf("agg name = %q", agg.Name)
	}
	if got := agg.Scalars["metric mean"]; got != 2 {
		t.Errorf("mean = %g, want 2", got)
	}
	if len(agg.Notes) != 1 || !strings.Contains(agg.Notes[0], "min=1") || !strings.Contains(agg.Notes[0], "max=3") {
		t.Errorf("notes = %v", agg.Notes)
	}
}

func TestFoldStats(t *testing.T) {
	st := Fold([]float64{5, 1, 3, 2, 4})
	if st.N != 5 || st.Min != 1 || st.Max != 5 || st.Mean != 3 || st.P50 != 3 {
		t.Errorf("Fold = %+v", st)
	}
}

// TestFoldNearestRank: the p95 of two or three runs is the largest of
// them (an index of int(p*(n-1)) made it the minimum and the median), and
// the quantiles are ordered on any input.
func TestFoldNearestRank(t *testing.T) {
	for _, vals := range [][]float64{{0.5, 0}, {0.5, 0, 0.7059}} {
		if st := Fold(vals); st.P95 != st.Max {
			t.Errorf("Fold(%v).P95 = %v, want the maximum %v", vals, st.P95, st.Max)
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		vals := make([]float64, 1+r.Intn(40))
		for j := range vals {
			vals[j] = r.NormFloat64()
		}
		if st := Fold(vals); !(st.Min <= st.P50 && st.P50 <= st.P95 && st.P95 <= st.Max) {
			t.Fatalf("Fold(%v) = %+v: quantiles out of order", vals, st)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	r := exp.NewResult("obs")
	r.Scalars["m"] = 1.5
	rs := []*RunResult{{
		Spec:    Spec{Exp: "fig3", Fabric: exp.CEE, Det: exp.DetBaseline, CC: exp.CCDCQCN, Seed: 7},
		Results: []*exp.Result{r},
	}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rs); err != nil {
		t.Fatal(err)
	}
	want := "exp,fabric,det,cc,seed,result,scalar,value\nfig3,cee,baseline,dcqcn,7,obs,\"m\",1.5\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestWriteJSONIncludesErrors(t *testing.T) {
	ok := exp.NewResult("obs")
	ok.Scalars["m"] = 1
	rs := []*RunResult{
		{Spec: Spec{Exp: "a"}, Results: []*exp.Result{ok}},
		{Spec: Spec{Exp: "b"}, Err: context.Canceled},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rs); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{`"exp": "a"`, `"name": "obs"`, `"error": "context canceled"`} {
		if !strings.Contains(s, want) {
			t.Errorf("sweep JSON missing %q:\n%s", want, s)
		}
	}
}

// TestOnStartHook: OnStart fires once per executed run, serialized, with
// the matching index/spec pair, and canceled runs never see it.
func TestOnStartHook(t *testing.T) {
	grid := Grid{
		Exps:    []string{"observe"},
		Fabrics: []exp.FabricKind{exp.CEE},
		Dets:    []exp.DetectorKind{exp.DetBaseline},
		Seeds:   Seq(1, 4),
	}
	specs := grid.Specs()
	var startOrder []int
	rs := Run(context.Background(), specs, observeRun, Options{
		Parallel: 4,
		OnStart: func(i int, sp Spec) {
			// The Options mutex serializes hooks; appending without extra
			// locking is the guarantee under test (run with -race).
			startOrder = append(startOrder, i)
			if sp != specs[i] {
				t.Errorf("OnStart index %d got spec %s, want %s", i, sp, specs[i])
			}
		},
	})
	if len(startOrder) != len(specs) {
		t.Fatalf("OnStart fired %d times for %d runs", len(startOrder), len(specs))
	}
	seen := map[int]bool{}
	for _, i := range startOrder {
		if seen[i] {
			t.Errorf("OnStart fired twice for run %d", i)
		}
		seen[i] = true
	}
	for _, r := range rs {
		if r.Err != nil {
			t.Fatalf("run %s: %v", r.Spec, r.Err)
		}
	}

	// A canceled context skips pending runs without calling OnStart.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	Run(ctx, specs, observeRun, Options{
		Parallel: 2,
		OnStart:  func(int, Spec) { calls++ },
	})
	if calls != 0 {
		t.Errorf("OnStart fired %d times under a canceled context", calls)
	}
}

// pinnedSweep is the sweep TestWriteJSONPinned hashes: two seeds each of
// fig12 (series) and table3 (several results per run) at 1 ms, plus a
// cancelled run (an "error" and no "results"), with wall_ms zeroed.
func pinnedSweep() []*RunResult {
	var rs []*RunResult
	for _, name := range []string{"fig12", "table3"} {
		specs := Grid{Exps: []string{name}, Fabrics: []exp.FabricKind{exp.CEE}, Seeds: Seq(1, 2)}.Specs()
		fn := Scenario(exp.Lookup(name), exp.Params{Horizon: units.Millisecond})
		rs = append(rs, Run(context.Background(), specs, fn, Options{Parallel: 1})...)
	}
	rs = append(rs, &RunResult{Spec: Spec{Exp: "skipped", Seed: 3}, Err: context.Canceled})
	for _, r := range rs {
		r.Wall = 0
	}
	return rs
}

// TestWriteJSONPinned holds the sweep document to the bytes it had when
// every result was re-indented by encoding/json (commit e9d01ce).
func TestWriteJSONPinned(t *testing.T) {
	const want = "aae5a03a5715105fdad00030acbc72377517b31ac874432ecba0ba86c5e5e756"
	var buf bytes.Buffer
	if err := WriteJSON(&buf, pinnedSweep()); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Errorf("sweep JSON sha256 = %s (%d bytes), want %s", got, buf.Len(), want)
	}
}
