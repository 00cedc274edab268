package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/tcdnet/tcd/internal/exp"
	"github.com/tcdnet/tcd/internal/fault"
	"github.com/tcdnet/tcd/internal/host"
	"github.com/tcdnet/tcd/internal/topo"
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
	errs := failed(rs)
	if len(errs) != 1 {
		t.Fatalf("%d failed runs, want 1", len(errs))
	}
	if errs[0].Spec.Seed != 2 {
		t.Errorf("failed seed = %d, want 2", errs[0].Spec.Seed)
	}
	if msg := errs[0].Err.Error(); msg != "panicked: diverged" {
		t.Errorf("panic error reads %q, want the panic value alone", msg)
	}
	if st := errs[0].Err.(*panicError).Stack(); !strings.Contains(string(st), "sweep_test.go") {
		t.Errorf("panic stack lacks the panicking frame:\n%s", st)
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
	skipped := failed(rs)
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

// TestProgressLines: Progress gets one start line before and one done
// line after each run, each in one write and never two writes at once
// (the writer is unsynchronized: run with -race), and nothing for runs a
// cancelled context skips.
func TestProgressLines(t *testing.T) {
	specs := Grid{Exps: []string{"x"}, Seeds: Seq(1, 6)}.Specs()
	fn := func(Spec) []*exp.Result { return []*exp.Result{exp.NewResult("ok")} }
	var w lineWriter
	for _, r := range Run(context.Background(), specs, fn, Options{Parallel: 3, Progress: &w}) {
		if r.Err != nil {
			t.Fatalf("run %s: %v", r.Spec, r.Err)
		}
	}
	if len(w.lines) != 2*len(specs) {
		t.Fatalf("%d progress lines for %d runs, want two per run:\n%s", len(w.lines), len(specs), strings.Join(w.lines, ""))
	}
	started := map[string]bool{}
	for _, line := range w.lines {
		var i, n int
		var what, spec string
		if _, err := fmt.Sscanf(line, "run %d/%d %s %s", &i, &n, &what, &spec); err != nil || n != len(specs) || spec != specs[i-1].String() {
			t.Fatalf("progress line %q does not name run i/%d and its spec", line, len(specs))
		}
		switch {
		case what == "start" && !started[spec]:
			started[spec] = true
		case what == "done" && started[spec] && strings.HasSuffix(line, ")\n"):
			delete(started, spec)
		default:
			t.Errorf("unexpected progress line %q", line)
		}
	}
	if len(started) != 0 {
		t.Errorf("runs started and never done: %v", started)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w.lines = nil
	Run(ctx, specs, fn, Options{Parallel: 2, Progress: &w})
	if len(w.lines) != 0 {
		t.Errorf("a cancelled sweep wrote %q", w.lines)
	}
}

// lineWriter records each write as one line. It has no lock, so the race
// detector flags two writes at once.
type lineWriter struct{ lines []string }

func (w *lineWriter) Write(b []byte) (int, error) {
	w.lines = append(w.lines, string(b))
	return len(b), nil
}

// TestJobDocument: a job's document is each run's results in spec order,
// then the cross-seed aggregate when there is more than one run, and a
// failed run fails the job.
func TestJobDocument(t *testing.T) {
	sc := exp.Lookup("fig12")
	base := exp.Params{Horizon: units.Millisecond, Seed: 5}
	specs := Seeds(sc, base, 3)
	for i, sp := range specs {
		if sp.Exp != "fig12" || sp.Seed != uint64(5+i) {
			t.Fatalf("Seeds[%d] = %s", i, sp)
		}
	}
	doc, rs, err := Job(context.Background(), specs, Scenario(sc, base), Options{Parallel: 2})
	if err != nil || len(rs) != len(specs) {
		t.Fatalf("%d runs, error %v", len(rs), err)
	}
	var names []string
	for _, r := range doc {
		names = append(names, r.Name)
	}
	run := sc.Run(base)[0].Name
	if want := []string{run, run, run, run + "-agg-3runs"}; strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("document holds %v, want %v", names, want)
	}
	if one, _, _ := Job(context.Background(), specs[:1], Scenario(sc, base), Options{}); len(one) != 1 {
		t.Errorf("a one-run document holds %d results, want the run's 1", len(one))
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Job(ctx, specs, Scenario(sc, base), Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("a cancelled job returned %v, want context.Canceled", err)
	}
}

// A failed run's job error names the run once and carries the panic
// value, not the stack: the daemon hands the message to HTTP clients.
func TestJobErrorNamesTheRunOnce(t *testing.T) {
	sc := exp.Lookup("fig12")
	base := exp.Params{Horizon: units.Millisecond, Seed: 5,
		Faults: &fault.Spec{Events: []fault.Event{{Kind: "link-down", Link: "X-Y"}}}}
	specs := Seeds(sc, base, 1)
	_, _, err := Job(context.Background(), specs, Scenario(sc, base), Options{})
	if err == nil {
		t.Fatal("a run against an unknown link did not fail")
	}
	msg := err.Error()
	if n := strings.Count(msg, specs[0].String()); n != 1 || strings.Contains(msg, "goroutine") || !strings.Contains(msg, "X-Y") {
		t.Errorf("job error names the run %d times or carries a stack: %q", n, msg)
	}
}

// TestFailedAuditFailsItsRun: Rig.Run audits every simulation, and a
// violation fails that run alone. One run forges a 1 KB receive surplus,
// which the conservation check must catch; the other runs clean.
func TestFailedAuditFailsItsRun(t *testing.T) {
	specs := Grid{Exps: []string{"audit"}, Seeds: Seq(0, 2)}.Specs()
	fn := func(s Spec) []*exp.Result {
		rig := exp.NewFig2Rig(topo.Fig2Config{}, exp.RigConfig{Run: exp.Run{Kind: exp.CEE, Seed: 1}, Det: exp.DetBaseline})
		f := rig.Mgr.AddFlow(rig.F2.S1, rig.F2.R1, units.MB, 0, host.FixedRate(40*units.Gbps))
		if s.Seed == 0 {
			rig.Mgr.AdjustRx(f, units.KB)
		}
		rig.Run(units.Millisecond)
		return []*exp.Result{exp.NewResult("audit")}
	}
	_, rs, err := Job(context.Background(), specs, fn, Options{Parallel: 1})
	if err == nil {
		t.Fatal("a job with a forged run succeeded")
	}
	if e := rs[0].Err; e == nil || !strings.Contains(e.Error(), "conservation") {
		t.Errorf("forged run: error %v, want the conservation violation", e)
	}
	if rs[1].Err != nil || len(rs[1].Results) != 1 {
		t.Errorf("clean run was disturbed by the forged one: %+v", rs[1])
	}
}

// failed returns the runs that panicked or were skipped.
func failed(rs []*RunResult) []*RunResult {
	var out []*RunResult
	for _, r := range rs {
		if r.Err != nil {
			out = append(out, r)
		}
	}
	return out
}
