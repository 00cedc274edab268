package sweep

import (
	"bytes"
	"context"
	"testing"

	"github.com/tcdnet/tcd/internal/exp"
	"github.com/tcdnet/tcd/internal/obs"
	"github.com/tcdnet/tcd/internal/units"
)

// telemetryRun is observeRun with a private telemetry collector per run,
// the way cmd/tcdsim wires sweeps under -telemetry.
func telemetryRun(s Spec) []*exp.Result {
	cfg := exp.DefaultObserveConfig(s.Fabric, exp.DetBaseline, false)
	cfg.Seed = s.Seed
	cfg.Horizon = 2 * units.Millisecond
	cfg.BurstRounds = 4
	cfg.Obs = obs.Config{Telemetry: obs.NewTelemetry(nil)}
	return []*exp.Result{exp.Observe(cfg)}
}

// TestSweepHistogramFoldSerialParallelIdentical: the merged histograms
// (and therefore every aggregated percentile) must not depend on worker
// count or completion order — Merge is associative and commutative, and
// Aggregate groups runs in deterministic spec order.
func TestSweepHistogramFoldSerialParallelIdentical(t *testing.T) {
	specs := Grid{
		Exps:    []string{"observe"},
		Fabrics: []exp.FabricKind{exp.CEE},
		Seeds:   Seq(1, 4),
	}.Specs()
	serial := Run(context.Background(), specs, telemetryRun, Options{Parallel: 1})
	parallel := Run(context.Background(), specs, telemetryRun, Options{Parallel: 8})

	aggJSON := func(rs []*RunResult) []byte {
		var buf bytes.Buffer
		for _, agg := range Aggregate(rs) {
			if err := agg.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	sj, pj := aggJSON(serial), aggJSON(parallel)
	if !bytes.Equal(sj, pj) {
		t.Fatal("serial and parallel sweep aggregates differ")
	}

	aggs := Aggregate(serial)
	if len(aggs) != 1 {
		t.Fatalf("got %d aggregate groups, want 1", len(aggs))
	}
	agg := aggs[0]
	h, ok := agg.Hists["fct_ps"]
	if !ok {
		t.Fatal("aggregate lost the fct histogram")
	}
	// The merged histogram must equal the bucket-wise sum of the per-run
	// ones, i.e. exactly the serial fold.
	want := obs.NewHist()
	var total int64
	for _, r := range serial {
		if r.Err != nil {
			t.Fatalf("run %s: %v", r.Spec, r.Err)
		}
		ph := r.Results[0].Hists["fct_ps"]
		want.Merge(ph)
		total += ph.Count()
	}
	if *h != *want {
		t.Fatal("merged histogram differs from the serial bucket-wise fold")
	}
	if h.Count() != total || total == 0 {
		t.Fatalf("merged count %d, want %d (>0)", h.Count(), total)
	}
	if agg.Scalars["hist_fct_ps_p99"] != float64(want.Quantile(0.99)) {
		t.Fatal("aggregated p99 scalar does not match the merged histogram")
	}
}
