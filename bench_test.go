// Benchmarks that regenerate every table and figure of the paper's
// evaluation at reduced scale (see DESIGN.md for the experiment index and
// EXPERIMENTS.md for paper-vs-measured results; cmd/tcdsim -full runs the
// paper-scale versions).
//
// Each benchmark reports, beyond ns/op, the experiment's headline metric
// via b.ReportMetric so `go test -bench=.` doubles as a results table.
package tcd_test

import (
	"strings"
	"testing"

	"github.com/tcdnet/tcd/internal/exp"
	"github.com/tcdnet/tcd/internal/units"
)

const benchSeed = 42

// benchRun is the run header of the benchmarks that take one.
func benchRun(kind exp.FabricKind, horizon units.Time) exp.Run {
	return exp.Run{Kind: kind, Seed: benchSeed, Horizon: horizon}
}

func benchObserve(b *testing.B, kind exp.FabricKind, det exp.DetectorKind, multi bool) *exp.Result {
	var res *exp.Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := exp.DefaultObserveConfig(kind, det, multi)
		cfg.Horizon = 5 * units.Millisecond
		cfg.BurstRounds = 10
		cfg.Seed = benchSeed
		res = exp.Observe(cfg)
	}
	return res
}

// Fig 3: single congestion point under the baseline detectors — the
// improper-marking observation.
func BenchmarkFig3SingleCongestionPoint(b *testing.B) {
	for _, kind := range []exp.FabricKind{exp.CEE, exp.IB} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			res := benchObserve(b, kind, exp.DetBaseline, false)
			b.ReportMetric(res.Scalars["f0_ce"], "victim-CE-pkts")
			b.ReportMetric(res.Scalars["p2_max_queue_kb"], "P2-maxQ-KB")
		})
	}
}

// Fig 4: multiple congestion points under the baseline detectors.
func BenchmarkFig4MultipleCongestionPoints(b *testing.B) {
	for _, kind := range []exp.FabricKind{exp.CEE, exp.IB} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			res := benchObserve(b, kind, exp.DetBaseline, true)
			b.ReportMetric(res.Scalars["p2_max_queue_kb"], "P2-maxQ-KB")
		})
	}
}

// Fig 8: the analytic ON-OFF model surface.
func BenchmarkFig8TonSurface(b *testing.B) {
	var res *exp.Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res = exp.Fig8()
	}
	b.ReportMetric(res.Scalars["plane_eps0.05_us"], "plane-us")
}

// Fig 11: the testbed marking staircase.
func BenchmarkFig11TestbedMarking(b *testing.B) {
	for _, kind := range []exp.FabricKind{exp.CEE, exp.IB} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			var res *exp.Result
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := exp.DefaultTestbedConfig(kind)
				cfg.Horizon = 20 * units.Millisecond
				cfg.Seed = benchSeed
				res = exp.Testbed(cfg)
			}
			b.ReportMetric(res.Scalars["f0_ue_during"], "F0-UE-frac")
			b.ReportMetric(res.Scalars["f0_ce_during"], "F0-CE-frac")
		})
	}
}

// Fig 12: single congestion point with TCD (undetermined -> non-congestion).
func BenchmarkFig12TCDSingleCP(b *testing.B) {
	for _, kind := range []exp.FabricKind{exp.CEE, exp.IB} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			res := benchObserve(b, kind, exp.DetTCD, false)
			b.ReportMetric(res.Scalars["p2_ce_during_bursts"], "P2-CE-in-bursts")
			b.ReportMetric(res.Scalars["p2_time_undetermined_us"], "P2-und-us")
		})
	}
}

// Fig 13: multiple congestion points with TCD (undetermined -> congestion).
func BenchmarkFig13TCDMultiCP(b *testing.B) {
	for _, kind := range []exp.FabricKind{exp.CEE, exp.IB} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			res := benchObserve(b, kind, exp.DetTCD, true)
			b.ReportMetric(res.Scalars["p2_time_congestion_us"]+
				b2f(res.Scalars["p2_final_state"] == 1), "P2-cong-us")
		})
	}
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// Table 3: fraction of victim flows mistakenly marked CE.
func BenchmarkTable3VictimFlows(b *testing.B) {
	var rows []exp.Table3Row
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, rows = exp.Table3(10*units.Millisecond, benchSeed)
	}
	for _, r := range rows {
		unit := strings.ReplaceAll(strings.ReplaceAll(r.Scheme, " ", ""), "(", "-")
		unit = strings.ReplaceAll(unit, ")", "")
		b.ReportMetric(r.Fraction, unit+"-frac")
	}
}

// Fig 14: sensitivity of eps.
func BenchmarkFig14EpsilonSensitivity(b *testing.B) {
	var res *exp.Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res = exp.Fig14(benchRun(exp.CEE, 8*units.Millisecond))
	}
	for _, eps := range []string{"0.05", "0.40"} {
		b.ReportMetric(res.Scalars["eps="+eps+" victim CE pkts"], "CE-pkts@eps"+eps)
	}
}

// Fig 15: DCQCN vs DCQCN+TCD on victim flows.
func BenchmarkFig15DCQCNVictims(b *testing.B) {
	var res *exp.Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res = exp.VictimFCT(benchRun(exp.CEE, 15*units.Millisecond), exp.CCDCQCN, exp.CCDCQCNTCD)
	}
	b.ReportMetric(res.Scalars["speedup"], "victim-FCT-speedup")
	b.ReportMetric(res.Scalars["stock_victim_ce_frac"], "stock-CE-frac")
}

// Fig 16: fat-tree FCT slowdown, DCQCN vs DCQCN+TCD, both workloads.
func BenchmarkFig16DCQCNWorkloads(b *testing.B) {
	for _, wl := range []string{"hadoop", "websearch"} {
		wl := wl
		b.Run(wl, func(b *testing.B) {
			var res *exp.Result
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := exp.DefaultFatTreeConfig(exp.CEE, exp.DetBaseline, exp.CCDCQCN, wl)
				cfg.K = 4
				cfg.MaxFlows = 400
				cfg.Horizon = 20 * units.Millisecond
				cfg.Seed = benchSeed
				res = exp.FatTreeComparison(cfg, exp.CCDCQCN, exp.CCDCQCNTCD)
			}
			b.ReportMetric(res.Scalars["p50_improvement"], "p50-improvement")
			b.ReportMetric(res.Scalars["p99_improvement"], "p99-improvement")
		})
	}
}

// Fig 17: IB CC vs IB CC+TCD — victim MCT plus the MPI/IO fat-tree.
func BenchmarkFig17IBCC(b *testing.B) {
	b.Run("victims", func(b *testing.B) {
		var res *exp.Result
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res = exp.VictimFCT(benchRun(exp.IB, 15*units.Millisecond), exp.CCIBCC, exp.CCIBCCTCD)
		}
		b.ReportMetric(res.Scalars["speedup"], "victim-MCT-speedup")
	})
	b.Run("mpiio", func(b *testing.B) {
		var res *exp.Result
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := exp.DefaultFatTreeConfig(exp.IB, exp.DetBaseline, exp.CCIBCC, "mpiio")
			cfg.K = 4
			cfg.MaxFlows = 400
			cfg.Horizon = 20 * units.Millisecond
			cfg.Seed = benchSeed
			res = exp.FatTreeComparison(cfg, exp.CCIBCC, exp.CCIBCCTCD)
		}
		b.ReportMetric(res.Scalars["mct_improvement"], "MCT-improvement")
	})
}

// Fig 18: TIMELY vs TIMELY+TCD on victim flows.
func BenchmarkFig18TIMELYVictims(b *testing.B) {
	var res *exp.Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res = exp.VictimFCT(benchRun(exp.CEE, 15*units.Millisecond), exp.CCTIMELY, exp.CCTIMELYTCD)
	}
	b.ReportMetric(res.Scalars["speedup"], "victim-FCT-speedup")
}

// Fig 19: fat-tree FCT slowdown, TIMELY vs TIMELY+TCD.
func BenchmarkFig19TIMELYWorkloads(b *testing.B) {
	for _, wl := range []string{"hadoop", "websearch"} {
		wl := wl
		b.Run(wl, func(b *testing.B) {
			var res *exp.Result
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := exp.DefaultFatTreeConfig(exp.CEE, exp.DetBaseline, exp.CCTIMELY, wl)
				cfg.K = 4
				cfg.MaxFlows = 400
				cfg.Horizon = 20 * units.Millisecond
				cfg.Seed = benchSeed
				res = exp.FatTreeComparison(cfg, exp.CCTIMELY, exp.CCTIMELYTCD)
			}
			b.ReportMetric(res.Scalars["p50_improvement"], "p50-improvement")
		})
	}
}

// Fig 20: fairness of the ternary rate-adjustment rules.
func BenchmarkFig20Fairness(b *testing.B) {
	for _, cc := range []exp.CCKind{exp.CCDCQCNTCD, exp.CCTIMELYTCD} {
		cc := cc
		b.Run(cc.String(), func(b *testing.B) {
			var res *exp.Result
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res = exp.Fairness(exp.Run{Kind: exp.CEE, Horizon: 30 * units.Millisecond}, cc)
			}
			b.ReportMetric(res.Scalars["jain_index"], "jain")
			b.ReportMetric(res.Scalars["sum_steady_gbps"], "sum-Gbps")
		})
	}
}

// Ablations of the design choices DESIGN.md calls out.
func BenchmarkAblationDetectors(b *testing.B) {
	var res *exp.Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res = exp.AblationDetectors(benchRun(exp.IB, 12*units.Millisecond))
	}
	b.ReportMetric(res.Scalars["baseline_victim_ce_frac"], "fecn-frac")
	b.ReportMetric(res.Scalars["np-ecn_victim_ce_frac"], "npecn-frac")
	b.ReportMetric(res.Scalars["tcd_victim_ce_frac"], "tcd-frac")
	b.ReportMetric(res.Scalars["tcd-adaptive_victim_ce_frac"], "adaptive-frac")
}

func BenchmarkAblationNotificationRules(b *testing.B) {
	var res *exp.Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res = exp.AblationNotification(benchRun(exp.CEE, 12*units.Millisecond))
	}
	b.ReportMetric(res.Scalars["detector-only_mean_fct_us"], "detector-only-us")
	b.ReportMetric(res.Scalars["full-tcd-rules_mean_fct_us"], "full-rules-us")
}

func BenchmarkAblationTrendSlack(b *testing.B) {
	var res *exp.Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res = exp.AblationTrendSlack(benchRun(exp.IB, 12*units.Millisecond))
	}
	b.ReportMetric(res.Scalars["slack=1B victim_ce_flows"], "falseCE-slack1B")
	b.ReportMetric(res.Scalars["slack=4KB victim_ce_flows"], "falseCE-slack4KB")
}

// §4.5 multi-priority validation.
func BenchmarkMultiPriority(b *testing.B) {
	var res *exp.Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res = exp.MultiPrio(exp.Run{Seed: benchSeed})
	}
	b.ReportMetric(res.Scalars["victim_ce"], "victim-CE")
	b.ReportMetric(res.Scalars["victim_ue"], "victim-UE")
}
