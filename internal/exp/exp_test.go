package exp

import (
	"math"
	"strings"
	"testing"

	"github.com/tcdnet/tcd/internal/core"
	"github.com/tcdnet/tcd/internal/obs"
	"github.com/tcdnet/tcd/internal/rng"
	"github.com/tcdnet/tcd/internal/stats"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
	"github.com/tcdnet/tcd/internal/workload"
)

// The observation scenarios (Figs 3/4/12/13). Shape criteria from the
// paper:
//   - single CP: P2 is a victim; baselines mark improperly during the
//     burst era, TCD marks UE only and lands in non-congestion.
//   - multi CP: P2 is a covered root; TCD transitions undetermined ->
//     congestion while the baseline cannot tell the cases apart.
func TestObserveSingleCPShapes(t *testing.T) {
	for _, kind := range []FabricKind{CEE, IB} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			base := Observe(DefaultObserveConfig(kind, DetBaseline, false))
			tcd := Observe(DefaultObserveConfig(kind, DetTCD, false))

			// The scenario exercised hop-by-hop flow control at P2.
			if base.Scalars["p2_pause_time_us"] == 0 {
				t.Error("P2 never paused: no congestion spreading")
			}
			// The baseline improperly marks CE at the victim port during
			// the burst era (the paper's central observation); TCD never
			// does.
			if base.Scalars["p2_ce_during_bursts"] == 0 {
				t.Error("baseline detector never mismarked at P2 during the bursts")
			}
			if kind == IB && base.Scalars["f0_ce"] == 0 {
				t.Error("baseline FECN did not mismark the victim flow F0")
			}
			if got := tcd.Scalars["p2_ce_during_bursts"]; got != 0 {
				t.Errorf("TCD marked %v CE at P2 during the burst era of a single-CP run", got)
			}
			if tcd.Scalars["f0_ue"] == 0 {
				t.Error("TCD did not mark the victim flow UE")
			}
			// P2's detector ends in non-congestion after a pure victim era.
			if s := core.State(int(tcd.Scalars["p2_final_state"])); s == core.Congestion {
				t.Errorf("P2 final state = %v, want not congestion", s)
			}
			// The undetermined era roughly spans the burst era.
			if tcd.Scalars["p2_time_undetermined_us"] < 100 {
				t.Errorf("P2 undetermined for only %vus", tcd.Scalars["p2_time_undetermined_us"])
			}
		})
	}
}

func TestObserveMultiCPShapes(t *testing.T) {
	for _, kind := range []FabricKind{CEE, IB} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			tcd := Observe(DefaultObserveConfig(kind, DetTCD, true))
			// The covered root emerges: P2 must spend time in the
			// congestion state (transition 5) and mark CE.
			if tcd.Scalars["p2_final_state"] != float64(core.Congestion) &&
				tcd.Scalars["p2_time_congestion_us"] == 0 {
				t.Error("covered root never detected at P2")
			}
			if tcd.Scalars["f0_ce"] == 0 {
				t.Error("contributing flow F0 not CE-marked in multi-CP")
			}
			// P2's queue persists beyond the single-CP level (the paper's
			// defining contrast between Fig 3 and Fig 4).
			single := Observe(DefaultObserveConfig(kind, DetTCD, false))
			if tcd.Scalars["p2_max_queue_kb"] <= single.Scalars["p2_max_queue_kb"] {
				t.Errorf("multi-CP P2 queue (%v KB) not above single-CP (%v KB)",
					tcd.Scalars["p2_max_queue_kb"], single.Scalars["p2_max_queue_kb"])
			}
		})
	}
}

// Table 3: victim flows marked CE. Baselines mismark; TCD is exactly 0.
func TestTable3Shape(t *testing.T) {
	_, rows := Table3(15*units.Millisecond, 1)
	byName := map[string]float64{}
	for _, r := range rows {
		byName[r.Scheme] = r.Fraction
	}
	if byName["ECN (CEE)"] <= 0 {
		t.Error("ECN baseline did not mismark any victim flow")
	}
	if byName["FECN (IB)"] <= 0 {
		t.Error("FECN baseline did not mismark any victim flow")
	}
	if byName["TCD (CEE)"] != 0 {
		t.Errorf("TCD (CEE) mismarked fraction %v, want 0", byName["TCD (CEE)"])
	}
	if byName["TCD (IB)"] != 0 {
		t.Errorf("TCD (IB) mismarked fraction %v, want 0", byName["TCD (IB)"])
	}
}

// Fig 14: no victim packets mismarked for eps <= 0.1; mismarking does not
// decrease as eps grows.
func TestFig14Shape(t *testing.T) {
	_, pts := Fig14(Run{Kind: CEE, Horizon: 15 * units.Millisecond, Seed: 2})
	byEps := map[float64]int{}
	for _, p := range pts {
		byEps[p.Eps] = p.VictimCEPackets
		if p.Eps <= 0.1 && p.VictimCEPackets != 0 {
			t.Errorf("eps=%v mismarked %d victim packets, want 0 (paper: none below 0.1)", p.Eps, p.VictimCEPackets)
		}
	}
	if byEps[0.4] == 0 {
		t.Error("no mismarking even at eps=0.4; sweep scenario inert")
	}
	if byEps[0.4] < byEps[0.2] {
		t.Errorf("mismarking not growing with eps: 0.2->%d 0.4->%d", byEps[0.2], byEps[0.4])
	}
}

// Fig 11: the testbed marking staircase. F0 is fully UE-marked while the
// burst is active, never CE-marked, and unmarked outside the burst; F1 is
// CE-marked during the burst.
func TestTestbedShape(t *testing.T) {
	for _, kind := range []FabricKind{CEE, IB} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			cfg := DefaultTestbedConfig(kind)
			cfg.Horizon = 40 * units.Millisecond
			res := Testbed(cfg)
			if got := res.Scalars["f0_ue_during"]; got < 0.9 {
				t.Errorf("F0 UE fraction during burst = %v, want ~1", got)
			}
			if got := res.Scalars["f0_ue_outside"]; got != 0 {
				t.Errorf("F0 UE fraction outside burst = %v, want 0", got)
			}
			if got := res.Scalars["f0_ce_during"]; got != 0 {
				t.Errorf("F0 CE fraction = %v, want 0 (victim never congested)", got)
			}
			if got := res.Scalars["f1_ce_during"]; got < 0.9 {
				t.Errorf("F1 CE fraction during burst = %v, want ~1", got)
			}
		})
	}
}

// Fig 20: fairness. B0..B3 keep their rate through the undetermined era
// and converge to the 8 Gbps fair share (5 flows on a 40 Gbps port)
// afterward.
func TestFairnessShape(t *testing.T) {
	for _, cc := range []CCKind{CCDCQCNTCD, CCTIMELYTCD} {
		cc := cc
		t.Run(cc.String(), func(t *testing.T) {
			res := Fairness(DefaultFairnessConfig(CEE, cc))
			if got := res.Scalars["jain_index"]; got < 0.95 {
				t.Errorf("Jain index = %v, want >= 0.95", got)
			}
			if got := res.Scalars["sum_steady_gbps"]; got > 41 {
				t.Errorf("steady B rates sum to %v Gbps, above the 40G port", got)
			}
			if cc == CCTIMELYTCD {
				// TIMELY converges within the run: each flow near the
				// 8 Gbps fair share (5 flows on the 40G port).
				for i := 0; i < 4; i++ {
					r := res.Scalars[indexedScalar("b", i, "_steady_gbps")]
					if r < 4 || r > 11 {
						t.Errorf("B%d steady rate %v Gbps outside the fair-share band", i, r)
					}
				}
			} else {
				// DCQCN's additive increase is slow (40 Mbps per 1.5 ms);
				// require equal shares converging upward toward 8 Gbps.
				for i := 0; i < 4; i++ {
					steady := res.Scalars[indexedScalar("b", i, "_steady_gbps")]
					mid := res.Scalars[indexedScalar("b", i, "_mid_gbps")]
					if steady <= mid {
						t.Errorf("B%d not recovering: mid %v -> steady %v Gbps", i, mid, steady)
					}
					if steady > 11 {
						t.Errorf("B%d steady rate %v Gbps above fair share", i, steady)
					}
				}
			}
		})
	}
}

// A fairness run long enough for its tracer to fold (here twice: 30 001
// ticks at 1 us against stats.SeriesCap) still reports goodput the 40G
// port can carry. With rates computed over the tracer's initial interval,
// every sample after a fold doubled — fig20 at 900 ms reported 75.7 Gbps
// of steady goodput.
func TestFairnessRatesSurviveDecimation(t *testing.T) {
	cfg := DefaultFairnessConfig(CEE, CCTIMELYTCD)
	cfg.Horizon, cfg.Sample = 30*units.Millisecond, units.Microsecond
	res := Fairness(cfg)
	s := res.Series["b0_gbps"]
	if n := len(s.T); n > stats.SeriesCap || s.T[n-1]-s.T[n-2] != 4*cfg.Sample {
		t.Fatalf("%d samples ending %v apart: the run did not fold twice", n, s.T[n-1]-s.T[n-2])
	}
	if got := res.Scalars["sum_steady_gbps"]; got > 40 || got < 20 {
		t.Errorf("steady B rates sum to %v Gbps, want most of the 40G port and no more", got)
	}
	// One 1000-byte packet in a 1 us sample already reads 8 Gbps, so
	// single samples are lumpy; none can exceed the host's 40G link.
	if got := s.Max(); got > 40 {
		t.Errorf("B0 goodput peaks at %v Gbps on a 40G link", got)
	}
}

// An observation run long enough to fold once (10 001 ticks against
// stats.SeriesCap) is bounded, still ends on the horizon, and its
// marks-per-sample columns still sum to the port's counters.
func TestObserveFoldKeepsMarkSums(t *testing.T) {
	cfg := DefaultObserveConfig(CEE, DetTCD, true)
	cfg.Horizon = 100 * units.Millisecond
	cfg.Obs.Metrics = obs.NewRegistry()
	res := Observe(cfg)
	for name, s := range res.Series {
		if n := len(s.T); n != 5001 || s.T[n-1] != cfg.Horizon {
			t.Errorf("%s: %d samples ending at %v, want 5001 (one fold) ending at %v", name, n, s.T[n-1], cfg.Horizon)
		}
	}
	marks := 0.0
	for port, label := range map[string]string{"P2": "L0[2]->T2", "P3": "T2[2]->R1"} {
		for _, mk := range []string{"ce", "ue"} {
			sum := 0.0
			for _, v := range res.Series[port+"_"+mk].V {
				sum += v
			}
			if want := cfg.Obs.Metrics.Counter("port_marked_"+mk, "port", label).Value(); sum != float64(want) {
				t.Errorf("%s_%s sums to %v, port_marked_%s{port=%s} reads %d", port, mk, sum, mk, label, want)
			}
			marks += sum
		}
	}
	if marks == 0 {
		t.Error("neither port marked a packet: the sums compare nothing")
	}
}

// No registry scenario reaches stats.SeriesCap at its default horizon or
// at its -full one, so none of them folds and the bytes of those runs do
// not depend on how a fold works. (fig11 -full also widens its bin to
// 20 ms; with the default bin it is 101 samples.)
func TestNoScenarioFolds(t *testing.T) {
	observe := DefaultObserveConfig(CEE, DetTCD, false)
	flap := DefaultVictimFlapConfig(CEE, DetTCD)
	fair := DefaultFairnessConfig(CEE, CCDCQCNTCD)
	testbed := DefaultTestbedConfig(CEE)
	for _, c := range []struct {
		name            string
		horizon, sample units.Time
	}{
		{"fig3", observe.Horizon, observe.Sample},
		{"fig4", observe.Horizon, observe.Sample},
		{"fig12", observe.Horizon, observe.Sample},
		{"fig13", observe.Horizon, observe.Sample},
		{"victim-under-flap", flap.Horizon, flap.Sample},
		{"fig20", fair.Horizon, fair.Sample},
		{"fig11", testbed.Horizon, testbed.Bin},
	} {
		for _, h := range []units.Time{c.horizon, Lookup(c.name).FullHorizon} {
			if n := int(h/c.sample) + 1; n > stats.SeriesCap {
				t.Errorf("%s at %v samples %d times, over stats.SeriesCap (%d)", c.name, h, n, stats.SeriesCap)
			}
		}
	}
}

func indexedScalar(prefix string, i int, suffix string) string {
	return prefix + string(rune('0'+i)) + suffix
}

// Fig 15 (a): TCD eliminates false CE on victims and does not worsen the
// censored mean FCT.
func TestVictimFCTShape(t *testing.T) {
	_, sv, tv := VictimFCT(Run{Kind: CEE, Horizon: 20 * units.Millisecond, Seed: 3}, CCDCQCN, CCDCQCNTCD)
	if sv.CEFlowFrac == 0 {
		t.Error("stock run produced no false marks; scenario too mild")
	}
	if tv.CEFlowFrac != 0 {
		t.Errorf("TCD victim CE fraction = %v, want 0", tv.CEFlowFrac)
	}
	if tv.UEFlowFrac == 0 {
		t.Error("TCD marked no victims UE")
	}
	if tv.MeanFCTus > sv.MeanFCTus*1.1 {
		t.Errorf("TCD victim mean FCT %v worse than stock %v", tv.MeanFCTus, sv.MeanFCTus)
	}
}

// Fig 15 (b)/18 (b): larger bursts victimize more flows (UE fraction
// grows with burst size).
func TestVictimBurstSweepShape(t *testing.T) {
	sizes := []units.ByteSize{32 * units.KB, 128 * units.KB, 512 * units.KB}
	_, pts := VictimBurstSweep(Run{Kind: CEE, Horizon: 15 * units.Millisecond, Seed: 4}, CCDCQCN, CCDCQCNTCD, sizes)
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[2].UEFlowFrac < pts[0].UEFlowFrac {
		t.Errorf("UE fraction fell with burst size: %v -> %v", pts[0].UEFlowFrac, pts[2].UEFlowFrac)
	}
}

// The fat-tree workload runs complete and produce sane slowdowns.
func TestFatTreeRuns(t *testing.T) {
	cfg := DefaultFatTreeConfig(CEE, DetTCD, CCDCQCNTCD, "hadoop")
	cfg.MaxFlows = 300
	cfg.Horizon = 20 * units.Millisecond
	out := FatTree(cfg)
	if out.Generated == 0 {
		t.Fatal("no flows generated")
	}
	if float64(out.Completed) < 0.8*float64(out.Generated) {
		t.Errorf("only %d/%d flows completed", out.Completed, out.Generated)
	}
	if p50 := out.Overall.P(0.5); p50 < 0.9 {
		t.Errorf("median slowdown %v below 1: baseline FCT or clock wrong", p50)
	}
	if v := out.Res.Scalars["buffer_violations"]; v != 0 {
		t.Errorf("losslessness violated %v times", v)
	}
}

func TestFatTreeIBMPIIO(t *testing.T) {
	cfg := DefaultFatTreeConfig(IB, DetTCD, CCIBCCTCD, "mpiio")
	cfg.MaxFlows = 300
	cfg.Horizon = 20 * units.Millisecond
	out := FatTree(cfg)
	if out.Completed == 0 {
		t.Fatal("no messages completed")
	}
	if out.MeanMCTus <= 0 {
		t.Error("mean MCT not measured")
	}
	if v := out.Res.Scalars["buffer_violations"]; v != 0 {
		t.Errorf("CBFC losslessness violated %v times", v)
	}
}

func TestFig8AndSection43(t *testing.T) {
	res := Fig8()
	plane := res.Scalars["plane_eps0.05_us"]
	// max(Ton) at tau=8us, C=40G, B1-B0=2KB: (32000+320000)/(4e9)+8us = 96us.
	if math.Abs(plane-96) > 0.1 {
		t.Errorf("eps=0.05 plane = %vus, want 96us", plane)
	}
	// Hyperbolic growth toward small eps.
	if res.Scalars["Ton(eps=0.01,Rd=20Gbps)us"] <= res.Scalars["Ton(eps=0.50,Rd=20Gbps)us"] {
		t.Error("Ton surface not decreasing in eps")
	}

	tbl := Section43Table()
	want := map[string]float64{
		"maxTon@40Gbps_us":  34.4,
		"maxTon@100Gbps_us": 26.96,
		"maxTon@200Gbps_us": 24.48,
	}
	for k, v := range want {
		if math.Abs(tbl.Scalars[k]-v) > 0.01 {
			t.Errorf("%s = %v, want %v", k, tbl.Scalars[k], v)
		}
	}
}

// Reproducibility: the same seed yields bit-identical results.
func TestExperimentsDeterministic(t *testing.T) {
	cfg := DefaultObserveConfig(CEE, DetTCD, false)
	cfg.Horizon = 2 * units.Millisecond
	a := Observe(cfg)
	b := Observe(cfg)
	if len(a.Scalars) != len(b.Scalars) {
		t.Fatal("scalar sets differ")
	}
	for k, v := range a.Scalars {
		if b.Scalars[k] != v {
			t.Errorf("scalar %s differs across identical runs: %v vs %v", k, v, b.Scalars[k])
		}
	}
}

func TestResultRender(t *testing.T) {
	r := NewResult("x")
	r.Scalars["a"] = 1
	r.AddNote("note %d", 7)
	r.Tables = append(r.Tables, "tbl")
	out := r.Render()
	for _, want := range []string{"== x ==", "a", "note 7", "tbl"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// §4.5: strict-priority preemption must not disturb the low-priority
// detector — the bound max(Ton) still holds, so the victim priority is
// classified undetermined during spreading and never congested.
func TestMultiPrioShape(t *testing.T) {
	res := MultiPrio(DefaultMultiPrioConfig())
	if res.Scalars["low_prio_pause_us"] == 0 {
		t.Error("low priority was never paused: scenario inert")
	}
	if res.Scalars["victim_ue"] == 0 {
		t.Error("victim flow not marked UE across the shared port")
	}
	if res.Scalars["victim_ce"] != 0 {
		t.Errorf("victim flow marked CE %v times under preemption jitter", res.Scalars["victim_ce"])
	}
	if res.Scalars["time_congestion_us"] != 0 {
		t.Errorf("low-priority detector spent %vus in congestion", res.Scalars["time_congestion_us"])
	}
	if res.Scalars["hi_pkts"] == 0 {
		t.Error("high-priority interference never flowed")
	}
}

// Ablation shapes: NP-ECN nearly eliminates mismarking, TCD exactly;
// the trend slack prevents knife-edge false congestion.
func TestAblationShapes(t *testing.T) {
	det := AblationDetectors(Run{Kind: IB, Horizon: 15 * units.Millisecond, Seed: 1})
	if det.Scalars["baseline_victim_ce_frac"] <= det.Scalars["np-ecn_victim_ce_frac"] {
		t.Error("NP-ECN did not improve on the FECN baseline")
	}
	if det.Scalars["tcd_victim_ce_frac"] != 0 || det.Scalars["tcd-adaptive_victim_ce_frac"] != 0 {
		t.Error("TCD variants mismarked victims")
	}
	slack := AblationTrendSlack(Run{Horizon: 15 * units.Millisecond, Seed: 1})
	if slack.Scalars["slack=1B victim_ce_flows"] <= slack.Scalars["slack=4KB victim_ce_flows"] {
		t.Error("trend-slack ablation did not expose the knife-edge")
	}
	if slack.Scalars["slack=4KB victim_ce_flows"] != 0 {
		t.Error("default slack still mismarks")
	}
}

// Trace replay: the same flows, loaded from a serialized trace, produce
// the same results as direct generation.
func TestFatTreeTraceReplay(t *testing.T) {
	cfg := DefaultFatTreeConfig(CEE, DetTCD, CCDCQCNTCD, "hadoop")
	cfg.MaxFlows = 100
	cfg.Horizon = 10 * units.Millisecond
	direct := FatTree(cfg)

	// Serialize the workload the generator would produce, then replay.
	ft := topo.NewFatTree(cfg.K, 40*units.Gbps, 4*units.Microsecond)
	flows := generateWorkload(cfg, ft, rng.New(cfg.Seed+31))
	var sb strings.Builder
	if err := workload.WriteTrace(&sb, flows); err != nil {
		t.Fatal(err)
	}
	replayed, err := workload.ReadTrace(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Trace = replayed
	replay := FatTree(cfg2)

	if direct.Generated != replay.Generated || direct.Completed != replay.Completed {
		t.Errorf("replay diverged: generated %d/%d completed %d/%d",
			direct.Generated, replay.Generated, direct.Completed, replay.Completed)
	}
	// Start times round to 1 ps through the trace; slowdown medians agree
	// closely.
	dp, rp := direct.Overall.P(0.5), replay.Overall.P(0.5)
	if math.Abs(dp-rp)/dp > 0.02 {
		t.Errorf("replay median slowdown %v vs direct %v", rp, dp)
	}
}
