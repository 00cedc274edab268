package exp

import (
	"fmt"

	"github.com/tcdnet/tcd/internal/cc"
	"github.com/tcdnet/tcd/internal/fabric"
	"github.com/tcdnet/tcd/internal/host"
	"github.com/tcdnet/tcd/internal/units"
)

// AblationDetectors compares the detection mechanisms head to head on
// the victim scenario: the ECN baseline, PCN's NP-ECN, the paper's
// static-threshold TCD, and the §6 adaptive-threshold alternative.
// The metric is Table 3's: victim flows mistakenly marked CE, plus the
// censored mean victim FCT.
func AblationDetectors(h Run) *Result {
	res := NewResult(fmt.Sprintf("ablation-detectors-%s", h.Kind))
	for _, det := range []DetectorKind{DetBaseline, DetNPECN, DetTCD, DetTCDAdaptive} {
		v := Victim(victimConfig(h, det, h.Kind.StockCC()))
		res.Scalars[det.String()+"_victim_ce_frac"] = v.CEFlowFrac
		res.Scalars[det.String()+"_mean_fct_us"] = v.MeanFCTus
		res.AddNote("%-14s victims=%d markedCE=%d ueFrac=%.3f",
			det, v.Victims, v.MarkedCE, v.UEFlowFrac)
	}
	return res
}

// AblationNotification decomposes the paper's DCQCN+TCD rate rules into
// their two ingredients — aggressive CE cuts (alpha 1.2) and UE holds —
// and measures each in isolation on the victim scenario. This is the
// design-choice ablation DESIGN.md calls out for §5.2. The variants
// without aggressive cuts run an alpha ceiling of 1.0, not stock DCQCN's
// 0.5. It runs on CEE whatever h.Kind says.
func AblationNotification(h Run) *Result {
	res := NewResult("ablation-notification-rules")
	h.Kind = CEE
	variants := []struct {
		name      string
		alphaCeil float64
		ueHold    bool
	}{
		{"detector-only", 1.0, false}, // accurate detection, neither rule
		{"ue-hold-only", 1.0, true},
		{"aggressive-only", 1.2, false},
		{"full-tcd-rules", 1.2, true},
	}
	for _, v := range variants {
		v := v
		cfg := victimConfig(h, DetTCD, CCDCQCN)
		cfg.CustomCC = func(r *Rig, line units.Rate) host.RateController {
			d := r.slabs.dcqcn.New()
			d.Init(r.Sched, cc.DCQCNConfig{LineRate: line, AlphaCeil: v.alphaCeil, TCD: v.ueHold})
			return d
		}
		out := Victim(cfg)
		res.Scalars[v.name+"_mean_fct_us"] = out.MeanFCTus
		res.Scalars[v.name+"_censored"] = float64(out.Censored)
	}
	return res
}

// AblationTrendSlack shows why the post-undetermined trend check needs a
// growth tolerance: with a 1-byte slack, a port whose input rate exactly
// matches line rate (two 20 Gbps edges behind one 40 Gbps link) jitters
// into false congestion detections; with the default 4 KB slack it does
// not. It runs on IB whatever h.Kind says.
func AblationTrendSlack(h Run) *Result {
	res := NewResult("ablation-trend-slack")
	h.Kind = IB
	for _, slack := range []units.ByteSize{1, 4 * units.KB} {
		cfg := victimConfig(h, DetTCD, CCIBCC)
		cfg.Par.TrendSlack = slack
		// Pin the knife-edge regime: both 20 Gbps edges near saturation so
		// their sum matches the 40 Gbps fabric link exactly, and a dense
		// burst cadence to keep pausing it.
		cfg.S0Load, cfg.S1Load = 0.85, 0.85
		cfg.BurstMeanGap = units.Millisecond
		v := Victim(cfg)
		res.Scalars[fmt.Sprintf("slack=%v victim_ce_flows", slack)] = float64(v.MarkedCE)
	}
	return res
}

// AblationSwitchArch reruns the IB single-congestion-point observation
// under both switch organizations — the default output-queued model and
// the input-buffered VoQ architecture the paper's InfiniBand simulator
// uses — to show the detection behaviour is architecture-insensitive
// (queue placement moves, ternary classification does not).
func AblationSwitchArch(h Run) *Result {
	res := NewResult("ablation-switch-arch")
	h.Kind = IB
	for _, arch := range []fabric.Arch{fabric.OutputQueued, fabric.InputQueuedVoQ} {
		label := "output-queued"
		if arch == fabric.InputQueuedVoQ {
			label = "voq"
		}
		cfg := DefaultObserveConfig(IB, DetTCD, false)
		cfg.Run = h.over(cfg.Run)
		cfg.Arch = arch
		r := Observe(cfg)
		res.Scalars[label+"_p2_ce_during_bursts"] = r.Scalars["p2_ce_during_bursts"]
		res.Scalars[label+"_f0_ue"] = r.Scalars["f0_ue"]
		res.Scalars[label+"_p2_und_us"] = r.Scalars["p2_time_undetermined_us"]
		res.Scalars[label+"_p2_max_queue_kb"] = r.Scalars["p2_max_queue_kb"]
	}
	return res
}
