package exp

import (
	"fmt"

	"github.com/tcdnet/tcd/internal/host"
	"github.com/tcdnet/tcd/internal/stats"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

// FairnessConfig parameterizes the §5.2.4 fairness study (Fig 20):
// B0..B3 on L0 send long-lived flows to R0 while A-bursts congest P3;
// P2 is first undetermined (rates held, HoL-limited), then — after the
// bursts stop — becomes a genuine congestion point shared by five flows
// (B0..B3 plus F1), whose fair share is 8 Gbps.
type FairnessConfig struct {
	Run
	// CC is the TCD-aware controller under test (CCDCQCNTCD or
	// CCTIMELYTCD in the paper).
	CC     CCKind
	Sample units.Time
}

// DefaultFairnessConfig returns the paper's Fig 20 setup.
func DefaultFairnessConfig(kind FabricKind, cc CCKind) FairnessConfig {
	return FairnessConfig{
		Run:    Run{Kind: kind, Horizon: 60 * units.Millisecond},
		CC:     cc,
		Sample: 50 * units.Microsecond,
	}
}

// Fairness runs the Fig 20 experiment.
func Fairness(cfg FairnessConfig) *Result {
	rig := NewFig2Rig(topo.Fig2Config{WithB: true}, RigConfig{
		Run:               cfg.Run,
		Det:               DetTCD,
		HostCfg:           host.Config{AckEveryPacket: cfg.CC.NeedsAcks()},
		RecordTransitions: true,
	})
	res := NewResult(fmt.Sprintf("fig20-fairness-%s", cfg.CC))

	line := 40 * units.Gbps
	big := 100 * 1000 * units.MB
	// F1: long-lived S1 -> R1.
	rig.Mgr.AddFlow(rig.F2.S1, rig.F2.R1, big, 0, rig.NewCC(cfg.CC, line))
	// Bursts: 64 KB x 15 hosts, back-to-back rounds for ~3 ms.
	burstStart := 200 * units.Microsecond
	bursts := rig.LaunchBursts(burstStart, 64*units.KB, 16, units.TxTime(15*64*units.KB, line))
	// B0..B3: long-lived flows to R0 starting with the bursts.
	var bFlows []*host.Flow
	for _, b := range rig.F2.B {
		bFlows = append(bFlows, rig.Mgr.AddFlow(b, rig.F2.R0, big, burstStart, rig.NewCC(cfg.CC, line)))
	}

	tr := stats.NewTracer(rig.Sched, cfg.Sample, cfg.Horizon)
	// The fairness scalars are window means of these rate samples, which a
	// fold (pairs averaged) preserves on the longest horizons.
	for i, f := range bFlows {
		res.Series[fmt.Sprintf("b%d_gbps", i)] = tr.AddRate(fmt.Sprintf("B%d goodput Gbps", i), f.BytesRxed, units.Gbps)
	}
	tr.Start()
	rig.Run(cfg.Horizon)

	var burstEnd units.Time
	for _, b := range bursts {
		if b.Done && b.Start+b.FCT > burstEnd {
			burstEnd = b.Start + b.FCT
		}
	}
	res.Scalars["burst_end_ms"] = burstEnd.Millis()

	// Post-burst steady state: measure over the final quarter of the run,
	// plus a mid-run window to expose the recovery trend (DCQCN's additive
	// increase approaches the 8 Gbps share over hundreds of ms; TIMELY is
	// there within a few ms).
	lo, hi := cfg.Horizon*3/4, cfg.Horizon
	midLo, midHi := cfg.Horizon/3, cfg.Horizon/2
	var rates []float64
	sum := 0.0
	for i := range bFlows {
		s := res.Series[fmt.Sprintf("b%d_gbps", i)]
		m := s.MeanOver(lo, hi)
		rates = append(rates, m)
		sum += m
		res.Scalars[fmt.Sprintf("b%d_steady_gbps", i)] = m
		res.Scalars[fmt.Sprintf("b%d_mid_gbps", i)] = s.MeanOver(midLo, midHi)
	}
	res.Scalars["sum_steady_gbps"] = sum
	res.Scalars["jain_index"] = JainIndex(rates)
	res.Scalars["p2_ue_marks"] = float64(rig.P2.MarkedUE)
	res.Scalars["p2_ce_marks"] = float64(rig.P2.MarkedCE)
	// UE marks on B flows during the burst era (held, not cut).
	ue := 0
	for _, f := range bFlows {
		ue += f.UEPackets()
	}
	res.Scalars["b_ue_packets"] = float64(ue)
	if rig.Inj.Armed > 0 {
		rig.faultScalars(res)
	}
	return res
}

// JainIndex computes Jain's fairness index: (Σx)² / (n·Σx²); 1 is
// perfectly fair.
func JainIndex(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum, sq float64
	for _, v := range x {
		sum += v
		sq += v * v
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(x)) * sq)
}
