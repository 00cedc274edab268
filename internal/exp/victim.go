package exp

import (
	"fmt"

	"github.com/tcdnet/tcd/internal/host"
	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/rng"
	"github.com/tcdnet/tcd/internal/stats"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
	"github.com/tcdnet/tcd/internal/workload"
)

// VictimConfig parameterizes the §5.1.3 victim-flow scenario: the
// Figure-2 topology with 20 Gbps edge links, Hadoop (or MPI/IO) traffic
// from S0 (victims, to R0) and S1 (to R1), and synchronized bursts from
// A0..A14 into R1. Every S0 flow is a potential victim: its path crosses
// only ports that can be paused by spreading, never the congestion root.
type VictimConfig struct {
	// Run is the header; flows are generated over the first 2/3 of its
	// horizon.
	Run
	Det DetectorKind
	// CC is the congestion control for S0/S1 flows.
	CC CCKind
	// BurstSize fixes the per-host burst size; zero samples the workload
	// CDF per burst (heavy-tailed bursts, as §5.1.3 describes).
	BurstSize units.ByteSize
	// BurstMeanGap is the exponential mean between synchronized rounds.
	BurstMeanGap units.Time
	// S0Load and S1Load are offered loads as fractions of the 20 Gbps
	// edge links.
	S0Load, S1Load float64
	// Par overrides detector parameters (ablations).
	Par DetectorParams
	// CustomCC, if set, builds the per-flow controller instead of CC
	// (ablations of the rate-adjustment rules).
	CustomCC func(r *Rig, line units.Rate) host.RateController
}

// DefaultVictimConfig returns the victim scenario at experiment scale.
func DefaultVictimConfig(kind FabricKind, det DetectorKind, cc CCKind) VictimConfig {
	cfg := VictimConfig{
		Run:    Run{Kind: kind, Horizon: 30 * units.Millisecond},
		Det:    det,
		CC:     cc,
		S0Load: 0.5,
		S1Load: 0.5,
	}
	// One synchronized round carries ~2.8 MB (15 hosts, heavy-tailed
	// sizes). The gap sets how much of the time the root port is
	// congested: CEE's ECN needs deep queues (Kmax 200 KB) to mismark, so
	// its scenario runs hotter; IB's FECN mismarks at 50 KB, so a cooler
	// cadence already reproduces the paper's regime.
	if kind == CEE {
		cfg.BurstMeanGap = 450 * units.Microsecond
	} else {
		cfg.BurstMeanGap = 4 * units.Millisecond
	}
	return cfg
}

// victimConfig is DefaultVictimConfig on h.Kind under the run header h.
func victimConfig(h Run, det DetectorKind, cc CCKind) VictimConfig {
	cfg := DefaultVictimConfig(h.Kind, det, cc)
	cfg.Run = h.over(cfg.Run)
	return cfg
}

// VictimOutcome summarizes one victim run.
type VictimOutcome struct {
	// Victims is the number of S0 flows that received at least one
	// packet; MarkedCE of them saw a CE mark, MarkedUE a UE mark.
	Victims, MarkedCE, MarkedUE int
	// MeanFCTus is the mean victim FCT in microseconds; flows still
	// incomplete at the horizon contribute their censored elapsed time.
	MeanFCTus float64
	// Censored counts victims that had not finished by the horizon.
	Censored int
	// UEFlowFrac is the fraction of victim flows marked UE.
	UEFlowFrac float64
	// CEFlowFrac is the fraction of victim flows marked CE — the Table 3
	// "victim flows marked with CE" metric.
	CEFlowFrac float64
	// Breakdown groups victim FCT (us) by flow size.
	Breakdown *stats.Breakdown
}

// Victim runs the scenario.
func Victim(cfg VictimConfig) *VictimOutcome {
	rig := NewFig2Rig(topo.Fig2Config{EdgeRate: 20 * units.Gbps}, RigConfig{
		Run:     cfg.Run,
		Det:     cfg.Det,
		Par:     cfg.Par,
		HostCfg: host.Config{AckEveryPacket: cfg.CC.NeedsAcks()},
	})
	r := rng.New(cfg.Seed + 77)

	edge := 20 * units.Gbps
	genWindow := cfg.Horizon * 2 / 3

	sizes := workload.Hadoop()
	if cfg.Kind == IB {
		sizes = workload.MPISizes() // MPI sizes; bursts carry the I/O-like volume
	}

	// S0 -> R0 (victims) and S1 -> R1, Poisson arrivals at the configured
	// edge loads.
	newCtrl := func() host.RateController {
		if cfg.CustomCC != nil {
			return cfg.CustomCC(rig.Rig, edge)
		}
		return rig.NewCC(cfg.CC, edge)
	}
	// IB endpoints and bursters send the paper's "MPI and I/O messages in
	// typical sizes": mostly small MPI messages with a 10% I/O tail. The mean
	// accounts for the heavy I/O tail so the offered load stays at the
	// configured fraction.
	sampleSize := func() units.ByteSize {
		if cfg.Kind == IB && r.Bool(0.1) {
			return workload.IOSizes(r)
		}
		return sizes.Sample(r)
	}
	meanBits := float64(sizes.Mean().Bits())
	if cfg.Kind == IB {
		ioMean := float64((512*units.KB + units.MB + 2*units.MB + 4*units.MB).Bits()) / 4
		meanBits = 0.9*meanBits + 0.1*ioMean
	}
	addPoisson := func(src, dst packet.NodeID, load float64) (flows []*host.Flow) {
		lambda := load * float64(edge) / meanBits // flows per second
		t := units.FromSeconds(r.Exp(1 / lambda))
		for t < genWindow {
			flows = append(flows, rig.Mgr.AddFlow(src, dst, sampleSize(), t, newCtrl()))
			t += units.FromSeconds(r.Exp(1 / lambda))
		}
		return flows
	}
	victims := addPoisson(rig.F2.S0, rig.F2.R0, cfg.S0Load)
	addPoisson(rig.F2.S1, rig.F2.R1, cfg.S1Load)

	// Synchronized burst rounds from A0..A14 into R1.
	t := units.Time(0)
	line := 40 * units.Gbps
	for t < genWindow {
		for _, a := range rig.F2.A {
			size := cfg.BurstSize
			if size == 0 {
				size = sampleSize()
			}
			rig.Mgr.AddFlow(a, rig.F2.R1, size, t, rig.fixedRate(line))
		}
		t += units.FromSeconds(r.Exp(cfg.BurstMeanGap.Seconds()))
	}

	rig.Run(cfg.Horizon)

	out := &VictimOutcome{Breakdown: stats.NewBreakdown(10*units.KB, 100*units.KB, units.MB)}
	var fcts []float64
	for _, f := range victims {
		if f.PktsRxed() == 0 {
			continue
		}
		out.Victims++
		if f.CEPackets() > 0 {
			out.MarkedCE++
		}
		if f.UEPackets() > 0 {
			out.MarkedUE++
		}
		// Unfinished victims are right-censored at the horizon: dropping
		// them would credit the scheme that starved them (a falsely
		// throttled flow that never completes must not improve the mean).
		fct := f.FCT
		if !f.Done {
			fct = cfg.Horizon - f.Start
			out.Censored++
		}
		us := fct.Micros()
		fcts = append(fcts, us)
		out.Breakdown.Add(f.Size, us)
	}
	if out.Victims > 0 {
		out.CEFlowFrac = float64(out.MarkedCE) / float64(out.Victims)
		out.UEFlowFrac = float64(out.MarkedUE) / float64(out.Victims)
	}
	out.MeanFCTus = stats.Mean(fcts)
	return out
}

// Table3Row is one line of the paper's Table 3.
type Table3Row struct {
	Scheme   string
	Fraction float64
}

// Table3 reproduces the victim-flow table: the fraction of victim flows
// mistakenly marked CE under each detection scheme.
func Table3(horizon units.Time, seed uint64) (*Result, []Table3Row) {
	h := Run{Seed: seed, Horizon: horizon}
	res := NewResult("table3-victim-flows")
	rows := []struct {
		label string
		kind  FabricKind
		det   DetectorKind
		cc    CCKind
	}{
		{"ECN (CEE)", CEE, DetBaseline, CCDCQCN},
		{"TCD (CEE)", CEE, DetTCD, CCDCQCN},
		{"FECN (IB)", IB, DetBaseline, CCIBCC},
		{"TCD (IB)", IB, DetTCD, CCIBCC},
	}
	var out []Table3Row
	for _, row := range rows {
		h.Kind = row.kind
		v := Victim(victimConfig(h, row.det, row.cc))
		out = append(out, Table3Row{Scheme: row.label, Fraction: v.CEFlowFrac})
		res.Scalars[row.label] = v.CEFlowFrac
		res.AddNote("%-10s victims=%d markedCE=%d fraction=%.3f",
			row.label, v.Victims, v.MarkedCE, v.CEFlowFrac)
	}
	return res, out
}

// Fig14 sweeps the TCD congestion-degree parameter ε and counts
// mistakenly CE-marked victim packets. ε parameterizes the CEE bound
// (Eqn 3); a too-large ε makes max(Ton) smaller than the ON periods of a
// mildly congested tree, so the port is "released" while still ON-OFF
// and OFF-caused queue buildup gets marked as congestion. The scenario
// therefore oversubscribes the root port only mildly (~5%, the paper's
// recommended ε): actual ON periods then have the long tail that small
// bounds misclassify. The paper reports no mistaken marks below ε = 0.1
// and growing mistakes beyond.
func Fig14(h Run) *Result {
	res := NewResult(fmt.Sprintf("fig14-eps-sensitivity-%s", h.Kind))
	h = h.over(Run{Horizon: 20 * units.Millisecond})
	// Two interference intensities give the ON-period distribution a
	// mild tail (~55us, F1 excess ~1.3G) and a sharper mode (~25us, F1
	// excess ~2.8G), as the paper's heterogeneous bursts do.
	aRates := []units.Rate{17 * units.Gbps, 20 * units.Gbps}
	for _, eps := range []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.4} {
		ce := 0
		for _, aRate := range aRates {
			rig := NewFig2Rig(topo.Fig2Config{}, RigConfig{Run: h, Det: DetTCD, Par: DetectorParams{Eps: eps}})
			big := 1000 * units.MB
			// Mild oversubscription of P3 with F1 above its fair share:
			// F1's excess backs up through P2 in long, gentle ON-OFF
			// cycles. Bounds shorter than those cycles (large ε) release
			// the port while it is still ON-OFF; the victims then provide
			// the queue that gets mistaken for congestion.
			rig.Mgr.AddFlow(rig.F2.S1, rig.F2.R1, big, 0, host.FixedRate(25*units.Gbps))
			rig.Mgr.AddFlow(rig.F2.A[0], rig.F2.R1, big, 0, host.FixedRate(aRate))
			// Victims to R0 across the P1/P2 chain.
			f0 := rig.Mgr.AddFlow(rig.F2.S0, rig.F2.R0, big, 100*units.Microsecond, host.FixedRate(7*units.Gbps))
			f2 := rig.Mgr.AddFlow(rig.F2.S2, rig.F2.R0, big, 100*units.Microsecond, host.FixedRate(7*units.Gbps))
			rig.Run(h.Horizon)
			ce += f0.CEPackets() + f2.CEPackets()
		}
		res.Scalars[fmt.Sprintf("eps=%.2f victim CE pkts", eps)] = float64(ce)
	}
	return res
}

// VictimFCT runs the Fig 15(a)/18(a) comparison: victim FCT under a
// stock controller versus its TCD variant.
func VictimFCT(h Run, stock, tcd CCKind) *Result {
	res := NewResult(fmt.Sprintf("victim-fct-%s-vs-%s", stock, tcd))
	sv := Victim(victimConfig(h, DetBaseline, stock))
	tv := Victim(victimConfig(h, DetTCD, tcd))
	res.Scalars["stock_mean_fct_us"] = sv.MeanFCTus
	res.Scalars["tcd_mean_fct_us"] = tv.MeanFCTus
	if tv.MeanFCTus > 0 {
		res.Scalars["speedup"] = sv.MeanFCTus / tv.MeanFCTus
	}
	res.Scalars["stock_victim_ce_frac"] = sv.CEFlowFrac
	res.Scalars["tcd_victim_ce_frac"] = tv.CEFlowFrac
	res.Tables = append(res.Tables,
		sv.Breakdown.Table("stock victim FCT (us)"),
		tv.Breakdown.Table("tcd victim FCT (us)"))
	return res
}

// VictimBurstSweep runs Fig 15(b)/18(b): victim FCT and UE marking as a
// function of burst size.
func VictimBurstSweep(h Run, stock, tcd CCKind, sizes []units.ByteSize) *Result {
	res := NewResult(fmt.Sprintf("victim-burst-sweep-%s", tcd))
	for _, bs := range sizes {
		sCfg := victimConfig(h, DetBaseline, stock)
		sCfg.BurstSize = bs
		tCfg := victimConfig(h, DetTCD, tcd)
		tCfg.BurstSize = bs
		sv := Victim(sCfg)
		tv := Victim(tCfg)
		res.Scalars[fmt.Sprintf("burst=%v stock FCT us", bs)] = sv.MeanFCTus
		res.Scalars[fmt.Sprintf("burst=%v tcd FCT us", bs)] = tv.MeanFCTus
		res.Scalars[fmt.Sprintf("burst=%v UE flow frac", bs)] = tv.UEFlowFrac
	}
	return res
}
