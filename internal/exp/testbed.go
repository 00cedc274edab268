package exp

import (
	"fmt"

	"github.com/tcdnet/tcd/internal/cbfc"
	"github.com/tcdnet/tcd/internal/host"
	"github.com/tcdnet/tcd/internal/pfc"
	"github.com/tcdnet/tcd/internal/rng"
	"github.com/tcdnet/tcd/internal/stats"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

// TestbedConfig parameterizes the §5.1.1 DPDK-testbed reproduction
// (Fig 11): the compact topology at 10 Gbps with TCD, software-jittered
// control frames, F0 (S0→R0, 1 Gbps) crossing only the undetermined port
// P0, F1 (S1→R1, 8 Gbps) crossing P0 and the congestion port, and A0
// bursting at line rate into R1.
type TestbedConfig struct {
	// Run is the header; A0 is active over the middle half of its horizon.
	Run
	// Bin is the marking-fraction aggregation window (100 ms in the
	// paper's seconds-long run; scaled runs use smaller bins).
	Bin units.Time
	// Jitter is the maximum extra control-frame delay from software
	// forwarding (uniform in [0, Jitter]).
	Jitter units.Time
}

// DefaultTestbedConfig returns a scaled testbed run: 80 ms total with
// 4 ms bins (the paper ran seconds with 100 ms bins; the marking-fraction
// staircase is invariant to this scaling).
func DefaultTestbedConfig(kind FabricKind) TestbedConfig {
	return TestbedConfig{
		Run:    Run{Kind: kind, Horizon: 80 * units.Millisecond},
		Bin:    4 * units.Millisecond,
		Jitter: 10 * units.Microsecond,
	}
}

// Testbed runs the Fig 11 experiment and reports F0's UE marking
// fraction per bin plus F1's CE fraction while the burst is active.
func Testbed(cfg TestbedConfig) *Result {
	rate := 10 * units.Gbps
	tb := topo.NewTestbed(rate, units.Microsecond)
	jrnd := rng.New(cfg.Seed + 5)
	var jitter func() units.Time
	if cfg.Jitter > 0 {
		jitter = func() units.Time { return units.Time(jrnd.Int63n(int64(cfg.Jitter))) }
	}
	rc := RigConfig{
		Run:        cfg.Run,
		Topo:       tb.Topology,
		Det:        DetTCD,
		CtrlJitter: jitter,
	}
	if cfg.Kind == CEE {
		// Testbed PFC thresholds: Xoff 800 KB, Xon 770 KB; eps relaxed to
		// 0.04 for the software-induced response jitter (§5.1.1).
		rc.PFC = pfc.Config{Xoff: 800 * units.KB, Xon: 770 * units.KB, Headroom: 200 * units.KB}
		rc.Par = DetectorParams{
			Eps:     0.04,
			XoffGap: 30 * units.KB,
			Tau:     core20us(rate, cfg.Jitter),
		}
	} else {
		// Testbed CBFC: 60 us credit period, 800 KB ingress buffers.
		rc.CBFC = cbfc.Config{Buffer: 800 * units.KB, Tc: 60 * units.Microsecond}
	}
	rig := NewRig(rc)
	res := NewResult(fmt.Sprintf("fig11-testbed-%s", cfg.Kind))

	burstOn := cfg.Horizon / 4
	burstOff := cfg.Horizon * 3 / 4
	big := 100 * 1000 * units.MB

	f0 := rig.Mgr.AddFlow(tb.S0, tb.R0, big, 0, host.FixedRate(units.Gbps))
	f1 := rig.Mgr.AddFlow(tb.S1, tb.R1, big, 0, host.FixedRate(8*units.Gbps))
	// A0 bursts at line rate for the middle half of the run.
	burstBytes := units.BytesIn(burstOff-burstOn, rate)
	a0 := rig.Mgr.AddFlow(tb.A0, tb.R1, burstBytes, burstOn, host.FixedRate(rate))

	// Per-bin marking fractions at the destination.
	tr := stats.NewTracer(rig.Sched, cfg.Bin, cfg.Horizon)
	f0ue := binFraction(f0, false)
	f0ce := binFraction(f0, true)
	f1ce := binFraction(f1, true)
	res.Series["f0_ue_frac"] = tr.Add("F0 UE fraction per bin", f0ue)
	res.Series["f0_ce_frac"] = tr.Add("F0 CE fraction per bin", f0ce)
	res.Series["f1_ce_frac"] = tr.Add("F1 CE fraction per bin", f1ce)
	tr.Start()

	rig.Run(cfg.Horizon)

	res.Scalars["burst_on_ms"] = burstOn.Millis()
	res.Scalars["burst_off_ms"] = burstOff.Millis()
	res.Scalars["a0_done"] = b2f(a0.Done)
	// The paper's claims: during the burst F0 is UE-marked (fraction ~1),
	// never CE; outside the burst, nothing is marked; F1 is CE-marked
	// during the burst.
	during := func(s *stats.Series) float64 {
		return s.MeanOver(burstOn+cfg.Bin, burstOff)
	}
	outside := func(s *stats.Series) float64 {
		return s.MeanOver(0, burstOn)
	}
	res.Scalars["f0_ue_during"] = during(res.Series["f0_ue_frac"])
	res.Scalars["f0_ue_outside"] = outside(res.Series["f0_ue_frac"])
	res.Scalars["f0_ce_during"] = during(res.Series["f0_ce_frac"])
	res.Scalars["f1_ce_during"] = during(res.Series["f1_ce_frac"])
	return res
}

// binFraction probes the marked fraction of packets received since the
// previous sample.
func binFraction(f *host.Flow, ce bool) func() float64 {
	lastPkts, lastMarks := 0, 0
	return func() float64 {
		pkts, marks := f.PktsRxed(), f.UEPackets()
		if ce {
			marks = f.CEPackets()
		}
		dp, dm := pkts-lastPkts, marks-lastMarks
		lastPkts, lastMarks = pkts, marks
		if dp == 0 {
			return 0
		}
		return float64(dm) / float64(dp)
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// core20us approximates the testbed's software response time: the wire
// component plus the configured jitter ceiling.
func core20us(rate units.Rate, jitter units.Time) units.Time {
	return 2*units.TxTime(1500, rate) + 2*units.Microsecond + jitter
}
