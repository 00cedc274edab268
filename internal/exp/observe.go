package exp

import (
	"fmt"

	"github.com/tcdnet/tcd/internal/core"
	"github.com/tcdnet/tcd/internal/fabric"
	"github.com/tcdnet/tcd/internal/host"
	"github.com/tcdnet/tcd/internal/stats"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

// ObserveConfig parameterizes the §3.1 observation scenarios (Figures 3,
// 4, 12 and 13): the Figure-2 topology with a long-lived flow F1 crossing
// the burst-congested port P3, and constant-rate flows F0/F2 sharing the
// P1/P2 chain.
type ObserveConfig struct {
	Run
	// Det selects the detector: DetBaseline reproduces Fig 3/4,
	// DetTCD reproduces Fig 12/13.
	Det DetectorKind
	// MultiCP selects the multiple-congestion-points variant: F0 and F2
	// send at 25 Gbps (making P2 a second congestion point) instead of
	// 5 Gbps.
	MultiCP bool
	// BurstBytes is the per-A-host per-round burst size (64 KB in §3.1).
	BurstBytes units.ByteSize
	// BurstRounds is the number of synchronized rounds; 16 rounds of
	// 64 KB from 15 hosts keep P3 congested for about 3 ms.
	BurstRounds int
	// BurstGap spaces the rounds (defaults to the round drain time).
	BurstGap units.Time
	// Sample is the trace interval.
	Sample units.Time
	// Arch selects the switch architecture (output-queued by default).
	Arch fabric.Arch
}

// DefaultObserveConfig returns the paper-scale §3.1 parameters.
func DefaultObserveConfig(kind FabricKind, det DetectorKind, multi bool) ObserveConfig {
	return ObserveConfig{
		Run:         Run{Kind: kind, Horizon: 8 * units.Millisecond},
		Det:         det,
		MultiCP:     multi,
		BurstBytes:  64 * units.KB,
		BurstRounds: 16,
		Sample:      10 * units.Microsecond,
	}
}

// Observe runs one observation scenario and collects the queue-length,
// sending-rate and marking series of ports P0..P3 plus per-flow marking
// observations.
func Observe(cfg ObserveConfig) *Result {
	if cfg.BurstGap == 0 {
		// One round drains in senders*size / 40G; back-to-back rounds.
		cfg.BurstGap = units.TxTime(15*cfg.BurstBytes, 40*units.Gbps)
	}
	name := fmt.Sprintf("observe-%s-%s", cfg.Kind, cfg.Det)
	if cfg.MultiCP {
		name += "-multicp"
	} else {
		name += "-singlecp"
	}
	rig := NewFig2Rig(topo.Fig2Config{}, RigConfig{
		Run:               cfg.Run,
		Det:               cfg.Det,
		Arch:              cfg.Arch,
		RecordTransitions: true,
	})
	res := NewResult(name)

	crossRate := 5 * units.Gbps
	if cfg.MultiCP {
		crossRate = 25 * units.Gbps
	}

	f1 := rig.AddF1()

	// Bursts from A0..A14 to R1 at t=200us.
	burstStart := 200 * units.Microsecond
	bursts := rig.LaunchBursts(burstStart, cfg.BurstBytes, cfg.BurstRounds, cfg.BurstGap)

	// F0 and F2: constant-rate cross traffic to R0, starting just after
	// the bursts.
	crossStart := burstStart + 200*units.Microsecond
	f0 := rig.Mgr.AddFlow(rig.F2.S0, rig.F2.R0, 10*1000*units.MB, crossStart, host.FixedRate(crossRate))
	f2 := rig.Mgr.AddFlow(rig.F2.S2, rig.F2.R0, 10*1000*units.MB, crossStart, host.FixedRate(crossRate))

	// Traces.
	tr := stats.NewTracer(rig.Sched, cfg.Sample, cfg.Horizon)
	ports := rig.ObservedPorts()
	for i, p := range ports {
		p := p
		res.Series[PortLabel(i)+"_queue"] = tr.Add(PortLabel(i)+" queue bytes", func() float64 {
			return float64(p.TotalQueueBytes())
		})
		res.Series[PortLabel(i)+"_rate"] = tr.AddRate(PortLabel(i)+" tx Gbps", func() units.ByteSize { return p.TxBytes }, units.Gbps)
		res.Series[PortLabel(i)+"_ce"] = tr.AddDelta(PortLabel(i)+" CE marks", func() uint64 { return p.MarkedCE })
		res.Series[PortLabel(i)+"_ue"] = tr.AddDelta(PortLabel(i)+" UE marks", func() uint64 { return p.MarkedUE })
	}
	tr.Start()

	rig.Run(cfg.Horizon)

	// Flow-level marking observations.
	for label, f := range map[string]*host.Flow{"f0": f0, "f1": f1, "f2": f2} {
		res.Scalars[label+"_pkts"] = float64(f.PktsRxed())
		res.Scalars[label+"_ce"] = float64(f.CEPackets())
		res.Scalars[label+"_ue"] = float64(f.UEPackets())
		res.Scalars[label+"_ce_frac"] = MarkedFraction(f, true)
	}
	var burstEnd units.Time
	done := 0
	for _, b := range bursts {
		if b.Done {
			done++
			if b.Start+b.FCT > burstEnd {
				burstEnd = b.Start + b.FCT
			}
		}
	}
	res.Scalars["bursts_done"] = float64(done)
	res.Scalars["burst_end_ms"] = burstEnd.Millis()
	// Marks at P2 split by era: the paper's improper-detection claims
	// concern the burst window, when P2 is a victim (single CP) or a
	// covered root (multi CP). Marks after the window can be legitimate
	// steady-state congestion (F1 recovers and P2 becomes a real
	// bottleneck).
	for _, mk := range []string{"ce", "ue"} {
		s := res.Series["P2_"+mk]
		during, after := 0.0, 0.0
		for i, t := range s.T {
			if t <= burstEnd {
				during += s.V[i]
			} else {
				after += s.V[i]
			}
		}
		res.Scalars["p2_"+mk+"_during_bursts"] = during
		res.Scalars["p2_"+mk+"_after_bursts"] = after
	}
	res.Scalars["p2_max_queue_kb"] = res.Series["P2_queue"].Max() / 1000
	res.Scalars["p3_max_queue_kb"] = res.Series["P3_queue"].Max() / 1000
	res.Scalars["p2_pause_time_us"] = ports[2].PauseTime.Micros()
	// Fault scalars only when something was armed: a fault-free run's
	// result (the golden fig3/fig12 JSON) must stay byte-identical.
	if rig.Inj.Armed > 0 {
		rig.faultScalars(res)
	}

	if cfg.Det == DetTCD {
		d := rig.TCDAt(rig.P2)
		res.Scalars["p2_final_state"] = float64(d.State())
		res.Scalars["p2_time_undetermined_us"] = d.TimeIn(core.Undetermined).Micros()
		res.Scalars["p2_time_congestion_us"] = d.TimeIn(core.Congestion).Micros()
		for _, t := range d.Transitions {
			res.AddNote("P2 %v: %v -> %v", t.At, t.From, t.To)
		}
		d1 := rig.TCDAt(rig.P1)
		res.Scalars["p1_final_state"] = float64(d1.State())
	}
	rig.AttachTelemetry(res)
	return res
}
