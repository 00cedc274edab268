// Failure-mode experiments: what congestion detection sees when the
// backpressure is caused by a fault instead of a traffic hot spot.
//
//   - victim-under-flap: the Figure-2 network with a flapping R0–T2
//     link. Every down window strands R0-bound traffic at T2, PFC/CBFC
//     spread the backpressure to P2 and P1, and the long-lived F1 —
//     whose own path to R1 is idle — queues behind it. Stock ECN reads
//     P2's queue as congestion and marks F1's packets CE; TCD sees the
//     pause-dominated ON/OFF pattern, stays undetermined, and marks UE.
//   - deadlock-unit: a 3-switch ring with deliberately cyclic routing
//     and tiny flow-control buffers. The pause (or credit) waits close
//     into a loop that can never drain; fabric.WaitDetector must find
//     the cycle and attribute the initial trigger within bounded sim
//     time.

package exp

import (
	"fmt"

	"github.com/tcdnet/tcd/internal/cbfc"
	"github.com/tcdnet/tcd/internal/core"
	"github.com/tcdnet/tcd/internal/fabric"
	"github.com/tcdnet/tcd/internal/fault"
	"github.com/tcdnet/tcd/internal/host"
	"github.com/tcdnet/tcd/internal/obs"
	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/pfc"
	"github.com/tcdnet/tcd/internal/stats"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

// faultScalars surfaces what the rig's injector armed and destroyed on a
// faulted run's result, plus the adversarial counters. Of those only
// nonzero totals are emitted, so benign schedules add nothing. Callers
// whose fault-free result is pinned (the golden fig3/fig12 JSON) call it
// only when something was armed.
func (r *Rig) faultScalars(res *Result) {
	res.Scalars["fault_actions_armed"] = float64(r.Inj.Armed)
	res.Scalars["fault_drops"] = float64(r.Net.FaultDrops)
	res.Scalars["fault_dropped_kb"] = float64(r.Net.FaultDropPayload()) / 1000
	spoofed, forged := r.attackTotals()
	if spoofed > 0 {
		res.Scalars["spoofed_ce"] = float64(spoofed)
	}
	if forged > 0 {
		res.Scalars["forged_ctrl"] = float64(forged)
	}
}

// attackTotals sums the forged CE marks and control frames over the ports.
func (r *Rig) attackTotals() (spoofed, forged uint64) {
	for _, p := range r.Net.Ports() {
		spoofed += p.SpoofedCE()
		forged += p.ForgedCtrl()
	}
	return spoofed, forged
}

// newRing3Rig builds the 3-switch ring of deadlock-unit and the route-loop
// attack: 40 Gbps links and flow-control buffers tiny enough that a cyclic
// buffer dependency closes within the first hundred microseconds.
func newRing3Rig(h Run, det DetectorKind) (*Rig, *topo.Ring) {
	ring := topo.NewRing(3, 40*units.Gbps, units.Microsecond)
	return NewRig(RigConfig{
		Run:  h,
		Topo: ring.Topology,
		Det:  det,
		PFC:  pfc.Config{Xoff: 20 * units.KB, Xon: 18 * units.KB, Headroom: 20 * units.KB},
		CBFC: cbfc.Config{Buffer: 20 * units.KB, Tc: 10 * units.Microsecond},
	}), ring
}

// The victim-under-flap run: 10 ms with the R0-T2 link flapping 400 us
// down per millisecond between 0.5 ms and 8 ms, under 10 Gbps R0-bound
// cross traffic, traced every 10 us.
const (
	flapHorizon          = 10 * units.Millisecond
	flapFrom, flapUntil  = 500 * units.Microsecond, 8 * units.Millisecond
	flapPeriod, flapDown = units.Millisecond, 400 * units.Microsecond
	flapCrossRate        = 10 * units.Gbps
	flapSample           = 10 * units.Microsecond
)

// flapFault is victim-under-flap's built-in flap. A -faults schedule is
// appended behind it, so the scenario's Check validates the two together.
var flapFault = fault.Event{
	Kind:     "flap",
	Link:     "R0-T2",
	AtUs:     flapFrom.Micros(),
	PeriodUs: flapPeriod.Micros(),
	DownUs:   flapDown.Micros(),
	UntilUs:  flapUntil.Micros(),
}

// VictimUnderFlap runs the victim-under-flap scenario with one marking
// scheme; cmd/tcdsim pairs a DetBaseline and a DetTCD run to show the
// classification difference. h.Faults, if non-empty, is an extra schedule
// (including the adversarial kinds) armed alongside the built-in flap —
// the -faults flag of cmd/tcdsim. Events merge into one injector so route
// rewrites and camouflage duty accounting stay coherent.
func VictimUnderFlap(h Run, det DetectorKind) *Result {
	h = h.over(Run{Horizon: flapHorizon})
	spec := &fault.Spec{Events: []fault.Event{flapFault}}
	if !h.Faults.Empty() {
		spec.Events = append(spec.Events, h.Faults.Events...)
	}
	h.Faults = spec
	rig := NewFig2Rig(topo.Fig2Config{}, RigConfig{Run: h, Det: det, RecordTransitions: true})
	res := NewResult(fmt.Sprintf("victim-under-flap-%s-%s", h.Kind, det))

	// F1 is the victim: its own bottleneck (T2 -> R1) stays idle the
	// whole run.
	f1 := rig.AddF1()
	// F0/F2: constant-rate R0-bound cross traffic — the flows the flap
	// actually strands.
	f0 := rig.Mgr.AddFlow(rig.F2.S0, rig.F2.R0, 10*1000*units.MB, 100*units.Microsecond, host.FixedRate(flapCrossRate))
	f2 := rig.Mgr.AddFlow(rig.F2.S2, rig.F2.R0, 10*1000*units.MB, 100*units.Microsecond, host.FixedRate(flapCrossRate))

	tr := stats.NewTracer(rig.Sched, flapSample, h.Horizon)
	for i, p := range rig.ObservedPorts() {
		p := p
		res.Series[PortLabel(i)+"_queue"] = tr.Add(PortLabel(i)+" queue bytes", func() float64 {
			return float64(p.TotalQueueBytes())
		})
	}
	res.Series["f1_rate"] = tr.AddRate("F1 goodput Gbps", f1.BytesRxed, units.Gbps)
	tr.Start()

	rig.Run(h.Horizon)

	for label, f := range map[string]*host.Flow{"f0": f0, "f1": f1, "f2": f2} {
		res.Scalars[label+"_pkts"] = float64(f.PktsRxed())
		res.Scalars[label+"_ce"] = float64(f.CEPackets())
		res.Scalars[label+"_ue"] = float64(f.UEPackets())
		res.Scalars[label+"_ce_frac"] = MarkedFraction(f, true)
		res.Scalars[label+"_ue_frac"] = MarkedFraction(f, false)
	}
	res.Scalars["f1_goodput_gbps"] = float64(units.RateOf(f1.BytesRxed(), h.Horizon)) / 1e9
	rig.faultScalars(res)
	res.Scalars["p1_pause_us"] = rig.P1.PauseTime.Micros()
	res.Scalars["p2_pause_us"] = rig.P2.PauseTime.Micros()
	res.Scalars["p2_max_queue_kb"] = res.Series["P2_queue"].Max() / 1000

	if det == DetTCD {
		d := rig.TCDAt(rig.P2)
		res.Scalars["p2_final_state"] = float64(d.State())
		res.Scalars["p2_time_undetermined_us"] = d.TimeIn(core.Undetermined).Micros()
		res.Scalars["p2_time_congestion_us"] = d.TimeIn(core.Congestion).Micros()
	}
	res.AddNote("flap R0-T2: %v down per %v period over [%v, %v]",
		flapDown, flapPeriod, flapFrom, flapUntil)
	return res
}

// DeadlockUnit drives the ring into a provable wait cycle and reports
// what the detector attributed. Scalars: deadlocked (0/1), the detection
// time, the cycle size, and how long the initial trigger had been
// blocked when the scan caught it. h.Kind selects the flow control whose
// wait cycle forms: CEE closes a PFC pause-wait loop, IB a CBFC
// credit-wait loop. The cycle forms within the first hundred
// microseconds; the 5 ms default horizon only bounds detection.
func DeadlockUnit(h Run) *Result {
	h = h.over(Run{Horizon: 5 * units.Millisecond})
	rig, ring := newRing3Rig(h, DetTCD)
	// Deliberately cyclic routing: everything not local is forwarded
	// clockwise, so each inter-switch link carries two flows' transit
	// traffic and the buffer dependencies form a loop.
	rig.Net.Route = func(at packet.NodeID, pkt *packet.Packet) *fabric.Port {
		i := ring.SwitchOf(at)
		if i < 0 {
			panic("deadlock-unit: unroutable node")
		}
		if pkt.Dst == ring.Hosts[i] {
			return rig.Net.PortToward(at, pkt.Dst)
		}
		return rig.Net.PortToward(at, ring.Sw[(i+1)%3])
	}

	// A wait cycle is permanent once formed, so the scan period only
	// bounds detection latency, and 100 us keeps the event overhead
	// negligible next to the dataplane. On IB it must also comfortably
	// exceed Tc, because a healthy port can legitimately sit starved for
	// up to one FCCL period.
	found, scanEvery := obs.KindDeadlock, 100*units.Microsecond
	if h.Kind == IB {
		found, scanEvery = obs.KindCreditStall, 200*units.Microsecond
	}
	det := rig.Net.AttachWaitDetector(scanEvery, found)

	// Each host sends 2 MB to the host two hops clockwise: far more than
	// the ring's total buffering, at line rate.
	var flows []*host.Flow
	for i := 0; i < 3; i++ {
		flows = append(flows, rig.Mgr.AddFlow(ring.Hosts[i], ring.Hosts[(i+2)%3], 2*units.MB, 0, host.FixedRate(40*units.Gbps)))
	}

	rig.Run(h.Horizon)

	res := NewResult(fmt.Sprintf("deadlock-unit-%s", h.Kind))
	done := 0
	for _, f := range flows {
		if f.Done {
			done++
		}
	}
	res.Scalars["flows_done"] = float64(done)
	stranded := rig.Net.Stranded()
	res.Scalars["stranded_kb"] = float64(stranded.Bytes) / 1000
	res.Scalars["stranded_ports"] = float64(len(stranded.Ports))

	res.Scalars["deadlocked"] = 0
	if len(det.Reports) > 0 {
		r0 := det.Reports[0]
		res.Scalars["deadlocked"] = 1
		res.Scalars["detected_at_us"] = r0.At.Micros()
		res.Scalars["cycle_ports"] = float64(len(r0.Ports))
		res.Scalars["trigger_blocked_us"] = r0.Since.Micros()
		res.Scalars["scans"] = float64(det.Scans)
		res.AddNote("cycle %v, initial trigger %s (blocked %v before the scan)", r0.Ports, r0.Trigger, r0.Since)
	}
	return res
}
