package fabric_test

import (
	"math"
	"testing"

	"github.com/tcdnet/tcd/internal/cbfc"
	"github.com/tcdnet/tcd/internal/fabric"
	"github.com/tcdnet/tcd/internal/host"
	"github.com/tcdnet/tcd/internal/obs"
	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/pfc"
	"github.com/tcdnet/tcd/internal/sim"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

// law is one hop-by-hop flow control as the wait-detector tests see it:
// how to install it, the event its gates record when they block (KindNone
// if they record nothing), and a control frame that opens a blocked gate.
type law struct {
	name    string
	install func(*fabric.Network)
	blocked obs.Kind
	release fabric.CtrlFrame
}

// stopWait is the law of stopwait_test.go; its gates record no event.
var stopWait = law{
	name:    "stop-and-wait",
	install: installStopWait,
	release: fabric.CtrlFrame{Kind: fabric.CtrlResume},
}

var laws = []law{
	{
		name: "pfc",
		install: func(n *fabric.Network) {
			pfc.Install(n, pfc.Config{Xoff: 20 * units.KB, Xon: 18 * units.KB, Headroom: 20 * units.KB})
		},
		blocked: obs.KindPauseOn,
		release: fabric.CtrlFrame{Kind: fabric.CtrlResume},
	},
	{
		name: "cbfc",
		install: func(n *fabric.Network) {
			cbfc.Install(n, cbfc.Config{Buffer: 20 * units.KB, Tc: 10 * units.Microsecond})
		},
		blocked: obs.KindCreditExhausted,
		release: fabric.CtrlFrame{Kind: fabric.CtrlCredit, FCCL: math.MaxInt64 / 2},
	},
	stopWait,
}

const scanEvery = 100 * units.Microsecond

// deadlockRing is the 3-switch ring with clockwise-only forwarding and one
// line-rate flow from every host to the host two hops on, started at
// starts[i]: each ring link carries two flows, so the buffer dependencies
// close into a loop under any lossless flow control.
type deadlockRing struct {
	sched *sim.Scheduler
	net   *fabric.Network
	ring  *topo.Ring
	trace *obs.Ring
	flows []*host.Flow
}

func newDeadlockRing(l law, starts [3]units.Time) *deadlockRing {
	const rate = 40 * units.Gbps
	r := &deadlockRing{sched: sim.New(), ring: topo.NewRing(3, rate, units.Microsecond), trace: obs.NewRing(0)}
	cfg := fabric.DefaultConfig()
	cfg.Rec = r.trace
	r.net = fabric.New(r.sched, r.ring.Topology, cfg)
	r.net.Route = func(at packet.NodeID, pkt *packet.Packet) *fabric.Port {
		i := r.ring.SwitchOf(at)
		if pkt.Dst == r.ring.Hosts[i] {
			return r.net.PortToward(at, pkt.Dst)
		}
		return r.net.PortToward(at, r.ring.Sw[(i+1)%3])
	}
	l.install(r.net)
	mgr := host.Install(r.net, host.Config{})
	for i := 0; i < 3; i++ {
		r.flows = append(r.flows, mgr.AddFlow(r.ring.Hosts[i], r.ring.Hosts[(i+2)%3], 2*units.MB, starts[i], host.FixedRate(rate)))
	}
	return r
}

// ringPorts returns the three clockwise inter-switch egress ports.
func (r *deadlockRing) ringPorts() []*fabric.Port {
	var out []*fabric.Port
	for i := 0; i < 3; i++ {
		out = append(out, r.net.PortToward(r.ring.Sw[i], r.ring.Sw[(i+1)%3]))
	}
	return out
}

func forEachLaw(t *testing.T, f func(t *testing.T, l law)) {
	for _, l := range laws {
		t.Run(l.name, func(t *testing.T) { f(t, l) })
	}
}

// TestDeadlockTriggerIsEarliestBlocked: whatever order the three flows
// start in, the cycle is the three ring ports and the reported trigger is
// the member whose gate blocked first — read back through TxGate as soon
// as the reporting scan returns and, for laws that record their blocking
// edge, from the trace. Over the six orders the trigger must move:
// attribution follows the traffic, not the port table.
func TestDeadlockTriggerIsEarliestBlocked(t *testing.T) {
	offsets := [3]units.Time{0, 7 * units.Microsecond, 23 * units.Microsecond}
	perms := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	forEachLaw(t, func(t *testing.T, l law) {
		triggers := make(map[string]bool)
		for _, perm := range perms {
			starts := [3]units.Time{offsets[perm[0]], offsets[perm[1]], offsets[perm[2]]}
			r := newDeadlockRing(l, starts)
			det := r.net.AttachWaitDetector(scanEvery, obs.KindDeadlock)
			for at := scanEvery; len(det.Reports) == 0 && at <= units.Millisecond; at += scanEvery {
				r.sched.RunUntil(at)
			}
			if len(det.Reports) != 1 {
				t.Fatalf("starts %v: %d reports, want 1", starts, len(det.Reports))
			}
			rep := det.Reports[0]
			if len(rep.Ports) != 3 {
				t.Fatalf("starts %v: cycle %v, want the three ring ports", starts, rep.Ports)
			}
			earliest, first := units.Forever, ""
			for _, p := range r.ringPorts() {
				if since := p.Gate().BlockedSince(0); since < earliest {
					earliest, first = since, p.Label()
				}
			}
			if rep.Trigger != first || rep.Since != rep.At-earliest {
				t.Errorf("starts %v: trigger %s blocked %v before the scan at %v; the earliest-blocked member is %s since %v",
					starts, rep.Trigger, rep.Since, rep.At, first, earliest)
			}
			if l.blocked != obs.KindNone {
				var edge units.Time
				for _, e := range r.trace.Events() {
					if e.Kind == l.blocked && e.Port == rep.Trigger && e.At <= rep.At {
						edge = e.At
					}
				}
				if edge != rep.At-rep.Since {
					t.Errorf("starts %v: report dates the trigger's block to %v, its last %v event is at %v",
						starts, rep.At-rep.Since, l.blocked, edge)
				}
			}
			triggers[rep.Trigger] = true
		}
		if len(triggers) < 2 {
			t.Errorf("trigger was %v under every start order", triggers)
		}
	})
}

// TestDeadlockReportedOnce: a cycle that persists over 50 scans is one
// report and one event.
func TestDeadlockReportedOnce(t *testing.T) {
	forEachLaw(t, func(t *testing.T, l law) {
		r := newDeadlockRing(l, [3]units.Time{})
		det := r.net.AttachWaitDetector(scanEvery, obs.KindCreditStall)
		r.sched.RunUntil(55 * scanEvery)
		if det.Scans < 50 || len(det.Reports) != 1 {
			t.Fatalf("%d reports over %d scans, want 1 over at least 50", len(det.Reports), det.Scans)
		}
		events := 0
		for _, e := range r.trace.Events() {
			if e.Kind == obs.KindCreditStall {
				events++
				if e.Port != det.Reports[0].Trigger || e.Val != 3 || e.Aux != int64(det.Reports[0].Since) {
					t.Errorf("event %+v does not carry report %+v", e, det.Reports[0])
				}
			}
		}
		if events != 1 {
			t.Errorf("%d events of the requested kind, want 1", events)
		}
		for _, f := range r.flows {
			if f.Done {
				t.Error("a flow completed through a deadlocked ring")
			}
		}
	})
}

// TestDeadlockIgnoresFrozenCycle: freeze the members of a formed cycle and
// open their gates. The ports still sit in the wait graph (a frozen port
// never re-evaluates its blocked flag) and WaitCycles still returns the
// loop, but no gate in it reports a block, so it is not a flow-control
// deadlock and the detector stays silent.
func TestDeadlockIgnoresFrozenCycle(t *testing.T) {
	forEachLaw(t, func(t *testing.T, l law) {
		r := newDeadlockRing(l, [3]units.Time{})
		r.sched.RunUntil(3 * scanEvery)
		if got := len(r.net.WaitCycles()); got != 1 {
			t.Fatalf("%d wait cycles before the freeze, want 1", got)
		}
		for _, p := range r.ringPorts() {
			p.SetFrozen(true)
			p.Gate().HandleCtrl(r.sched.Now(), l.release)
			if since := p.Gate().BlockedSince(0); since != units.Forever {
				t.Fatalf("%s still blocked since %v after the release frame", p.Label(), since)
			}
		}
		det := r.net.AttachWaitDetector(scanEvery, obs.KindDeadlock)
		r.sched.RunUntil(10 * scanEvery)
		if got := len(r.net.WaitCycles()); got != 1 {
			t.Fatalf("%d wait cycles after the freeze, want 1 (the test no longer builds its case)", got)
		}
		if det.Scans == 0 || len(det.Reports) != 0 {
			t.Errorf("%d scans reported %v; a cycle held by frozen ports is not a flow-control deadlock", det.Scans, det.Reports)
		}
	})
}

// TestDeadlockScanStop: Stop removes the one pending scan and nothing
// scans afterwards.
func TestDeadlockScanStop(t *testing.T) {
	r := newDeadlockRing(laws[0], [3]units.Time{})
	det := r.net.AttachWaitDetector(scanEvery, obs.KindDeadlock)
	r.sched.RunUntil(2*scanEvery + scanEvery/2)
	scans, pending := det.Scans, r.sched.Pending()
	if scans != 2 {
		t.Fatalf("%d scans by 2.5 periods, want 2", scans)
	}
	det.Stop()
	if got := r.sched.Pending(); got != pending-1 {
		t.Errorf("Pending %d after Stop, want %d", got, pending-1)
	}
	r.sched.RunUntil(10 * scanEvery)
	if det.Scans != scans {
		t.Errorf("%d scans fired after Stop", det.Scans-scans)
	}
}

// TestDeadlockSkeletonAdmitsNewLaw: the stop-and-wait law gets the shared
// meter accessor and the ingress ledger through the interfaces, with no
// flow-control package involved.
func TestDeadlockSkeletonAdmitsNewLaw(t *testing.T) {
	r := newDeadlockRing(stopWait, [3]units.Time{})
	r.sched.RunUntil(3 * scanEvery)
	meters := fabric.Meters[fabric.RxMeter](r.net)
	if len(meters) != len(r.net.Ports()) || len(fabric.Meters[*swMeter](r.net)) != len(meters) {
		t.Fatalf("Meters found %d of %d installed meters", len(meters), len(r.net.Ports()))
	}
	var held units.ByteSize
	for _, m := range meters {
		held += m.Occupancy(0)
		// One packet per gate in flight means no ingress ever holds two.
		if m.Violations() != 0 || m.MaxOccupancy() > packet.MTU+packet.HeaderBytes {
			t.Errorf("ingress held %v (max) with %d violations under stop-and-wait", m.MaxOccupancy(), m.Violations())
		}
	}
	if queued := r.net.Stranded().Bytes; held != queued || held == 0 {
		t.Errorf("ingress ledgers hold %v, the deadlocked queues %v", held, queued)
	}
}
