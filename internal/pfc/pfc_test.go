package pfc_test

import (
	"testing"

	"github.com/tcdnet/tcd/internal/fabric"
	"github.com/tcdnet/tcd/internal/host"
	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/pfc"
	"github.com/tcdnet/tcd/internal/routing"
	"github.com/tcdnet/tcd/internal/sim"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

// chain builds h0 - sw0 - sw1 - r plus extra senders on sw1, so that
// congestion at sw1's egress to r spreads back to sw0 and h0.
func chain(extraSenders int, rate units.Rate, delay units.Time) (*sim.Scheduler, *fabric.Network, *host.Manager, *topo.Topology) {
	g := topo.New()
	sw0 := g.AddSwitch("sw0")
	sw1 := g.AddSwitch("sw1")
	h0 := g.AddHost("h0")
	r := g.AddHost("r")
	g.Connect(h0, sw0, rate, delay)
	g.Connect(sw0, sw1, rate, delay)
	g.Connect(r, sw1, rate, delay)
	for i := 0; i < extraSenders; i++ {
		e := g.AddHost("e" + string(rune('0'+i)))
		g.Connect(e, sw1, rate, delay)
	}
	s := sim.New()
	n := fabric.New(s, g, fabric.DefaultConfig())
	routing.BuildShortestPath(g).Attach(n, routing.FirstPath())
	m := host.Install(n, host.Config{})
	return s, n, m, g
}

func TestIncastIsLosslessUnderPFC(t *testing.T) {
	s, n, m, g := chain(4, 40*units.Gbps, units.Microsecond)
	cfg := pfc.Config{Xoff: 50 * units.KB, Xon: 48 * units.KB, Headroom: 30 * units.KB}
	pfc.Install(n, cfg)
	// Five senders blast 200 KB each at line rate into one 40G port.
	var flows []*host.Flow
	flows = append(flows, m.AddFlow(node(g, "h0"), node(g, "r"), 200*units.KB, 0, host.FixedRate(40*units.Gbps)))
	for i := 0; i < 4; i++ {
		flows = append(flows, m.AddFlow(node(g, "e"+string(rune('0'+i))), node(g, "r"), 200*units.KB, 0, host.FixedRate(40*units.Gbps)))
	}
	s.Run()
	for _, f := range flows {
		if !f.Done {
			t.Fatalf("flow %d from %s did not complete", f.ID, g.Name(f.Src))
		}
		if f.BytesRxed() != 200*units.KB {
			t.Errorf("flow %d lost bytes: %v", f.ID, f.BytesRxed())
		}
	}
	for _, mt := range meters(n) {
		if mt.Violations() != 0 {
			t.Errorf("buffer violations: %d (headroom too small or PAUSE broken)", mt.Violations())
		}
	}
	// With 5:1 oversubscription PAUSE must actually have fired.
	var pauses uint64
	for _, mt := range meters(n) {
		pauses += mt.PausesSent
	}
	if pauses == 0 {
		t.Error("no PAUSE frames sent during 5:1 incast")
	}
}

func TestPauseResumeCycleAndSpreading(t *testing.T) {
	s, n, m, g := chain(4, 40*units.Gbps, units.Microsecond)
	cfg := pfc.Config{Xoff: 50 * units.KB, Xon: 48 * units.KB, Headroom: 30 * units.KB}
	pfc.Install(n, cfg)
	m.AddFlow(node(g, "h0"), node(g, "r"), 500*units.KB, 0, host.FixedRate(40*units.Gbps))
	for i := 0; i < 4; i++ {
		m.AddFlow(node(g, "e"+string(rune('0'+i))), node(g, "r"), 500*units.KB, 0, host.FixedRate(40*units.Gbps))
	}
	s.Run()
	// Congestion must spread: sw0's egress to sw1 was paused, and the
	// pause propagated to h0's NIC.
	sw0Egress := n.PortToward(node(g, "sw0"), node(g, "sw1"))
	if sw0Egress.PauseTime == 0 {
		t.Error("congestion did not spread to sw0 (no pause time)")
	}
	h0Port := n.HostPort(node(g, "h0"))
	if h0Port.PauseTime == 0 {
		t.Error("congestion did not spread to the host NIC")
	}
	// Pauses were matched by resumes (traffic ended, queues drained).
	for _, mt := range meters(n) {
		if mt.PausesSent != mt.ResumesSent {
			t.Errorf("pauses %d != resumes %d after drain", mt.PausesSent, mt.ResumesSent)
		}
		if mt.Occupancy(0) != 0 {
			t.Errorf("residual ingress occupancy %v", mt.Occupancy(0))
		}
	}
}

func TestNoPauseWithoutCongestion(t *testing.T) {
	s, n, m, g := chain(0, 40*units.Gbps, units.Microsecond)
	pfc.Install(n, pfc.DefaultConfig())
	f := m.AddFlow(node(g, "h0"), node(g, "r"), units.MB, 0, host.FixedRate(40*units.Gbps))
	s.Run()
	if !f.Done {
		t.Fatal("flow did not complete")
	}
	for _, mt := range meters(n) {
		if mt.PausesSent != 0 {
			t.Error("PAUSE sent on an uncongested path")
		}
	}
	if n.HostPort(node(g, "h0")).PauseTime != 0 {
		t.Error("host paused without congestion")
	}
}

// Occupancy stays under Xoff + response-time headroom: the classic PFC
// headroom bound (in-flight bytes during 2*MTU/C + 2*tp).
func TestOccupancyBoundedByHeadroomMath(t *testing.T) {
	s, n, m, g := chain(4, 40*units.Gbps, units.Microsecond)
	xoff := 50 * units.KB
	cfg := pfc.Config{Xoff: xoff, Xon: xoff - 2*units.KB, Headroom: 100 * units.KB}
	pfc.Install(n, cfg)
	for i := 0; i < 4; i++ {
		m.AddFlow(node(g, "e"+string(rune('0'+i))), node(g, "r"), units.MB, 0, host.FixedRate(40*units.Gbps))
	}
	m.AddFlow(node(g, "h0"), node(g, "r"), units.MB, 0, host.FixedRate(40*units.Gbps))
	s.Run()
	// tau = 2*MTU/C + 2*tp = 2*209.6ns + 2us ≈ 2.42us → ≤ ~12.1KB in
	// flight at 40G, plus one MTU of slop.
	tau := 2*units.TxTime(1048, 40*units.Gbps) + 2*units.Microsecond
	bound := xoff + units.BytesIn(tau, 40*units.Gbps) + 2*1048
	for _, mt := range meters(n) {
		if mt.MaxOccupancy() > bound {
			t.Errorf("max occupancy %v exceeds Xoff+headroom bound %v", mt.MaxOccupancy(), bound)
		}
	}
}

func TestGatePausedAccessor(t *testing.T) {
	g := topo.New()
	a := g.AddHost("a")
	sw := g.AddSwitch("sw")
	g.Connect(a, sw, units.Gbps, 0)
	s := sim.New()
	n := fabric.New(s, g, fabric.DefaultConfig())
	pfc.Install(n, pfc.DefaultConfig())
	gate := n.HostPort(a).Gate().(*pfc.Gate)
	if gate.BlockedSince(0) != units.Forever || !gate.CanSend(0, 1000) {
		t.Error("fresh gate is paused")
	}
	gate.HandleCtrl(5*units.Microsecond, fabric.CtrlFrame{Kind: fabric.CtrlPause, Prio: 0})
	// A repeated PAUSE counts but does not restart the pause.
	gate.HandleCtrl(9*units.Microsecond, fabric.CtrlFrame{Kind: fabric.CtrlPause, Prio: 0})
	if gate.BlockedSince(0) != 5*units.Microsecond || gate.CanSend(0, 1000) {
		t.Errorf("after PAUSE at 5us: BlockedSince = %v, CanSend = %v", gate.BlockedSince(0), gate.CanSend(0, 1000))
	}
	gate.HandleCtrl(12*units.Microsecond, fabric.CtrlFrame{Kind: fabric.CtrlResume, Prio: 0})
	if gate.BlockedSince(0) != units.Forever || !gate.CanSend(0, 1000) {
		t.Error("gate paused after RESUME")
	}
	if gate.Pauses != 2 {
		t.Errorf("Pauses = %d, want 2", gate.Pauses)
	}
}

// meters returns the pfc meters Install put on n, in port order.
func meters(n *fabric.Network) []*pfc.Meter {
	var out []*pfc.Meter
	for _, p := range n.Ports() {
		if m, ok := p.Meter().(*pfc.Meter); ok {
			out = append(out, m)
		}
	}
	return out
}

// node is the ID of the node called name in g.
func node(g *topo.Topology, name string) packet.NodeID {
	id, ok := g.Lookup(name)
	if !ok {
		panic("no node " + name)
	}
	return id
}
