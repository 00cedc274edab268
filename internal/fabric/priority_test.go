package fabric

import (
	"testing"

	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/sim"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

// twoPrioRig builds a 2-priority a-sw-b network.
func twoPrioRig(t *testing.T) (*sim.Scheduler, *Network, packet.NodeID, packet.NodeID) {
	t.Helper()
	g := topo.New()
	a := g.AddHost("a")
	sw := g.AddSwitch("sw")
	b := g.AddHost("b")
	g.Connect(a, sw, 40*units.Gbps, units.Microsecond)
	g.Connect(b, sw, 40*units.Gbps, units.Microsecond)
	s := sim.New()
	cfg := DefaultConfig()
	cfg.Priorities = 2
	n := New(s, g, cfg)
	n.Route = func(at packet.NodeID, pkt *packet.Packet) *Port { return n.PortToward(at, pkt.Dst) }
	return s, n, a, b
}

func prioPkt(src, dst packet.NodeID, prio uint8, seq int32) *packet.Packet {
	return &packet.Packet{
		Src: src, Dst: dst, Kind: packet.Data, Size: 1000,
		Priority: prio, Seq: seq, Code: packet.Capable, InPort: -1,
	}
}

// Strict priority: queued high-priority (index 0) packets transmit ahead
// of queued low-priority ones.
func TestStrictPriorityScheduling(t *testing.T) {
	s, n, a, b := twoPrioRig(t)
	var order []uint8
	n.Sink = func(_ packet.NodeID, p *packet.Packet) { order = append(order, p.Priority) }

	sw := n.Topo.ID("sw")
	egress := n.PortToward(sw, b)
	// Fill the egress queue directly while it is idle at t=0; first
	// enqueue starts transmitting immediately, the rest queue up.
	s.At(0, func() {
		for i := 0; i < 3; i++ {
			egress.Enqueue(prioPkt(a, b, 1, int32(i))) // low priority
		}
		for i := 0; i < 3; i++ {
			egress.Enqueue(prioPkt(a, b, 0, int32(i))) // high priority
		}
	})
	s.Run()
	if len(order) != 6 {
		t.Fatalf("delivered %d packets, want 6", len(order))
	}
	// The first packet out was the low-prio head (already serializing);
	// after it, all high-priority packets must precede the low ones.
	want := []uint8{1, 0, 0, 0, 1, 1}
	for i, p := range order {
		if p != want[i] {
			t.Fatalf("delivery order %v, want %v", order, want)
		}
	}
}

// A gate refusing only priority 0 must not block priority 1.
type prioGate struct {
	port    *Port
	blocked [2]bool
}

func (g *prioGate) CanSend(prio uint8, _ units.ByteSize) bool { return !g.blocked[prio] }
func (g *prioGate) OnSend(uint8, units.ByteSize)              {}
func (g *prioGate) BlockedSince(uint8) units.Time             { return units.Forever }
func (g *prioGate) HandleCtrl(_ units.Time, f CtrlFrame) {
	switch f.Kind {
	case CtrlPause:
		g.blocked[f.Prio] = true
	case CtrlResume:
		g.blocked[f.Prio] = false
		g.port.GateChanged()
	}
}

func TestPerPriorityBlocking(t *testing.T) {
	s, n, a, b := twoPrioRig(t)
	var order []uint8
	n.Sink = func(_ packet.NodeID, p *packet.Packet) { order = append(order, p.Priority) }
	sw := n.Topo.ID("sw")
	egress := n.PortToward(sw, b)
	gate := &prioGate{port: egress}
	egress.AttachGate(gate)

	s.At(0, func() {
		gate.HandleCtrl(0, CtrlFrame{Kind: CtrlPause, Prio: 0})
		for i := 0; i < 2; i++ {
			egress.Enqueue(prioPkt(a, b, 0, int32(i)))
			egress.Enqueue(prioPkt(a, b, 1, int32(i)))
		}
	})
	s.At(100*units.Microsecond, func() {
		gate.HandleCtrl(s.Now(), CtrlFrame{Kind: CtrlResume, Prio: 0})
	})
	s.Run()
	// Low priority flows while high is paused; high follows after resume.
	want := []uint8{1, 1, 0, 0}
	if len(order) != 4 {
		t.Fatalf("delivered %d, want 4", len(order))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
	// Blocked bookkeeping was per priority.
	if egress.Blocked(1) {
		t.Error("priority 1 reported blocked")
	}
}

// Per-priority queue accounting stays separate.
func TestPerPriorityQueueBytes(t *testing.T) {
	s, n, a, b := twoPrioRig(t)
	n.Sink = func(packet.NodeID, *packet.Packet) {}
	sw := n.Topo.ID("sw")
	egress := n.PortToward(sw, b)
	gate := &prioGate{port: egress}
	gate.blocked = [2]bool{true, true}
	egress.AttachGate(gate)
	s.At(0, func() {
		egress.Enqueue(prioPkt(a, b, 0, 0))
		egress.Enqueue(prioPkt(a, b, 1, 0))
		egress.Enqueue(prioPkt(a, b, 1, 1))
	})
	s.RunUntil(10 * units.Microsecond)
	if egress.QueueBytes(0) != 1000 || egress.QueueBytes(1) != 2000 {
		t.Errorf("queue bytes = %v/%v, want 1000/2000", egress.QueueBytes(0), egress.QueueBytes(1))
	}
	if egress.TotalQueueBytes() != 3000 {
		t.Errorf("total = %v, want 3000", egress.TotalQueueBytes())
	}
}
