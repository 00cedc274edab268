package fabric

import (
	"testing"

	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/sim"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

// listSource is a test Source: packets become ready at fixed times.
type listSource struct {
	at   []units.Time
	pkts []*packet.Packet
}

func (s *listSource) Head(now units.Time) (*packet.Packet, units.Time) {
	if len(s.pkts) == 0 {
		return nil, units.Forever
	}
	if s.at[0] > now {
		return nil, s.at[0]
	}
	return s.pkts[0], s.at[0]
}

func (s *listSource) Advance() {
	s.pkts = s.pkts[1:]
	s.at = s.at[1:]
}

// star builds host A - switch - host B at the given rate/delay and a
// destination-based route.
func star(t *testing.T, rate units.Rate, delay units.Time) (*sim.Scheduler, *Network, packet.NodeID, packet.NodeID) {
	t.Helper()
	g := topo.New()
	a := g.AddHost("a")
	sw := g.AddSwitch("sw")
	b := g.AddHost("b")
	g.Connect(a, sw, rate, delay)
	g.Connect(b, sw, rate, delay)
	s := sim.New()
	n := New(s, g, DefaultConfig())
	n.Route = func(at packet.NodeID, pkt *packet.Packet) *Port {
		return n.PortToward(at, pkt.Dst)
	}
	return s, n, a, b
}

func mkPkt(src, dst packet.NodeID, size units.ByteSize) *packet.Packet {
	return &packet.Packet{Src: src, Dst: dst, Kind: packet.Data, Size: size, Code: packet.Capable, InPort: -1}
}

func TestEndToEndDelivery(t *testing.T) {
	s, n, a, b := star(t, 40*units.Gbps, 4*units.Microsecond)
	var got []*packet.Packet
	var at []units.Time
	n.Sink = func(h packet.NodeID, pkt *packet.Packet) {
		if h != b {
			t.Errorf("packet arrived at wrong host")
		}
		got = append(got, pkt)
		at = append(at, s.Now())
	}
	src := &listSource{
		at:   []units.Time{0, 0, 0},
		pkts: []*packet.Packet{mkPkt(a, b, 1000), mkPkt(a, b, 1000), mkPkt(a, b, 1000)},
	}
	n.HostPort(a).AttachSource(src)
	s.At(0, func() { n.HostPort(a).Kick() })
	s.Run()
	if len(got) != 3 {
		t.Fatalf("delivered %d packets, want 3", len(got))
	}
	// First packet: 200ns tx + 4us prop + 200ns tx + 4us prop = 8.4us.
	want := units.Time(2*200)*units.Nanosecond + 8*units.Microsecond
	if at[0] != want {
		t.Errorf("first delivery at %v, want %v", at[0], want)
	}
	// Back-to-back pipeline: one serialization apart.
	if d := at[1] - at[0]; d != 200*units.Nanosecond {
		t.Errorf("inter-delivery gap %v, want 200ns", d)
	}
}

func TestPacingDelaysRelease(t *testing.T) {
	s, n, a, b := star(t, 40*units.Gbps, units.Microsecond)
	var at []units.Time
	n.Sink = func(_ packet.NodeID, _ *packet.Packet) { at = append(at, s.Now()) }
	src := &listSource{
		at:   []units.Time{0, 10 * units.Microsecond},
		pkts: []*packet.Packet{mkPkt(a, b, 1000), mkPkt(a, b, 1000)},
	}
	n.HostPort(a).AttachSource(src)
	s.At(0, func() { n.HostPort(a).Kick() })
	s.Run()
	if len(at) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(at))
	}
	if d := at[1] - at[0]; d != 10*units.Microsecond {
		t.Errorf("paced gap = %v, want 10us", d)
	}
}

func TestCountersAndQueues(t *testing.T) {
	s, n, a, b := star(t, 40*units.Gbps, units.Microsecond)
	n.Sink = func(_ packet.NodeID, _ *packet.Packet) {}
	src := &listSource{
		at:   []units.Time{0, 0},
		pkts: []*packet.Packet{mkPkt(a, b, 1000), mkPkt(a, b, 500)},
	}
	hp := n.HostPort(a)
	hp.AttachSource(src)
	s.At(0, func() { hp.Kick() })
	s.Run()
	if hp.TxPackets != 2 || hp.TxBytes != 1500 {
		t.Errorf("host port counters: %d pkts %v bytes", hp.TxPackets, hp.TxBytes)
	}
	sw, _ := n.Topo.Lookup("sw")
	swPort := n.PortToward(sw, b)
	if swPort.TxPackets != 2 {
		t.Errorf("switch egress sent %d packets, want 2", swPort.TxPackets)
	}
	if swPort.TotalQueueBytes() != 0 {
		t.Errorf("queue not drained: %v", swPort.TotalQueueBytes())
	}
}

// A rate mismatch (fast ingress, slow egress) must build queue at the
// switch egress and drain in order.
func TestQueueBuildsAtSlowEgress(t *testing.T) {
	g := topo.New()
	a := g.AddHost("a")
	sw := g.AddSwitch("sw")
	b := g.AddHost("b")
	g.Connect(a, sw, 40*units.Gbps, units.Microsecond)
	g.Connect(b, sw, 10*units.Gbps, units.Microsecond)
	s := sim.New()
	n := New(s, g, DefaultConfig())
	n.Route = func(at packet.NodeID, pkt *packet.Packet) *Port { return n.PortToward(at, pkt.Dst) }
	var seqs []int32
	n.Sink = func(_ packet.NodeID, p *packet.Packet) { seqs = append(seqs, p.Seq) }
	const N = 20
	src := &listSource{}
	for i := 0; i < N; i++ {
		p := mkPkt(a, b, 1000)
		p.Seq = int32(i)
		src.pkts = append(src.pkts, p)
		src.at = append(src.at, 0)
	}
	n.HostPort(a).AttachSource(src)
	egress := n.PortToward(sw, b)
	var maxQ units.ByteSize
	s.At(0, func() { n.HostPort(a).Kick() })
	// Sample queue length during the run.
	for i := 1; i < 20; i++ {
		s.At(units.Time(i)*units.Microsecond, func() {
			if q := egress.TotalQueueBytes(); q > maxQ {
				maxQ = q
			}
		})
	}
	s.Run()
	if len(seqs) != N {
		t.Fatalf("delivered %d, want %d", len(seqs), N)
	}
	for i, v := range seqs {
		if v != int32(i) {
			t.Fatalf("out-of-order delivery: %v", seqs)
		}
	}
	if maxQ < 10*1000 {
		t.Errorf("max egress queue %v, want >= 10KB (4x rate mismatch over 20 pkts)", maxQ)
	}
}

func TestRoutingLoopPanics(t *testing.T) {
	g := topo.New()
	a := g.AddHost("a")
	s1 := g.AddSwitch("s1")
	s2 := g.AddSwitch("s2")
	b := g.AddHost("b")
	g.Connect(a, s1, units.Gbps, 0)
	g.Connect(s1, s2, units.Gbps, 0)
	g.Connect(s2, s1, units.Gbps, 0) // parallel link to bounce on
	g.Connect(b, s2, units.Gbps, 0)
	s := sim.New()
	n := New(s, g, DefaultConfig())
	// Deliberately bounce packets between s1 and s2 forever.
	n.Route = func(at packet.NodeID, pkt *packet.Packet) *Port {
		if at == s1 {
			return n.nodes[s1].ports[1]
		}
		return n.nodes[s2].ports[0]
	}
	n.Sink = func(_ packet.NodeID, _ *packet.Packet) {}
	src := &listSource{at: []units.Time{0}, pkts: []*packet.Packet{mkPkt(a, b, 100)}}
	n.HostPort(a).AttachSource(src)
	defer func() {
		if recover() == nil {
			t.Error("routing loop did not panic")
		}
	}()
	s.At(0, func() { n.HostPort(a).Kick() })
	s.Run()
}

func TestPortLookups(t *testing.T) {
	_, n, a, b := star(t, units.Gbps, 0)
	sw, _ := n.Topo.Lookup("sw")
	if n.PortToward(sw, a).Peer() != n.HostPort(a) {
		t.Error("PortToward/HostPort disagree")
	}
	if len(n.nodes[sw].ports) != 2 {
		t.Error("switch port count wrong")
	}
	if n.PortOn(a, 0) != n.HostPort(a) {
		t.Error("PortOn wrong")
	}
	name := n.PortToward(sw, b).Name()
	if name != "sw[1]->b" {
		t.Errorf("Name() = %q", name)
	}
}

// A gate that refuses everything until opened; checks OFF bookkeeping.
type testGate struct {
	open bool
	port *Port
}

func (g *testGate) CanSend(prio uint8, size units.ByteSize) bool { return g.open }
func (g *testGate) OnSend(prio uint8, size units.ByteSize)       {}
func (g *testGate) HandleCtrl(now units.Time, f CtrlFrame)       {}
func (g *testGate) BlockedSince(uint8) units.Time                { return units.Forever }

type recordDetector struct {
	offStarts, offEnds []units.Time
	deq                []units.Time
}

func (d *recordDetector) OnDequeue(now units.Time, pkt *packet.Packet, q units.ByteSize) {
	d.deq = append(d.deq, now)
}
func (d *recordDetector) OnOffStart(now units.Time) { d.offStarts = append(d.offStarts, now) }
func (d *recordDetector) OnOffEnd(now units.Time)   { d.offEnds = append(d.offEnds, now) }

func TestGateBlockingAndOffBookkeeping(t *testing.T) {
	g := topo.New()
	a := g.AddHost("a")
	sw := g.AddSwitch("sw")
	b := g.AddHost("b")
	g.Connect(a, sw, 40*units.Gbps, 0)
	g.Connect(b, sw, 40*units.Gbps, 0)
	s := sim.New()
	n := New(s, g, DefaultConfig())
	n.Route = func(at packet.NodeID, pkt *packet.Packet) *Port { return n.PortToward(at, pkt.Dst) }
	delivered := 0
	n.Sink = func(_ packet.NodeID, _ *packet.Packet) { delivered++ }

	egress := n.PortToward(sw, b)
	gate := &testGate{open: false, port: egress}
	egress.AttachGate(gate)
	det := &recordDetector{}
	egress.AttachDetector(0, det)

	src := &listSource{
		at:   []units.Time{0, 0},
		pkts: []*packet.Packet{mkPkt(a, b, 1000), mkPkt(a, b, 1000)},
	}
	n.HostPort(a).AttachSource(src)
	s.At(0, func() { n.HostPort(a).Kick() })
	openAt := 50 * units.Microsecond
	s.At(openAt, func() {
		gate.open = true
		egress.GateChanged()
	})
	s.Run()
	if delivered != 2 {
		t.Fatalf("delivered %d, want 2", delivered)
	}
	if len(det.offStarts) != 1 || len(det.offEnds) != 1 {
		t.Fatalf("off periods: starts=%v ends=%v, want one each", det.offStarts, det.offEnds)
	}
	if det.offEnds[0] != openAt {
		t.Errorf("off end at %v, want %v", det.offEnds[0], openAt)
	}
	if len(det.deq) != 2 || det.deq[0] != openAt {
		t.Errorf("dequeues at %v, first should be at gate open %v", det.deq, openAt)
	}
	if egress.PauseTime == 0 {
		t.Error("PauseTime not accumulated")
	}
}

func TestCtrlFrameDelayWaitsForSerialization(t *testing.T) {
	// A control frame sent while the port is serializing a 1000B packet
	// must wait for the remaining transmission, then one 64B
	// serialization plus propagation.
	g := topo.New()
	a := g.AddHost("a")
	sw := g.AddSwitch("sw")
	g.Connect(a, sw, 40*units.Gbps, 4*units.Microsecond)
	s := sim.New()
	n := New(s, g, DefaultConfig())
	n.Sink = func(_ packet.NodeID, _ *packet.Packet) {}
	n.Route = func(at packet.NodeID, pkt *packet.Packet) *Port { return n.PortToward(at, pkt.Dst) }

	hostPort := n.HostPort(a)
	var gotAt units.Time
	gate := &ctrlRecordGate{at: &gotAt, sched: s}
	hostPort.AttachGate(gate)

	swPort := n.PortToward(sw, a)
	// Occupy the switch->a port with a packet from t=0 (inject directly).
	s.At(0, func() {
		p := mkPkt(sw, a, 1000)
		p.InPort = -1
		swPort.Enqueue(p)
	})
	// Mid-transmission (t=100ns; tx lasts 200ns) the switch sends a ctrl frame.
	s.At(100*units.Nanosecond, func() { swPort.SendCtrl(CtrlFrame{Kind: CtrlPause}) })
	s.Run()
	// Expect: 100ns remaining tx + 12.8ns (64B at 40G) + 4us prop.
	want := 100*units.Nanosecond + units.TxTime(64, 40*units.Gbps) + 4*units.Microsecond + 100*units.Nanosecond
	if gotAt != want {
		t.Errorf("ctrl frame arrived at %v, want %v", gotAt, want)
	}
}

type ctrlRecordGate struct {
	at    *units.Time
	sched *sim.Scheduler
}

func (g *ctrlRecordGate) CanSend(uint8, units.ByteSize) bool { return true }
func (g *ctrlRecordGate) OnSend(uint8, units.ByteSize)       {}
func (g *ctrlRecordGate) BlockedSince(uint8) units.Time      { return units.Forever }
func (g *ctrlRecordGate) HandleCtrl(now units.Time, f CtrlFrame) {
	*g.at = now
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (units.Time, uint64) {
		s, n, a, b := star(t, 40*units.Gbps, units.Microsecond)
		n.Sink = func(_ packet.NodeID, _ *packet.Packet) {}
		src := &listSource{}
		for i := 0; i < 100; i++ {
			src.pkts = append(src.pkts, mkPkt(a, b, 1000))
			src.at = append(src.at, units.Time(i)*100*units.Nanosecond)
		}
		n.HostPort(a).AttachSource(src)
		s.At(0, func() { n.HostPort(a).Kick() })
		s.Run()
		return s.Now(), s.Processed()
	}
	t1, e1 := run()
	t2, e2 := run()
	if t1 != t2 || e1 != e2 {
		t.Errorf("runs diverged: (%v,%d) vs (%v,%d)", t1, e1, t2, e2)
	}
}

// pumpSource keeps one packet perpetually ready, minting the next from
// the network pool on Advance — together with sink-side recycling this
// forwards forever without fresh allocations.
type pumpSource struct {
	n        *Network
	src, dst packet.NodeID
	head     *packet.Packet
}

func (s *pumpSource) Head(now units.Time) (*packet.Packet, units.Time) { return s.head, now }

func (s *pumpSource) Advance() {
	pkt := s.n.NewPacket()
	pkt.Src, pkt.Dst, pkt.Kind, pkt.Size, pkt.Code, pkt.InPort = s.src, s.dst, packet.Data, 1000, packet.Capable, -1
	s.head = pkt
}

// TestForwardingSteadyStateAllocs pins the per-packet hot path at zero
// allocations once warm: propagation and switch-hop events ride the
// ports' preallocated typed-arg callbacks (no per-packet closures),
// packets recycle through the pool, and the scheduler's heap and slot
// table reuse their capacity. Companion to the sim package's
// TestSchedulerSteadyStateAllocs.
func TestForwardingSteadyStateAllocs(t *testing.T) {
	const budget = 0.0
	s, n, a, b := star(t, 40*units.Gbps, 4*units.Microsecond)
	n.Sink = func(_ packet.NodeID, _ *packet.Packet) {}
	src := &pumpSource{n: n, src: a, dst: b}
	src.Advance()
	n.HostPort(a).AttachSource(src)
	s.At(0, func() { n.HostPort(a).Kick() })
	// Warm up: fill the pool, the heap and the slot table.
	s.RunUntil(200 * units.Microsecond)
	allocs := testing.AllocsPerRun(100, func() {
		s.RunUntil(s.Now() + 10*units.Microsecond)
	})
	if allocs > budget {
		t.Errorf("steady-state forwarding allocates %.2f allocs/op, budget %.1f", allocs, budget)
	}
}
