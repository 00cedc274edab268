package host_test

import (
	"testing"

	"github.com/tcdnet/tcd/internal/fabric"
	"github.com/tcdnet/tcd/internal/host"
	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/sim"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

// rig is a one-switch star network with host endpoints installed.
type rig struct {
	sched *sim.Scheduler
	net   *fabric.Network
	mgr   *host.Manager
	g     *topo.Topology
	sw    packet.NodeID
}

func newRig(t *testing.T, cfg host.Config, hosts int, rate units.Rate, delay units.Time) *rig {
	t.Helper()
	g := topo.New()
	sw := g.AddSwitch("sw")
	for i := 0; i < hosts; i++ {
		h := g.AddHost(string(rune('a' + i)))
		g.Connect(h, sw, rate, delay)
	}
	s := sim.New()
	n := fabric.New(s, g, fabric.DefaultConfig())
	n.Route = func(at packet.NodeID, pkt *packet.Packet) *fabric.Port {
		return n.PortToward(at, pkt.Dst)
	}
	m := host.Install(n, cfg)
	return &rig{sched: s, net: n, mgr: m, g: g, sw: sw}
}

func (r *rig) id(name string) packet.NodeID { return r.g.ID(name) }

func TestSingleFlowCompletesAtLineRate(t *testing.T) {
	r := newRig(t, host.Config{}, 2, 40*units.Gbps, units.Microsecond)
	f := r.mgr.AddFlow(r.id("a"), r.id("b"), 100*units.KB, 0, host.FixedRate(40*units.Gbps))
	r.sched.Run()
	if !f.Done {
		t.Fatal("flow did not complete")
	}
	if f.BytesRxed() != 100*units.KB {
		t.Errorf("received %v, want 100KB", f.BytesRxed())
	}
	if f.PktsRxed() != 100 {
		t.Errorf("received %d packets, want 100", f.PktsRxed())
	}
	// Wire time: 100 packets of 1048B at 40G = 100*209.6ns = 20.96us, plus
	// pipeline (one hop store-and-forward + 2 links).
	ideal := host.IdealFCT(100*units.KB, 40*units.Gbps, 2, units.Microsecond)
	if f.FCT < ideal {
		t.Errorf("FCT %v faster than ideal %v", f.FCT, ideal)
	}
	if f.FCT > ideal+ideal/10 {
		t.Errorf("FCT %v much slower than ideal %v on an idle network", f.FCT, ideal)
	}
}

func TestPacedFlowRate(t *testing.T) {
	r := newRig(t, host.Config{}, 2, 40*units.Gbps, units.Microsecond)
	// 1 MB at 10 Gbps should take ~(1M+hdrs)*8/10G = ~838us.
	f := r.mgr.AddFlow(r.id("a"), r.id("b"), units.MB, 0, host.FixedRate(10*units.Gbps))
	r.sched.Run()
	if !f.Done {
		t.Fatal("flow did not complete")
	}
	wire := (units.MB + 1000*packet.HeaderBytes)
	want := units.TxTime(wire, 10*units.Gbps)
	if f.FCT < want || f.FCT > want+want/20 {
		t.Errorf("paced FCT = %v, want ~%v", f.FCT, want)
	}
}

func TestTwoFlowsShareNIC(t *testing.T) {
	r := newRig(t, host.Config{}, 3, 40*units.Gbps, units.Microsecond)
	// Two 20 Gbps flows from one host fit the 40 Gbps NIC exactly.
	f1 := r.mgr.AddFlow(r.id("a"), r.id("b"), 500*units.KB, 0, host.FixedRate(20*units.Gbps))
	f2 := r.mgr.AddFlow(r.id("a"), r.id("c"), 500*units.KB, 0, host.FixedRate(20*units.Gbps))
	r.sched.Run()
	if !f1.Done || !f2.Done {
		t.Fatal("flows did not complete")
	}
	// Both should finish around 500KB*8/20G ≈ 200us; neither starved.
	want := units.TxTime(500*units.KB, 20*units.Gbps)
	for _, f := range []*host.Flow{f1, f2} {
		if f.FCT > want+want/5 {
			t.Errorf("flow %d FCT = %v, want ~%v (fair NIC sharing)", f.ID, f.FCT, want)
		}
	}
}

func TestFlowStartTimeRespected(t *testing.T) {
	r := newRig(t, host.Config{}, 2, 40*units.Gbps, units.Microsecond)
	start := 500 * units.Microsecond
	f := r.mgr.AddFlow(r.id("a"), r.id("b"), 10*units.KB, start, host.FixedRate(40*units.Gbps))
	var doneAt units.Time
	r.mgr.OnDone = func(*host.Flow) { doneAt = r.sched.Now() }
	r.sched.Run()
	if !f.Done {
		t.Fatal("flow did not complete")
	}
	if doneAt < start {
		t.Errorf("flow finished at %v before its start %v", doneAt, start)
	}
	// FCT is measured from Start, not from t=0.
	if f.FCT > 100*units.Microsecond {
		t.Errorf("FCT = %v includes pre-start time", f.FCT)
	}
}

func TestAckEveryPacketProvidesRTT(t *testing.T) {
	r := newRig(t, host.Config{AckEveryPacket: true}, 2, 40*units.Gbps, 4*units.Microsecond)
	rec := &recordCtrl{rate: 40 * units.Gbps}
	f := r.mgr.AddFlow(r.id("a"), r.id("b"), 10*units.KB, 0, rec)
	r.sched.Run()
	if !f.Done {
		t.Fatal("flow did not complete")
	}
	if len(rec.rtts) != 10 {
		t.Fatalf("got %d RTT samples, want 10", len(rec.rtts))
	}
	// RTT at least 2 links out + 2 back = 16us of propagation.
	for _, rtt := range rec.rtts {
		if rtt < 16*units.Microsecond {
			t.Errorf("rtt %v below physical floor", rtt)
		}
		if rtt > 25*units.Microsecond {
			t.Errorf("rtt %v absurdly high on idle network", rtt)
		}
	}
}

// recordCtrl records controller callbacks.
type recordCtrl struct {
	rate     units.Rate
	rtts     []units.Time
	notifies []struct{ ce, ue bool }
	acks     []struct{ ce, ue bool }
}

func (c *recordCtrl) CurrentRate() units.Rate { return c.rate }
func (c *recordCtrl) OnNotify(_ units.Time, ce, ue bool) {
	c.notifies = append(c.notifies, struct{ ce, ue bool }{ce, ue})
}
func (c *recordCtrl) OnAck(_ units.Time, rtt units.Time, ce, ue bool) {
	c.rtts = append(c.rtts, rtt)
	c.acks = append(c.acks, struct{ ce, ue bool }{ce, ue})
}

// markAllCE marks every dequeued packet CE.
type markAllCE struct{}

func (markAllCE) OnDequeue(_ units.Time, pkt *packet.Packet, _ units.ByteSize) {
	pkt.Code = pkt.Code.MarkCE()
}
func (markAllCE) OnOffStart(units.Time) {}
func (markAllCE) OnOffEnd(units.Time)   {}

func TestCNPGenerationAndRateLimit(t *testing.T) {
	r := newRig(t, host.Config{}, 2, 40*units.Gbps, units.Microsecond)
	// Mark all data CE at the switch egress toward b.
	r.net.PortToward(r.sw, r.id("b")).AttachDetector(0, markAllCE{})
	rec := &recordCtrl{rate: 40 * units.Gbps}
	// 1 MB at 40G lasts ~210us => with a 50us CNP window expect ~5 CNPs.
	f := r.mgr.AddFlow(r.id("a"), r.id("b"), units.MB, 0, rec)
	r.sched.Run()
	if !f.Done {
		t.Fatal("flow did not complete")
	}
	if f.CEPackets() != 1000 {
		t.Errorf("CE packets = %d, want 1000 (all marked)", f.CEPackets())
	}
	if len(rec.notifies) < 3 || len(rec.notifies) > 7 {
		t.Errorf("CNP count = %d, want ~5 (50us window over ~210us)", len(rec.notifies))
	}
	for _, n := range rec.notifies {
		if !n.ce || n.ue {
			t.Error("CNP should echo CE only")
		}
	}
}

// markAllUE marks every dequeued packet UE.
type markAllUE struct{}

func (markAllUE) OnDequeue(_ units.Time, pkt *packet.Packet, _ units.ByteSize) {
	pkt.Code = pkt.Code.MarkUE()
}
func (markAllUE) OnOffStart(units.Time) {}
func (markAllUE) OnOffEnd(units.Time)   {}

func TestUECNPsAreSeparate(t *testing.T) {
	r := newRig(t, host.Config{}, 2, 40*units.Gbps, units.Microsecond)
	r.net.PortToward(r.sw, r.id("b")).AttachDetector(0, markAllUE{})
	rec := &recordCtrl{rate: 40 * units.Gbps}
	f := r.mgr.AddFlow(r.id("a"), r.id("b"), 500*units.KB, 0, rec)
	r.sched.Run()
	if f.UEPackets() != 500 {
		t.Errorf("UE packets = %d, want 500", f.UEPackets())
	}
	if len(rec.notifies) == 0 {
		t.Fatal("no UE CNPs generated")
	}
	for _, n := range rec.notifies {
		if n.ce || !n.ue {
			t.Error("CNP should echo UE only")
		}
	}
}

func TestLastPartialPacket(t *testing.T) {
	r := newRig(t, host.Config{}, 2, 40*units.Gbps, units.Microsecond)
	// 2500 B = two full MTUs plus a 500 B tail.
	f := r.mgr.AddFlow(r.id("a"), r.id("b"), 2500, 0, host.FixedRate(40*units.Gbps))
	r.sched.Run()
	if !f.Done || f.BytesRxed() != 2500 || f.PktsRxed() != 3 {
		t.Errorf("partial-packet flow: done=%v bytes=%v pkts=%d", f.Done, f.BytesRxed(), f.PktsRxed())
	}
}

func TestIdealFCT(t *testing.T) {
	// One 1000B packet over 2 hops at 40G with 1us links:
	// 209.6ns + 209.6ns + 2us = 2.4192us.
	got := host.IdealFCT(1000, 40*units.Gbps, 2, units.Microsecond)
	want := 2*units.TxTime(1048, 40*units.Gbps) + 2*units.Microsecond
	if got != want {
		t.Errorf("IdealFCT = %v, want %v", got, want)
	}
	// Baseline is monotone in size.
	if host.IdealFCT(10*units.KB, 40*units.Gbps, 3, units.Microsecond) <=
		host.IdealFCT(1*units.KB, 40*units.Gbps, 3, units.Microsecond) {
		t.Error("IdealFCT not monotone in size")
	}
}

func TestSlowdown(t *testing.T) {
	f := &host.Flow{Done: true, FCT: 10 * units.Microsecond}
	if got := f.Slowdown(2 * units.Microsecond); got != 5 {
		t.Errorf("Slowdown = %v, want 5", got)
	}
	if got := (&host.Flow{}).Slowdown(units.Microsecond); got != 0 {
		t.Errorf("Slowdown of incomplete flow = %v, want 0", got)
	}
}

func TestAddFlowValidation(t *testing.T) {
	r := newRig(t, host.Config{}, 2, units.Gbps, 0)
	for _, fn := range []func(){
		func() { r.mgr.AddFlow(r.sw, r.id("b"), 1, 0, host.FixedRate(1)) },
		func() { r.mgr.AddFlow(r.id("a"), r.sw, 1, 0, host.FixedRate(1)) },
		func() { r.mgr.AddFlow(r.id("a"), r.id("b"), 0, 0, host.FixedRate(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid AddFlow did not panic")
				}
			}()
			fn()
		}()
	}
}

// In ACK mode the receiver echoes the data packet's code point on the
// ACK so delay-based controllers can tell UE from CE (TIMELY+TCD).
func TestAckEchoesUEAndCE(t *testing.T) {
	r := newRig(t, host.Config{AckEveryPacket: true}, 2, 40*units.Gbps, units.Microsecond)
	r.net.PortToward(r.sw, r.id("b")).AttachDetector(0, markAllUE{})
	rec := &recordCtrl{rate: 40 * units.Gbps}
	f := r.mgr.AddFlow(r.id("a"), r.id("b"), 5*units.KB, 0, rec)
	r.sched.Run()
	if !f.Done {
		t.Fatal("flow incomplete")
	}
	if len(rec.acks) != 5 {
		t.Fatalf("acks = %d, want 5", len(rec.acks))
	}
	for _, a := range rec.acks {
		if !a.ue || a.ce {
			t.Error("ACK did not echo UE")
		}
	}
}

// DCQCN-style byte counting: the SentObserver hook sees every wire byte.
type countingCtrl struct {
	host.FixedRate
	bytes units.ByteSize
}

func (c *countingCtrl) OnSent(_ units.Time, wire units.ByteSize) { c.bytes += wire }

func TestSentObserverSeesWireBytes(t *testing.T) {
	r := newRig(t, host.Config{}, 2, 40*units.Gbps, units.Microsecond)
	ctrl := &countingCtrl{FixedRate: host.FixedRate(40 * units.Gbps)}
	r.mgr.AddFlow(r.id("a"), r.id("b"), 10*units.KB, 0, ctrl)
	r.sched.Run()
	// 10 packets of 1048B wire size.
	if ctrl.bytes != 10480 {
		t.Errorf("observed %v wire bytes, want 10480", ctrl.bytes)
	}
}
