package cbfc_test

import (
	"testing"

	"github.com/tcdnet/tcd/internal/cbfc"
	"github.com/tcdnet/tcd/internal/fabric"
	"github.com/tcdnet/tcd/internal/host"
	"github.com/tcdnet/tcd/internal/routing"
	"github.com/tcdnet/tcd/internal/sim"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

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
	m := host.Install(n, host.DefaultConfig())
	return s, n, m, g
}

func TestUncongestedFlowRunsAtLineRateUnderCBFC(t *testing.T) {
	s, n, m, g := chain(0, 40*units.Gbps, units.Microsecond)
	cbfc.Install(n, cbfc.DefaultConfig())
	f := m.AddFlow(g.ID("h0"), g.ID("r"), units.MB, 0, host.FixedRate(40*units.Gbps))
	s.Run()
	if !f.Done {
		t.Fatal("flow did not complete")
	}
	// Periodic credits must not throttle an uncongested path: FCT within
	// 10% of wire time.
	wire := units.TxTime(units.MB+1000*48, 40*units.Gbps)
	if f.FCT > wire+wire/10 {
		t.Errorf("CBFC throttled an idle path: FCT %v, wire %v", f.FCT, wire)
	}
	for _, mt := range fabric.Meters[*cbfc.Meter](n) {
		if mt.Violations() != 0 {
			t.Errorf("buffer violations: %d", mt.Violations())
		}
	}
}

func TestIncastIsLosslessUnderCBFC(t *testing.T) {
	s, n, m, g := chain(4, 40*units.Gbps, units.Microsecond)
	cfg := cbfc.Config{Buffer: 60 * units.KB, Tc: 20 * units.Microsecond}
	cbfc.Install(n, cfg)
	var flows []*host.Flow
	flows = append(flows, m.AddFlow(g.ID("h0"), g.ID("r"), 200*units.KB, 0, host.FixedRate(40*units.Gbps)))
	for i := 0; i < 4; i++ {
		flows = append(flows, m.AddFlow(g.ID("e"+string(rune('0'+i))), g.ID("r"), 200*units.KB, 0, host.FixedRate(40*units.Gbps)))
	}
	s.Run()
	for _, f := range flows {
		if !f.Done || f.BytesRxed() != 200*units.KB {
			t.Fatalf("flow %d incomplete: done=%v bytes=%v", f.ID, f.Done, f.BytesRxed())
		}
	}
	for _, mt := range fabric.Meters[*cbfc.Meter](n) {
		if mt.Violations() != 0 {
			t.Errorf("CBFC let the buffer overflow %d times (max occ %v)", mt.Violations(), mt.MaxOccupancy())
		}
	}
}

func TestCreditStarvationCausesOnOff(t *testing.T) {
	s, n, m, g := chain(4, 40*units.Gbps, units.Microsecond)
	cfg := cbfc.Config{Buffer: 60 * units.KB, Tc: 20 * units.Microsecond}
	cbfc.Install(n, cfg)
	m.AddFlow(g.ID("h0"), g.ID("r"), 500*units.KB, 0, host.FixedRate(40*units.Gbps))
	for i := 0; i < 4; i++ {
		m.AddFlow(g.ID("e"+string(rune('0'+i))), g.ID("r"), 500*units.KB, 0, host.FixedRate(40*units.Gbps))
	}
	s.Run()
	// The sw0->sw1 egress must have starved for credit (spreading), and
	// so must h0's NIC.
	if n.PortToward(g.ID("sw0"), g.ID("sw1")).PauseTime == 0 {
		t.Error("credit starvation did not spread to sw0")
	}
	if n.HostPort(g.ID("h0")).PauseTime == 0 {
		t.Error("credit starvation did not spread to the host NIC")
	}
	for _, mt := range fabric.Meters[*cbfc.Meter](n) {
		if mt.Occupancy(0) != 0 {
			t.Errorf("residual occupancy %v after drain", mt.Occupancy(0))
		}
	}
}

func TestCreditsNeverGoNegative(t *testing.T) {
	s, n, m, g := chain(2, 40*units.Gbps, units.Microsecond)
	cfg := cbfc.Config{Buffer: 40 * units.KB, Tc: 10 * units.Microsecond}
	cbfc.Install(n, cfg)
	m.AddFlow(g.ID("h0"), g.ID("r"), 300*units.KB, 0, host.FixedRate(40*units.Gbps))
	m.AddFlow(g.ID("e0"), g.ID("r"), 300*units.KB, 0, host.FixedRate(40*units.Gbps))
	m.AddFlow(g.ID("e1"), g.ID("r"), 300*units.KB, 0, host.FixedRate(40*units.Gbps))
	// Sample gates during the run.
	bad := false
	var probe func()
	probe = func() {
		for _, p := range n.Ports() {
			if gate, ok := p.Gate().(*cbfc.Gate); ok {
				if gate.Credits(0) < 0 {
					bad = true
				}
			}
		}
		if s.Pending() > 0 {
			s.After(5*units.Microsecond, probe)
		}
	}
	s.At(0, probe)
	s.RunUntil(10 * units.Millisecond)
	if bad {
		t.Error("gate over-sent beyond its credit limit")
	}
}

func TestFCCLPeriodicityUnderTraffic(t *testing.T) {
	s, n, m, g := chain(0, 40*units.Gbps, units.Microsecond)
	cfg := cbfc.Config{Buffer: 280 * units.KB, Tc: 50 * units.Microsecond}
	cbfc.Install(n, cfg)
	// ~1.05 ms of line-rate traffic: the receiving meter must send one
	// FCCL per Tc while active, then quiesce.
	f := m.AddFlow(g.ID("h0"), g.ID("r"), 5*units.MB, 0, host.FixedRate(40*units.Gbps))
	s.Run() // terminates: idle meters stop their timers
	if !f.Done {
		t.Fatal("flow did not complete")
	}
	rMeter := n.HostPort(g.ID("r")).Meter().(*cbfc.Meter)
	// ≈ 1.05ms / 50us ≈ 21 updates (±2 for edge periods).
	if rMeter.UpdatesSent < 19 || rMeter.UpdatesSent > 24 {
		t.Errorf("receiver FCCL updates = %d over ~1.05ms, want ~21", rMeter.UpdatesSent)
	}
}

func TestIdleMetersQuiesce(t *testing.T) {
	s, n, _, _ := chain(0, 40*units.Gbps, units.Microsecond)
	cbfc.Install(n, cbfc.DefaultConfig())
	// With no traffic at all, the initial per-meter update fires once and
	// the event queue drains — Run terminates.
	s.Run()
	for _, mt := range fabric.Meters[*cbfc.Meter](n) {
		if mt.UpdatesSent != 1 {
			t.Errorf("idle meter sent %d updates, want exactly 1", mt.UpdatesSent)
		}
	}
	if s.Pending() != 0 {
		t.Errorf("events still pending after idle drain: %d", s.Pending())
	}
}

func TestStaggerOffsetsFirstUpdate(t *testing.T) {
	g := topo.New()
	a := g.AddHost("a")
	sw := g.AddSwitch("sw")
	g.Connect(a, sw, units.Gbps, 0)
	s := sim.New()
	n := fabric.New(s, g, fabric.DefaultConfig())
	cfg := cbfc.Config{
		Buffer:  10 * units.KB,
		Tc:      100 * units.Microsecond,
		Stagger: func(i int) units.Time { return units.Time(i) * units.Microsecond },
	}
	cbfc.Install(n, cfg)
	s.RunUntil(99 * units.Microsecond)
	for _, mt := range fabric.Meters[*cbfc.Meter](n) {
		if mt.UpdatesSent != 0 {
			t.Error("update fired before Tc despite stagger")
		}
	}
	s.RunUntil(120 * units.Microsecond)
	for _, mt := range fabric.Meters[*cbfc.Meter](n) {
		if mt.UpdatesSent != 1 {
			t.Errorf("updates = %d after first period, want 1", mt.UpdatesSent)
		}
	}
}

// Multi-VL: credits are tracked per virtual lane; starving one VL leaves
// the other flowing.
func TestPerVLCreditIsolation(t *testing.T) {
	g := topo.New()
	a := g.AddHost("a")
	sw := g.AddSwitch("sw")
	g.Connect(a, sw, 40*units.Gbps, 0)
	s := sim.New()
	fc := fabric.DefaultConfig()
	fc.Priorities = 2
	n := fabric.New(s, g, fc)
	cbfc.Install(n, cbfc.Config{Buffer: 10 * units.KB, Tc: 100 * units.Microsecond})
	gate := n.HostPort(a).Gate().(*cbfc.Gate)
	if gate.Credits(0) != 10000 || gate.Credits(1) != 10000 {
		t.Fatalf("initial credits = %d/%d, want 10000 each", gate.Credits(0), gate.Credits(1))
	}
	gate.OnSend(0, 8*units.KB)
	if gate.CanSend(0, 4*units.KB) {
		t.Error("VL0 should be out of credit for 4KB")
	}
	if !gate.CanSend(1, 4*units.KB) {
		t.Error("VL1 should be unaffected by VL0 spending")
	}
	// A stale (lower) FCCL must not shrink the limit.
	gate.HandleCtrl(0, fabric.CtrlFrame{Kind: fabric.CtrlCredit, Prio: 0, FCCL: 5000})
	if gate.Credits(0) != 2000 {
		t.Errorf("stale FCCL changed credits: %d", gate.Credits(0))
	}
	gate.HandleCtrl(0, fabric.CtrlFrame{Kind: fabric.CtrlCredit, Prio: 0, FCCL: 18000})
	if gate.Credits(0) != 10000 {
		t.Errorf("fresh FCCL not applied: %d", gate.Credits(0))
	}
}
