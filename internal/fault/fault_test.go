package fault

import (
	"math"
	"strings"
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

// line is a 2-host dumbbell: h0 — s0 — h1, with one flow h0 -> h1.
type line struct {
	sched *sim.Scheduler
	net   *fabric.Network
	mgr   *host.Manager
	h0    packet.NodeID
	h1    packet.NodeID
	s0    packet.NodeID
	flow  *host.Flow
}

func newLine(t *testing.T) *line { return newLineRec(t, nil) }

// newLineRec is newLine with the fabric's events recorded to rec.
func newLineRec(t *testing.T, rec obs.Recorder) *line {
	t.Helper()
	g := topo.New()
	l := &line{sched: sim.New()}
	l.s0 = g.AddSwitch("s0")
	l.h0 = g.AddHost("h0")
	l.h1 = g.AddHost("h1")
	g.Connect(l.h0, l.s0, 40*units.Gbps, units.Microsecond)
	g.Connect(l.h1, l.s0, 40*units.Gbps, units.Microsecond)
	cfg := fabric.DefaultConfig()
	cfg.Rec = rec
	l.net = fabric.New(l.sched, g, cfg)
	l.net.Route = func(at packet.NodeID, pkt *packet.Packet) *fabric.Port {
		return l.net.PortToward(at, pkt.Dst)
	}
	l.mgr = host.Install(l.net, host.Config{})
	l.flow = l.mgr.AddFlow(l.h0, l.h1, 200*units.KB, 0, host.FixedRate(40*units.Gbps))
	return l
}

func TestFaultSpecParse(t *testing.T) {
	s, err := ParseSpec([]byte(`{"events":[{"kind":"link-down","at_us":10,"link":"h0-s0"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 1 || s.Events[0].Kind != "link-down" || s.Events[0].AtUs != 10 {
		t.Fatalf("bad decode: %+v", s)
	}
	if _, err := ParseSpec([]byte(`{"events":[{"kind":"flap","typo_field":1}]}`)); err == nil {
		t.Fatal("unknown field must be rejected")
	}
	if !new(Spec).Empty() || !(*Spec)(nil).Empty() {
		t.Fatal("nil/zero specs must report Empty")
	}
}

func TestFaultSpecLoadMissingFile(t *testing.T) {
	if _, err := LoadSpec("/nonexistent/spec.json"); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestFaultSpecValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name   string
		events []Event
		want   string // substring of the error; "" means valid
	}{
		{"valid pair", []Event{
			{Kind: "link-down", Link: "a-b", AtUs: 5},
			{Kind: "link-up", Link: "a-b", AtUs: 50},
		}, ""},
		{"valid adversarial kinds", []Event{
			{Kind: "pause-storm", Port: "a->b", AtUs: 5, PeriodUs: 10, UntilUs: 50},
			{Kind: "camouflage", Port: "a->c", AtUs: 5, PeriodUs: 10, DownUs: 2, UntilUs: 50},
			{Kind: "spoof-mark", Port: "b->a", AtUs: 5, Prob: 0.5},
			{Kind: "route-rewrite", Port: "c->a", AtUs: 5},
		}, ""},
		{"unknown kind", []Event{{Kind: "meteor-strike", AtUs: 1}}, "unknown kind"},
		{"nan time", []Event{{Kind: "link-down", Link: "a-b", AtUs: nan}}, "not a finite number"},
		{"inf until", []Event{{Kind: "spoof-mark", Port: "a->b", AtUs: 1, Prob: 0.5, UntilUs: inf}}, "not a finite number"},
		{"negative time", []Event{{Kind: "link-down", Link: "a-b", AtUs: -3}}, "must not be negative"},
		{"negative prob", []Event{{Kind: "spoof-mark", Port: "a->b", AtUs: 1, Prob: -0.5}}, "must not be negative"},
		{"nan period", []Event{{Kind: "pause-storm", Port: "a->b", AtUs: 1, PeriodUs: nan, UntilUs: 9}}, "not a finite number"},
		{"duplicate", []Event{
			{Kind: "freeze", Port: "a->b", AtUs: 5},
			{Kind: "freeze", Port: "a->b", AtUs: 5},
		}, "duplicates"},
		{"same kind different time ok", []Event{
			{Kind: "freeze", Port: "a->b", AtUs: 5},
			{Kind: "freeze", Port: "a->b", AtUs: 9},
		}, ""},
		{"conflicting toggle", []Event{
			{Kind: "link-down", Link: "a-b", AtUs: 5},
			{Kind: "link-up", Link: "a-b", AtUs: 5},
		}, "conflict"},
		{"conflicting freeze", []Event{
			{Kind: "thaw", Port: "a->b", AtUs: 5},
			{Kind: "freeze", Port: "a->b", AtUs: 5},
		}, "conflict"},
		{"conflicting ctrl", []Event{
			{Kind: "ctrl-loss", Port: "a->b", AtUs: 5, Prob: 0.5},
			{Kind: "ctrl-delay", Port: "a->b", AtUs: 5, DelayUs: 2},
		}, "conflict"},
		{"conflict on different ports ok", []Event{
			{Kind: "link-down", Link: "a-b", AtUs: 5},
			{Kind: "link-up", Link: "a-c", AtUs: 5},
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := (&Spec{Events: tc.events}).Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
	// ParseSpec runs Validate: a syntactically fine but conflicting spec
	// must not parse.
	bad := `{"events":[
		{"kind":"link-down","link":"h0-s0","at_us":5},
		{"kind":"link-up","link":"h0-s0","at_us":5}]}`
	if _, err := ParseSpec([]byte(bad)); err == nil || !strings.Contains(err.Error(), "conflict") {
		t.Errorf("ParseSpec accepted conflicting events: %v", err)
	}
}

func TestFaultInjectValidation(t *testing.T) {
	l := newLine(t)
	cases := []struct {
		name string
		ev   Event
		want string
	}{
		{"unknown kind", Event{Kind: "meteor-strike", AtUs: 1, Link: "h0-s0"}, "unknown kind"},
		{"no target", Event{Kind: "link-down", AtUs: 1}, "needs a link or port"},
		{"both targets", Event{Kind: "link-down", AtUs: 1, Link: "h0-s0", Port: "h0->s0"}, "not both"},
		{"bad link", Event{Kind: "link-down", AtUs: 1, Link: "h0-h9"}, "cannot resolve link"},
		{"unconnected", Event{Kind: "link-down", AtUs: 1, Link: "h0-h1"}, "no link between"},
		{"bad port", Event{Kind: "freeze", AtUs: 1, Port: "h0->h9"}, "cannot resolve port"},
		{"flap no period", Event{Kind: "flap", AtUs: 1, Link: "h0-s0", DownUs: 1, UntilUs: 9}, "period_us > 0"},
		{"flap down too long", Event{Kind: "flap", AtUs: 1, Link: "h0-s0", PeriodUs: 5, DownUs: 5, UntilUs: 9}, "down_us < period_us"},
		{"flap empty window", Event{Kind: "flap", AtUs: 9, Link: "h0-s0", PeriodUs: 5, DownUs: 1, UntilUs: 9}, "until_us past at_us"},
		{"flap explosion", Event{Kind: "flap", AtUs: 0, Link: "h0-s0", PeriodUs: 0.001, DownUs: 0.0005, UntilUs: 1e6}, "toggles"},
		{"ctrl-loss bad prob", Event{Kind: "ctrl-loss", AtUs: 1, Port: "s0->h1", Prob: 1.5}, "prob in (0, 1]"},
		{"ctrl-delay no delay", Event{Kind: "ctrl-delay", AtUs: 1, Port: "s0->h1"}, "delay_us > 0"},
		{"storm on a link", Event{Kind: "pause-storm", AtUs: 1, Link: "h0-s0", PeriodUs: 10, UntilUs: 50}, "not a link"},
		{"storm no target", Event{Kind: "pause-storm", AtUs: 1, PeriodUs: 10, UntilUs: 50}, "needs a port target"},
		{"storm bad prio", Event{Kind: "pause-storm", AtUs: 1, Port: "s0->h1", Prio: 99, PeriodUs: 10, UntilUs: 50}, "out of range"},
		{"storm no period", Event{Kind: "pause-storm", AtUs: 1, Port: "s0->h1", UntilUs: 50}, "period_us > 0"},
		{"storm empty window", Event{Kind: "pause-storm", AtUs: 50, Port: "s0->h1", PeriodUs: 10, UntilUs: 50}, "until_us past at_us"},
		{"storm bad duty", Event{Kind: "pause-storm", AtUs: 1, Port: "s0->h1", PeriodUs: 10, DownUs: 10, UntilUs: 50}, "bursty"},
		{"storm explosion", Event{Kind: "pause-storm", AtUs: 0, Port: "s0->h1", PeriodUs: 0.001, UntilUs: 1e6}, "frames"},
		{"camouflage sustained", Event{Kind: "camouflage", AtUs: 1, Port: "s0->h1", PeriodUs: 10, UntilUs: 50}, "0 < down_us < period_us"},
		{"spoof bad prob", Event{Kind: "spoof-mark", AtUs: 1, Port: "s0->h1", Prob: 2}, "prob in (0, 1]"},
		{"spoof empty window", Event{Kind: "spoof-mark", AtUs: 9, Port: "s0->h1", Prob: 0.5, UntilUs: 9}, "until_us past at_us"},
		{"reroute empty window", Event{Kind: "route-rewrite", AtUs: 9, Port: "s0->h1", UntilUs: 9}, "until_us past at_us"},
		{"reroute on a link", Event{Kind: "route-rewrite", AtUs: 1, Link: "h0-s0"}, "not a link"},
	}
	for _, tc := range cases {
		_, err := Inject(l.net, &Spec{Events: []Event{tc.ev}})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}
}

func TestFaultInjectRejectsPastEvents(t *testing.T) {
	l := newLine(t)
	l.sched.RunUntil(10 * units.Microsecond)
	_, err := Inject(l.net, &Spec{Events: []Event{{Kind: "link-down", Link: "h0-s0", AtUs: 2}}})
	if err == nil || !strings.Contains(err.Error(), "in the past") {
		t.Fatalf("want past-event error, got %v", err)
	}
}

func TestFaultInjectEmpty(t *testing.T) {
	l := newLine(t)
	inj, err := Inject(l.net, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inj.Armed != 0 || inj.FirstInjection() != units.Forever {
		t.Fatalf("empty spec armed %d actions, first %v", inj.Armed, inj.FirstInjection())
	}
}

func TestFaultFlapExpansion(t *testing.T) {
	l := newLine(t)
	inj, err := Inject(l.net, &Spec{Events: []Event{{
		Kind: "flap", Link: "h0-s0", AtUs: 10, PeriodUs: 10, DownUs: 4, UntilUs: 45,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	// Down edges at 10, 20, 30, 40; each paired with an up edge.
	if inj.Armed != 8 {
		t.Fatalf("want 8 toggles, armed %d", inj.Armed)
	}
	if inj.FirstInjection() != 10*units.Microsecond {
		t.Fatalf("first injection %v, want 10us", inj.FirstInjection())
	}
}

func TestFaultLinkDownStallsAndRecovers(t *testing.T) {
	l := newLine(t)
	_, err := Inject(l.net, &Spec{Events: []Event{
		{Kind: "link-down", Link: "s0-h1", AtUs: 5},
		{Kind: "link-up", Link: "s0-h1", AtUs: 100},
	}})
	if err != nil {
		t.Fatal(err)
	}
	l.sched.RunUntil(50 * units.Microsecond)
	if l.flow.Done {
		t.Fatal("flow completed across a dead link")
	}
	rxAtOutage := l.flow.BytesRxed()
	if l.net.FaultDrops == 0 {
		t.Fatal("frames in flight at link-down should have been destroyed")
	}
	l.sched.RunUntil(400 * units.Microsecond)
	if !l.flow.Done {
		t.Fatalf("flow did not recover after link-up: rxed %d of %d", l.flow.BytesRxed(), l.flow.Size)
	}
	if l.flow.BytesRxed() <= rxAtOutage {
		t.Fatal("no progress after recovery")
	}
	// Conservation across the fault: everything sent is delivered or
	// destroyed (nothing queued or in flight after completion).
	sent := l.flow.BytesSent()
	accounted := l.flow.BytesRxed() + l.net.FaultDropPayload() + l.net.InFlightPayload() + l.net.QueuedPayload()
	if sent != accounted {
		t.Fatalf("conservation: sent %d != accounted %d", sent, accounted)
	}
}

func TestFaultFreezeStallsWithoutDrops(t *testing.T) {
	l := newLine(t)
	_, err := Inject(l.net, &Spec{Events: []Event{
		{Kind: "freeze", Port: "s0->h1", AtUs: 5},
		{Kind: "thaw", Port: "s0->h1", AtUs: 100},
	}})
	if err != nil {
		t.Fatal(err)
	}
	l.sched.RunUntil(50 * units.Microsecond)
	if l.flow.Done {
		t.Fatal("flow completed through a frozen egress")
	}
	if l.net.FaultDrops != 0 {
		t.Fatal("freeze must not destroy frames, only stall them")
	}
	l.sched.RunUntil(400 * units.Microsecond)
	if !l.flow.Done {
		t.Fatal("flow did not recover after thaw")
	}
}

func TestFaultStopCancelsPendingActions(t *testing.T) {
	l := newLine(t)
	inj, err := Inject(l.net, &Spec{Events: []Event{
		{Kind: "link-down", Link: "s0-h1", AtUs: 10},
	}})
	if err != nil {
		t.Fatal(err)
	}
	inj.Stop()
	l.sched.RunUntil(400 * units.Microsecond)
	if !l.flow.Done {
		t.Fatal("canceled fault still broke the run")
	}
	if l.net.Faulted() {
		t.Fatal("network marked faulted though every action was canceled")
	}
}

func TestFaultRerouteNeedsRoutingFunc(t *testing.T) {
	g := topo.New()
	s0 := g.AddSwitch("s0")
	h0 := g.AddHost("h0")
	g.Connect(h0, s0, 40*units.Gbps, units.Microsecond)
	net := fabric.New(sim.New(), g, fabric.DefaultConfig())
	_, err := Inject(net, &Spec{Events: []Event{{Kind: "route-rewrite", Port: "s0->h0", AtUs: 1}}})
	if err == nil || !strings.Contains(err.Error(), "routing function") {
		t.Fatalf("want routing-function error, got %v", err)
	}
}

// TestFaultStopMidStorm: Stop racing a bursty pause-storm between a forged
// pause and its forged resume cancels the resume — the last fired pause
// keeps the gate down (no honest meter ever paused it, so none will resume
// it) and the network stays marked faulted, while no further frames are
// forged.
func TestFaultStopMidStorm(t *testing.T) {
	l := newLine(t)
	pfc.Install(l.net, pfc.DefaultConfig())
	inj, err := Inject(l.net, &Spec{Events: []Event{{
		Kind: "pause-storm", Port: "s0->h1", AtUs: 10, PeriodUs: 10, DownUs: 8, UntilUs: 200,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	forged := func() uint64 {
		var n uint64
		for _, p := range l.net.Ports() {
			n += p.ForgedCtrl
		}
		return n
	}
	// Pause fires at 10us, its resume at 18us: stop in between.
	l.sched.RunUntil(15 * units.Microsecond)
	if got := forged(); got != 1 {
		t.Fatalf("mid-storm forged %d frames, want exactly the first pause", got)
	}
	inj.Stop()
	l.sched.RunUntil(400 * units.Microsecond)
	if got := forged(); got != 1 {
		t.Fatalf("storm kept forging after Stop: %d frames", got)
	}
	if l.flow.Done {
		t.Fatal("flow completed through a gate whose forged resume was cancelled")
	}
	if !l.net.Faulted() {
		t.Fatal("network no longer faulted though a forged pause already fired")
	}
}

// TestFaultSustainedStormIsOnePause: a sustained pause-storm (down_us 0)
// repeats PAUSE every period against a gate that is already down, with one
// RESUME at until_us. The gate enters the paused state once, so the trace
// holds one pfc.paused / pfc.resumed pair and the pause-duration histogram
// one sample of the whole 190 us — not a pfc.paused per frame and a 10 us
// pause measured from the last of them. Pauses still counts frames.
func TestFaultSustainedStormIsOnePause(t *testing.T) {
	ring := obs.NewRing(0)
	tel := obs.NewTelemetry(ring)
	l := newLineRec(t, tel)
	pfc.Install(l.net, pfc.DefaultConfig())
	if _, err := Inject(l.net, &Spec{Events: []Event{{
		Kind: "pause-storm", Port: "s0->h1", AtUs: 10, PeriodUs: 10, UntilUs: 200,
	}}}); err != nil {
		t.Fatal(err)
	}
	l.sched.RunUntil(400 * units.Microsecond)
	var paused, resumed int
	for _, e := range ring.Events() {
		switch e.Kind {
		case obs.KindPauseOn:
			paused++
		case obs.KindPauseOff:
			resumed++
		}
	}
	if paused != 1 || resumed != 1 {
		t.Errorf("trace holds %d pfc.paused and %d pfc.resumed, want one pair", paused, resumed)
	}
	const held, period = 190 * units.Microsecond, 10 * units.Microsecond
	if n, d := tel.PauseDur.Count(), units.Time(tel.PauseDur.Max()); n != 1 || d < held-period || d > held+period {
		t.Errorf("PauseDur holds %d samples, longest %v; want one of about %v", n, d, held)
	}
	gate := l.net.PortToward(l.s0, l.h1).Gate().(*pfc.Gate)
	if gate.Pauses != 19 {
		t.Errorf("gate counted %d PAUSE frames, want 19", gate.Pauses)
	}
	if !l.flow.Done {
		t.Error("flow did not complete after the storm's final resume")
	}
}

// TestFaultGoldenPrefixBoundary: a run with a fault schedule is identical
// to the unfaulted run strictly before FirstInjection and diverges after.
func TestFaultGoldenPrefixBoundary(t *testing.T) {
	build := func(storm bool) *line {
		l := newLine(t)
		pfc.Install(l.net, pfc.DefaultConfig())
		if storm {
			inj, err := Inject(l.net, &Spec{Events: []Event{{
				Kind: "pause-storm", Port: "s0->h1", AtUs: 20, PeriodUs: 10, DownUs: 8, UntilUs: 250,
			}}})
			if err != nil {
				t.Fatal(err)
			}
			if inj.FirstInjection() != 20*units.Microsecond {
				t.Fatalf("first injection %v, want 20us", inj.FirstInjection())
			}
		}
		return l
	}
	clean, attacked := build(false), build(true)
	// Strictly before the boundary the runs are indistinguishable.
	clean.sched.RunUntil(19 * units.Microsecond)
	attacked.sched.RunUntil(19 * units.Microsecond)
	if c, a := clean.flow.BytesRxed(), attacked.flow.BytesRxed(); c != a {
		t.Fatalf("prefix diverged before first injection: clean rxed %d, attacked %d", c, a)
	}
	if attacked.net.Faulted() {
		t.Fatal("network marked faulted before the first injection fired")
	}
	// Past the boundary the storm bites: at 100us the clean flow is done
	// while the attacked one is still being paused 80% of every period.
	clean.sched.RunUntil(100 * units.Microsecond)
	attacked.sched.RunUntil(100 * units.Microsecond)
	if !clean.flow.Done {
		t.Fatal("clean flow did not complete")
	}
	if c, a := clean.flow.BytesRxed(), attacked.flow.BytesRxed(); a >= c {
		t.Fatalf("storm did not bite: clean rxed %d, attacked %d", c, a)
	}
	if !attacked.net.Faulted() {
		t.Fatal("attacked network not marked faulted after the storm")
	}
}

func TestFaultCtrlLossDeterminism(t *testing.T) {
	drops := func() uint64 {
		l := newLine(t)
		// CBFC keeps periodic FCCL control frames flowing as long as
		// traffic does, giving the loss hook something to flip coins on.
		cbfc.Install(l.net, cbfc.DefaultConfig())
		if _, err := Inject(l.net, &Spec{Events: []Event{
			{Kind: "ctrl-loss", Port: "s0->h0", AtUs: 1, Prob: 0.5, Seed: 77},
		}}); err != nil {
			t.Fatal(err)
		}
		l.sched.RunUntil(300 * units.Microsecond)
		if !l.net.Faulted() {
			t.Fatal("ctrl-loss rule did not mark the network faulted")
		}
		return l.net.FaultDrops
	}
	a, b := drops(), drops()
	if a == 0 {
		t.Fatal("ctrl-loss at p=0.5 dropped nothing; the hook never ran")
	}
	if a != b {
		t.Fatalf("same seed, different drops: %d vs %d", a, b)
	}
}
