// Package fault is the deterministic fault injector: it turns a
// declarative schedule (JSON or programmatic) of link and port failures
// into scheduler events against a fabric.Network.
//
// Injectable primitives:
//
//   - link-down / link-up: both sides of a named link lose light at a
//     sim timestamp (frames mid-wire are destroyed, queues freeze behind
//     the dead egress) and come back later.
//   - flap: periodic down/up toggling of a link over a window — the
//     classic failing-optics signature that drives rerouting storms.
//   - ctrl-loss / ctrl-delay: a directed port's outgoing control frames
//     (PFC PAUSE/RESUME, CBFC FCCL) are dropped with a seeded
//     probability or delivered late — the pause-loss and stale-credit
//     hazards that break flow-control assumptions without touching data.
//   - freeze / thaw: one port's egress pipeline hangs while its ingress
//     keeps working — the seed for growing pause storms and, on cyclic
//     routes, full PFC deadlock on demand.
//
// Adversarial primitives (a compromised NIC or switch, not a broken one):
//
//   - pause-storm: forged PFC Xoff floods against a chosen egress port —
//     sustained (down_us = 0: back-to-back pauses, one final resume) or
//     bursty (0 < down_us < period_us: pause/resume trains). On CBFC
//     fabrics the forged frames are protocol no-ops (credit state is
//     cumulative), which is itself a measured cross-fabric contrast.
//   - camouflage: micro pause trains that keep a root port's queue
//     hovering just below its marking threshold — the victim-camouflage
//     attack. Mechanically a bursty storm, but with its duty cycle
//     exposed so the oracle can strip it from ground truth.
//   - spoof-mark: a compromised sender forges CE marks on its outgoing
//     data packets with a seeded probability — congestion signaling with
//     no queue buildup behind it.
//   - route-rewrite: a runtime routing override at one node steers
//     transit traffic out a chosen port, manufacturing cyclic buffer
//     dependency (deadlock-by-routing-loop) on demand. Host-delivery
//     routes are preserved so local traffic still lands.
//
// Determinism: every action is a regular scheduler event with a fixed
// timestamp, and the only randomness (ctrl-loss coin flips, spoof-mark
// coin flips) draws from a per-rule seeded rng.Source, so the same spec
// and seed replay exactly. An empty schedule arms nothing and installs
// nothing — runs without faults stay byte-identical to runs built before
// this package existed.
package fault

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"

	"github.com/tcdnet/tcd/internal/fabric"
	"github.com/tcdnet/tcd/internal/obs"
	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/rng"
	"github.com/tcdnet/tcd/internal/units"
)

// Event is one scheduled fault. Times are in microseconds of simulated
// time; Link names an undirected link "A-B", Port a directed egress
// "A->B" (the port owned by A on the link toward B).
type Event struct {
	// Kind is one of link-down, link-up, flap, ctrl-loss, ctrl-delay,
	// freeze, thaw, pause-storm, camouflage, spoof-mark, route-rewrite.
	Kind string `json:"kind"`
	// AtUs is when the fault takes effect.
	AtUs float64 `json:"at_us"`
	// Link selects both sides of an undirected link, Port one directed
	// egress port; an event names exactly one. pause-storm, camouflage,
	// spoof-mark and route-rewrite attack one egress and take a Port only.
	Link string `json:"link,omitempty"`
	Port string `json:"port,omitempty"`
	// PeriodUs is a train's period (flap, pause-storm, camouflage: down
	// edge to down edge).
	PeriodUs float64 `json:"period_us,omitempty"`
	// DownUs is how long each train period stays down (0 makes a
	// pause-storm sustained).
	DownUs float64 `json:"down_us,omitempty"`
	// UntilUs ends a train (required) or a ctrl-loss, ctrl-delay,
	// spoof-mark or route-rewrite rule (0 = the rest of the run).
	UntilUs float64 `json:"until_us,omitempty"`
	// Prob is the ctrl-loss drop or spoof-mark probability in (0, 1].
	Prob float64 `json:"prob,omitempty"`
	// DelayUs is the extra ctrl-delay delivery latency.
	DelayUs float64 `json:"delay_us,omitempty"`
	// Seed seeds the ctrl-loss / spoof-mark coin flips (0 = derived from
	// the rule's position in the spec).
	Seed uint64 `json:"seed,omitempty"`
	// Prio is the PFC priority / virtual lane a pause-storm or camouflage
	// rule attacks.
	Prio uint8 `json:"prio,omitempty"`
}

// Spec is a fault schedule.
type Spec struct {
	Events []Event `json:"events"`
}

// Empty reports whether the spec schedules nothing.
func (s *Spec) Empty() bool { return s == nil || len(s.Events) == 0 }

// ParseSpec decodes and validates a JSON fault schedule.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("fault: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// conflicts maps each kind to the kind it cannot share a target and
// timestamp with: two such events would race on the same flag with an
// order-of-spec winner — always a spec bug, never an intent.
var conflicts = map[string]string{
	"link-down": "link-up", "link-up": "link-down",
	"freeze": "thaw", "thaw": "freeze",
	"ctrl-loss": "ctrl-delay", "ctrl-delay": "ctrl-loss",
}

// maxActions bounds the primitive actions one whole schedule may arm, so
// a malformed or hostile spec (a tiny period over a huge window, or
// thousands of rules) is rejected when it is read instead of flooding
// the scheduler.
const maxActions = 100000

// The optional fields an event kind may read; a set field its kind does
// not read is rejected, so two events that arm the same actions also
// serialize (and hash) the same.
const (
	readsTrain = 1 << iota // period_us, down_us
	readsUntil             // until_us
	readsCoin              // prob, seed
	readsDelay             // delay_us
	readsPrio              // prio
)

// Validate checks everything about the spec that needs no topology: known
// kinds, finite non-negative numbers that fit the simulator's clock, the
// fields and target each kind takes, each kind's window and duty cycle,
// one action budget for the whole schedule, and no conflicting events on
// the same target at the same timestamp. What depends on the fabric (do
// the names resolve, does the priority exist) is Inject's.
func (s *Spec) Validate() error {
	if s.Empty() {
		return nil
	}
	at := make(map[string]int, len(s.Events))
	var armed int64
	for i, ev := range s.Events {
		n, err := ev.check()
		if err != nil {
			return fmt.Errorf("fault: event %d: %w", i, err)
		}
		// Compared before adding: a single train's bound can reach 2^63,
		// and the sum must not wrap past the budget.
		if n > maxActions-armed {
			unit := "actions"
			switch ev.Kind {
			case "flap":
				unit = "toggles"
			case "pause-storm", "camouflage":
				unit = "frames"
			}
			return fmt.Errorf("fault: event %d: %s expands the schedule to more than %d %s", i, ev.Kind, maxActions, unit)
		}
		armed += n
		key := fmt.Sprintf("%s|%s|%s|%g", ev.Kind, ev.Link, ev.Port, ev.AtUs)
		if prev, dup := at[key]; dup {
			return fmt.Errorf("fault: events %d and %d are duplicates: %s on %q at %gus",
				prev, i, ev.Kind, ev.Link+ev.Port, ev.AtUs)
		}
		at[key] = i
		if opp := conflicts[ev.Kind]; opp != "" {
			oppKey := fmt.Sprintf("%s|%s|%s|%g", opp, ev.Link, ev.Port, ev.AtUs)
			if prev, clash := at[oppKey]; clash {
				return fmt.Errorf("fault: events %d and %d conflict: %s vs %s on %q at %gus",
					prev, i, opp, ev.Kind, ev.Link+ev.Port, ev.AtUs)
			}
		}
	}
	return nil
}

// check validates one event on its own and returns an upper bound on the
// actions it arms.
func (ev Event) check() (int64, error) {
	var reads int
	portOnly := false
	switch ev.Kind {
	case "link-down", "link-up", "freeze", "thaw":
	case "flap":
		reads = readsTrain | readsUntil
	case "pause-storm", "camouflage":
		reads, portOnly = readsTrain|readsUntil|readsPrio, true
	case "ctrl-loss":
		reads = readsUntil | readsCoin
	case "spoof-mark":
		reads, portOnly = readsUntil|readsCoin, true
	case "ctrl-delay":
		reads = readsUntil | readsDelay
	case "route-rewrite":
		reads, portOnly = readsUntil, true
	default:
		return 0, fmt.Errorf("unknown kind %q", ev.Kind)
	}
	for _, f := range []struct {
		name string
		val  float64
		us   bool
	}{
		{"at_us", ev.AtUs, true}, {"period_us", ev.PeriodUs, true}, {"down_us", ev.DownUs, true},
		{"until_us", ev.UntilUs, true}, {"prob", ev.Prob, false}, {"delay_us", ev.DelayUs, true},
	} {
		switch {
		case math.IsNaN(f.val) || math.IsInf(f.val, 0):
			return 0, fmt.Errorf("%s %s is not a finite number", ev.Kind, f.name)
		case f.val < 0:
			return 0, fmt.Errorf("%s %s must not be negative (got %g)", ev.Kind, f.name, f.val)
		case f.us && math.Round(f.val*float64(units.Microsecond)) >= float64(units.Forever):
			// units.FromMicros would overflow into a garbage timestamp.
			return 0, fmt.Errorf("%s %s %g does not fit the simulator's clock (max %.3g us)",
				ev.Kind, f.name, f.val, units.Forever.Micros())
		}
	}
	for _, f := range []struct {
		name string
		set  bool
		read int
	}{
		{"period_us", ev.PeriodUs != 0, readsTrain}, {"down_us", ev.DownUs != 0, readsTrain},
		{"until_us", ev.UntilUs != 0, readsUntil}, {"prob", ev.Prob != 0, readsCoin},
		{"seed", ev.Seed != 0, readsCoin}, {"delay_us", ev.DelayUs != 0, readsDelay},
		{"prio", ev.Prio != 0, readsPrio},
	} {
		if f.set && reads&f.read == 0 {
			return 0, fmt.Errorf("%s does not read %s", ev.Kind, f.name)
		}
	}
	switch {
	case portOnly && ev.Link != "":
		return 0, fmt.Errorf("%s needs a directed port target, not a link", ev.Kind)
	case portOnly && ev.Port == "":
		return 0, fmt.Errorf("%s needs a port target", ev.Kind)
	case ev.Link != "" && ev.Port != "":
		return 0, fmt.Errorf("give link or port, not both")
	case ev.Link == "" && ev.Port == "":
		return 0, fmt.Errorf("needs a link or port target")
	}

	at, until := units.FromMicros(ev.AtUs), units.FromMicros(ev.UntilUs)
	period, downFor := units.FromMicros(ev.PeriodUs), units.FromMicros(ev.DownUs)
	if reads&readsTrain != 0 {
		switch {
		case period <= 0:
			return 0, fmt.Errorf("%s needs period_us > 0", ev.Kind)
		case ev.Kind == "flap" && (downFor <= 0 || downFor >= period):
			return 0, fmt.Errorf("flap needs 0 < down_us < period_us")
		case until <= at:
			return 0, fmt.Errorf("%s needs until_us past at_us", ev.Kind)
		case ev.Kind == "camouflage" && (downFor <= 0 || downFor >= period):
			return 0, fmt.Errorf("camouflage needs 0 < down_us < period_us")
		case ev.Kind == "pause-storm" && downFor >= period:
			return 0, fmt.Errorf("pause-storm needs down_us = 0 (sustained) or 0 < down_us < period_us (bursty)")
		}
		// Each period arms at most two actions (down and up, or pause and
		// resume); a sustained storm's single final resume fits the
		// bound's extra period.
		return (int64(until-at)/int64(period) + 1) * 2, nil
	}
	switch {
	case reads&readsCoin != 0 && (ev.Prob <= 0 || ev.Prob > 1):
		return 0, fmt.Errorf("%s needs prob in (0, 1]", ev.Kind)
	case reads&readsDelay != 0 && ev.DelayUs <= 0:
		return 0, fmt.Errorf("ctrl-delay needs delay_us > 0")
	case ev.UntilUs > 0 && until <= at:
		return 0, fmt.Errorf("%s needs until_us past at_us (or 0 for open-ended)", ev.Kind)
	case ev.UntilUs > 0:
		return 2, nil
	}
	return 1, nil
}

// LoadSpec reads and decodes a JSON fault schedule from a file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	return ParseSpec(data)
}

// Injector holds the armed fault events of one run.
type Injector struct {
	net *fabric.Network

	// Armed counts the primitive actions scheduled.
	Armed int

	// override is the route-rewrite table, lazily installed as a wrapper
	// around the network's routing function on the first route-rewrite
	// rule. While the map is empty the wrapper is behaviorally inert, so
	// the golden prefix before the first rewrite fires is preserved.
	override map[packet.NodeID]*fabric.Port
	// camoDuty records, per camouflaged port, the summed pause duty cycle
	// (down_us/period_us) of its camouflage rules. The oracle subtracts
	// it from the port's observed OFF fraction when deriving ground
	// truth: that pause time was manufactured, not backpressure.
	camoDuty map[*fabric.Port]float64
}

// Inject validates spec (see Validate), resolves its link and port names
// and priorities against the network, and schedules every action on the
// network's scheduler. It must be called before the run starts.
func Inject(n *fabric.Network, spec *Spec) (*Injector, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{net: n}
	if spec.Empty() {
		return in, nil
	}
	for i, ev := range spec.Events {
		if err := in.armEvent(i, ev); err != nil {
			return nil, fmt.Errorf("fault: event %d: %w", i, err)
		}
	}
	return in, nil
}

// arm schedules one action.
func (in *Injector) arm(at units.Time, fn func()) {
	in.net.Sched.At(at, fn)
	in.Armed++
}

// train arms on at at, at+period, ... before until, each paired with off
// downFor later (clamped to until) — or, with downFor 0, a single off at
// until.
func (in *Injector) train(at, until, period, downFor units.Time, on, off func()) {
	for t := at; t < until; t += period {
		in.arm(t, on)
		if downFor > 0 {
			in.arm(min(t+downFor, until), off)
		}
	}
	if downFor == 0 {
		in.arm(until, off)
	}
}

// armEvent resolves one validated event's target and arms its actions: a
// train for flap, pause-storm and camouflage, else a start at at_us and,
// for a rule with until_us, a stop.
func (in *Injector) armEvent(i int, ev Event) error {
	ports, err := in.targets(ev)
	if err != nil {
		return err
	}
	if prios := in.net.Config().Priorities; int(ev.Prio) >= prios {
		return fmt.Errorf("%s prio %d out of range (fabric has %d priorities)", ev.Kind, ev.Prio, prios)
	}
	each := func(fn func(*fabric.Port)) func() {
		return func() {
			for _, p := range ports {
				fn(p)
			}
		}
	}
	at, until := units.FromMicros(ev.AtUs), units.FromMicros(ev.UntilUs)
	period, downFor := units.FromMicros(ev.PeriodUs), units.FromMicros(ev.DownUs)
	target := ports[0] // the port of a port-only kind
	var start, stop func()
	switch ev.Kind {
	case "link-down", "link-up":
		down := ev.Kind == "link-down"
		start = each(func(p *fabric.Port) { p.SetDown(down) })
	case "freeze", "thaw":
		frozen := ev.Kind == "freeze"
		start = each(func(p *fabric.Port) { p.SetFrozen(frozen) })
	case "flap":
		in.train(at, until, period, downFor,
			each(func(p *fabric.Port) { p.SetDown(true) }),
			each(func(p *fabric.Port) { p.SetDown(false) }))
		return nil
	case "pause-storm", "camouflage":
		// Forged PFC pause frames originated by the target's peer — the
		// compromised NIC or switch on the far end — against the target's
		// egress gate. Camouflage is always bursty (a sustained pause
		// would be a detectable outage) and records its duty cycle for
		// the oracle.
		if ev.Kind == "camouflage" {
			if in.camoDuty == nil {
				in.camoDuty = make(map[*fabric.Port]float64)
			}
			in.camoDuty[target] += ev.DownUs / ev.PeriodUs
		}
		forger, prio := target.Peer(), ev.Prio
		// A sustained storm (down_us 0) ends with one final resume so its
		// damage has a defined end and recovery is measurable.
		in.train(at, until, period, downFor, func() {
			forger.ForgeCtrl(fabric.CtrlFrame{Kind: fabric.CtrlPause, Prio: prio})
		}, func() {
			forger.ForgeCtrl(fabric.CtrlFrame{Kind: fabric.CtrlResume, Prio: prio})
		})
		return nil
	case "ctrl-loss":
		coin := ev.coin(i)
		hook := func(fabric.CtrlFrame) (bool, units.Time) { return coin(), 0 }
		start = each(func(p *fabric.Port) { p.SetCtrlFault(hook) })
		stop = each(func(p *fabric.Port) { p.SetCtrlFault(nil) })
	case "ctrl-delay":
		delay := units.FromMicros(ev.DelayUs)
		hook := func(fabric.CtrlFrame) (bool, units.Time) { return false, delay }
		start = each(func(p *fabric.Port) { p.SetCtrlFault(hook) })
		stop = each(func(p *fabric.Port) { p.SetCtrlFault(nil) })
	case "spoof-mark":
		// The target forges CE marks on its outgoing data packets.
		coin := ev.coin(i)
		hook := func(*packet.Packet) bool { return coin() }
		start = func() { target.SetSpoof(hook) }
		stop = func() { target.SetSpoof(nil) }
	case "route-rewrite":
		// Every transit packet at the target's node is forced out the
		// target (host-delivery hops excepted).
		ov, err := in.routeOverride()
		if err != nil {
			return err
		}
		node, rec := target.Node(), target.Recorder()
		record := func(val int64) {
			if rec != nil {
				rec.Record(obs.Event{
					At: in.net.Sched.Now(), Kind: obs.KindRouteRewrite,
					Port: target.Label(), Flow: -1, Val: val,
				})
			}
		}
		start = func() {
			in.net.MarkFaulted()
			ov[node] = target
			record(1)
		}
		stop = func() {
			delete(ov, node)
			record(0)
		}
	}
	in.arm(at, start)
	if until > 0 {
		in.arm(until, stop)
	}
	return nil
}

// coin returns the rule's seeded coin, true with probability Prob. An
// unseeded rule derives its seed from its position i in the spec, so two
// unseeded rules do not share a stream.
func (ev Event) coin(i int) func() bool {
	seed := ev.Seed
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15 * uint64(i+1)
	}
	src, prob := rng.New(seed), ev.Prob
	return func() bool { return src.Float64() < prob }
}

// targets resolves an event's target to the affected ports: both sides of
// Link, or the single directed Port.
func (in *Injector) targets(ev Event) ([]*fabric.Port, error) {
	if ev.Port != "" {
		p, err := in.resolvePort(ev.Port)
		if err != nil {
			return nil, err
		}
		return []*fabric.Port{p}, nil
	}
	li, err := in.resolveLink(ev.Link)
	if err != nil {
		return nil, err
	}
	l := in.net.Topo.Links[li]
	return []*fabric.Port{in.net.PortOn(l.A, li), in.net.PortOn(l.B, li)}, nil
}

// resolveLink resolves "A-B" to a topology link index. Node names may
// themselves contain dashes, so every split position is tried.
func (in *Injector) resolveLink(s string) (int, error) {
	t := in.net.Topo
	for i := 1; i < len(s)-1; i++ {
		if s[i] != '-' {
			continue
		}
		a, okA := t.Lookup(s[:i])
		b, okB := t.Lookup(s[i+1:])
		if okA && okB {
			if li := t.LinkBetween(a, b); li >= 0 {
				return li, nil
			}
			return -1, fmt.Errorf("no link between %q and %q", s[:i], s[i+1:])
		}
	}
	return -1, fmt.Errorf("cannot resolve link %q", s)
}

// resolvePort resolves "A->B" to the egress port of A toward B.
func (in *Injector) resolvePort(s string) (*fabric.Port, error) {
	t := in.net.Topo
	for i := 1; i+2 < len(s); i++ {
		if s[i] != '-' || s[i+1] != '>' {
			continue
		}
		a, okA := t.Lookup(s[:i])
		b, okB := t.Lookup(s[i+2:])
		if okA && okB {
			if t.LinkBetween(a, b) < 0 {
				return nil, fmt.Errorf("no link between %q and %q", s[:i], s[i+2:])
			}
			return in.net.PortToward(a, b), nil
		}
	}
	return nil, fmt.Errorf("cannot resolve port %q", s)
}

// routeOverride lazily wraps the network's routing function with the
// injector's rewrite table. Installed at Inject time but inert while the
// table is empty, so the trace prefix before the first rewrite fires is
// byte-identical to the unwrapped run.
func (in *Injector) routeOverride() (map[packet.NodeID]*fabric.Port, error) {
	if in.override != nil {
		return in.override, nil
	}
	orig := in.net.Route
	if orig == nil {
		return nil, fmt.Errorf("route-rewrite needs a routing function installed")
	}
	in.override = make(map[packet.NodeID]*fabric.Port)
	ov := in.override
	in.net.Route = func(at packet.NodeID, pkt *packet.Packet) *fabric.Port {
		if len(ov) != 0 {
			if out, ok := ov[at]; ok {
				// Preserve host delivery: the attack loops transit
				// traffic, it does not black-hole local destinations.
				if dflt := orig(at, pkt); dflt != nil && dflt.PeerIsHost() {
					return dflt
				}
				return out
			}
		}
		return orig(at, pkt)
	}
	return ov, nil
}

// CamouflageDuty reports the summed camouflage pause duty cycle armed
// against p (0 for an unattacked port). The oracle subtracts it from the
// port's observed OFF fraction: manufactured pause time must not make a
// camouflaged root look like a victim to ground truth.
func (in *Injector) CamouflageDuty(p *fabric.Port) float64 { return in.camoDuty[p] }
