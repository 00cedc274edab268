// Package obs is the simulator's observability layer: a structured,
// sim-timestamped event log for the discrete protocol edges the paper's
// figures are made of (PFC PAUSE/RESUME, CBFC credit exhaustion and
// grants, CE/UE marks, CNP emission, rate-controller updates, TCD
// ternary transitions), a labeled metrics registry, and scheduler/runtime
// instrumentation (progress ticker, CPU profiles).
//
// The fixed-interval sampler in package stats sees queue *levels*; this
// package sees the *edges between samples* — a pause storm, a spurious
// TCD transition or a credit stall is invisible to a 10 us sampler but
// shows up as an exact event sequence here.
//
// Everything is deterministic: events carry simulated time only, the
// JSONL encoding is hand-rolled with a fixed field order, and metrics
// export sorts its keys — two runs with the same seed produce
// byte-identical traces.
//
// Recording is opt-in and zero-cost when disabled: emission points hold
// a Recorder interface that is nil by default, and guard every Record
// call with a nil check. Never store a typed nil pointer in a Recorder
// field — the interface would be non-nil and the guard would pass.
package obs

import "github.com/tcdnet/tcd/internal/units"

// Kind identifies an event type. The string form (used in JSONL) is a
// dotted taxonomy: subsystem first, edge second.
type Kind uint8

const (
	// KindNone is the zero Kind; it is never recorded.
	KindNone Kind = iota
	// KindCtrlPause: a PFC PAUSE frame was originated by an ingress
	// meter (Port is the originating port).
	KindCtrlPause
	// KindCtrlResume: a PFC RESUME frame was originated.
	KindCtrlResume
	// KindCtrlCredit: a CBFC FCCL credit update was originated
	// (Val is the FCCL value in bytes).
	KindCtrlCredit
	// KindPauseOn: an egress gate entered the paused state for Prio
	// (Port is the paused egress port).
	KindPauseOn
	// KindPauseOff: the egress gate resumed.
	KindPauseOff
	// KindCreditExhausted: an egress gate ran out of CBFC credits for a
	// virtual lane (Val is the credit balance in bytes).
	KindCreditExhausted
	// KindCreditGrant: credits arrived at a previously exhausted gate
	// (Val is the new credit balance in bytes).
	KindCreditGrant
	// KindOffStart: a port's OFF period began — it holds traffic but the
	// gate refuses transmission (Val is the queued bytes on Prio).
	KindOffStart
	// KindOffEnd: the OFF period ended.
	KindOffEnd
	// KindMarkCE: a detector marked a packet CE (Val is the queue length
	// the detector saw, Flow the marked packet's flow).
	KindMarkCE
	// KindMarkUE: a detector marked a packet UE.
	KindMarkUE
	// KindCNP: a receiver emitted a congestion notification packet
	// (Val: 1 = CE echo, 2 = UE echo).
	KindCNP
	// KindRateChange: a rate controller changed its sending rate
	// (Val is the new rate in bps, Aux the previous rate).
	KindRateChange
	// KindTCDState: a TCD detector transitioned (Val is the new ternary
	// state, Aux the previous one; see core.State).
	KindTCDState
	// KindFlowDone: a flow's last byte arrived (Val is the FCT in ps).
	KindFlowDone
	// KindLinkDown: a fault took a port down (Port is the affected side).
	KindLinkDown
	// KindLinkUp: the fault cleared and the port came back up.
	KindLinkUp
	// KindFreeze: a fault froze a port's egress pipeline.
	KindFreeze
	// KindThaw: the frozen port resumed transmitting.
	KindThaw
	// KindFaultDrop: a fault destroyed a frame. For data packets Flow and
	// Val (wire bytes) describe the casualty; for control frames Flow is
	// -1 and Val is the CtrlKind.
	KindFaultDrop
	// KindDeadlock: the PFC deadlock detector found a pause-wait cycle
	// (Port is the initial-trigger port, Val the cycle length, Aux the
	// time the trigger has been paused in ps).
	KindDeadlock
	// KindCreditStall: the CBFC stall detector found a credit-wait cycle
	// (Port is the initial-trigger port, Val the cycle length, Aux the
	// time the trigger has been starved in ps).
	KindCreditStall
	// KindForgedCtrl: the adversarial injector forged a flow-control frame
	// from a compromised NIC (Port is the forging port, Val the CtrlKind).
	KindForgedCtrl
	// KindSpoofMark: the adversarial injector forged a CE mark on a packet
	// with no real queue buildup behind it (Val is the true queue length).
	KindSpoofMark
	// KindRouteRewrite: the adversarial injector rewrote a node's routing
	// (Port is the forced egress; Val 1 = installed, 0 = removed).
	KindRouteRewrite

	numKinds
)

var kindNames = [numKinds]string{
	KindNone:            "none",
	KindCtrlPause:       "ctrl.pause",
	KindCtrlResume:      "ctrl.resume",
	KindCtrlCredit:      "ctrl.fccl",
	KindPauseOn:         "pfc.paused",
	KindPauseOff:        "pfc.resumed",
	KindCreditExhausted: "cbfc.exhausted",
	KindCreditGrant:     "cbfc.grant",
	KindOffStart:        "port.off",
	KindOffEnd:          "port.on",
	KindMarkCE:          "mark.ce",
	KindMarkUE:          "mark.ue",
	KindCNP:             "cnp",
	KindRateChange:      "cc.rate",
	KindTCDState:        "tcd.state",
	KindFlowDone:        "flow.done",
	KindLinkDown:        "fault.linkdown",
	KindLinkUp:          "fault.linkup",
	KindFreeze:          "fault.freeze",
	KindThaw:            "fault.thaw",
	KindFaultDrop:       "fault.drop",
	KindDeadlock:        "pfc.deadlock",
	KindCreditStall:     "cbfc.stall",
	KindForgedCtrl:      "attack.forge",
	KindSpoofMark:       "attack.spoof",
	KindRouteRewrite:    "attack.reroute",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one structured record. It is a flat value type so that
// recording never allocates: Port labels are cached strings owned by the
// emitting component, and the kind-specific payload lives in two int64
// slots documented per Kind.
type Event struct {
	// At is the simulated time of the event in picoseconds.
	At units.Time
	// Kind identifies the event type.
	Kind Kind
	// Prio is the PFC priority / IB virtual lane ("" semantics: 0).
	Prio uint8
	// Port labels the port the event concerns (empty for flow-scoped
	// events such as rate changes).
	Port string
	// Flow is the flow ID for flow-scoped events, -1 otherwise.
	Flow int64
	// Val and Aux carry the kind-specific payload (see Kind docs).
	Val int64
	// Aux is the secondary payload slot.
	Aux int64
}

// Recorder consumes events. Implementations are single-threaded, like
// the simulator; Record must not retain pointers into the event.
type Recorder interface {
	Record(e Event)
}

// FlowTracer is implemented by rate controllers that can emit per-flow
// events: the host layer hands them the recorder and their flow ID when
// the flow is registered.
type FlowTracer interface {
	SetTrace(rec Recorder, flow int64)
}
