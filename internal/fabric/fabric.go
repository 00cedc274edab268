// Package fabric is the simulator's dataplane: switches, host NICs, ports,
// egress queues and links, driven by a discrete-event scheduler.
//
// The fabric is deliberately mechanism-free: hop-by-hop flow control
// (PFC, CBFC) plugs in through the TxGate/RxMeter interfaces, congestion
// detection (ECN, FECN, TCD) through the Detector interface, and traffic
// sources through the Source interface. This mirrors how the paper's
// mechanisms compose: the same dataplane underlies CEE and InfiniBand,
// differing only in which gates, meters and detectors are attached.
//
// The ON/OFF bookkeeping that TCD depends on lives here: a port is OFF
// when it has traffic to send but its gate refuses (PAUSE in effect, or
// credits exhausted). The port tells its detector when each OFF period
// ends, which is exactly the state the paper's switches keep (one
// timestamp per port per priority).
package fabric

import (
	"fmt"

	"github.com/tcdnet/tcd/internal/obs"
	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/sim"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

// CtrlKind enumerates hop-by-hop flow-control frames. Control frames are
// out-of-band: they bypass data queues but wait for the frame currently
// being serialized, which is what makes the paper's response time
// tau = 2*MTU/C + 2*t_p emerge rather than being hard-coded.
type CtrlKind uint8

const (
	// CtrlPause is a PFC PAUSE for one priority.
	CtrlPause CtrlKind = iota
	// CtrlResume is a PFC RESUME for one priority.
	CtrlResume
	// CtrlCredit is a CBFC FCCL credit-limit update for one virtual lane.
	CtrlCredit
)

func (k CtrlKind) String() string {
	switch k {
	case CtrlPause:
		return "PAUSE"
	case CtrlResume:
		return "RESUME"
	case CtrlCredit:
		return "FCCL"
	}
	return fmt.Sprintf("CtrlKind(%d)", uint8(k))
}

// CtrlFrame is a hop-by-hop flow-control message.
type CtrlFrame struct {
	Kind CtrlKind
	// Prio is the priority (CEE) or virtual lane (InfiniBand).
	Prio uint8
	// FCCL is the credit limit in bytes (CtrlCredit only).
	FCCL int64
}

// ctrlFrameBytes is the wire size of a control frame (PFC PAUSE frames are
// 64-byte Ethernet frames; FCCL flits are comparable).
const ctrlFrameBytes units.ByteSize = 64

// TxGate is the egress side of a hop-by-hop flow control: it decides
// whether the port may transmit. Implementations receive control frames
// from the downstream side and must call Port.GateChanged after any state
// change that could unblock transmission.
type TxGate interface {
	// CanSend reports whether a packet of the given size on the given
	// priority may be transmitted now.
	CanSend(prio uint8, size units.ByteSize) bool
	// OnSend accounts for a transmitted packet (e.g. consumes credits).
	OnSend(prio uint8, size units.ByteSize)
	// HandleCtrl processes a control frame from the downstream peer.
	HandleCtrl(now units.Time, f CtrlFrame)
	// BlockedSince reports when the gate began refusing the priority, or
	// units.Forever while it admits traffic. In a wait cycle the member
	// blocked earliest is where the storm entered the loop (DCFIT's
	// initial trigger); WaitDetector attributes by it.
	BlockedSince(prio uint8) units.Time
}

// RxMeter is the ingress side of a hop-by-hop flow control: it accounts
// for buffer occupancy attributable to one input port and originates
// control frames (PAUSE/RESUME or FCCL) toward the upstream peer.
type RxMeter interface {
	// OnArrive accounts for a packet entering the node via this port.
	OnArrive(now units.Time, pkt *packet.Packet)
	// OnFree accounts for that packet finally leaving the node.
	OnFree(now units.Time, pkt *packet.Packet)
	// Occupancy, MaxOccupancy and Violations read the ingress ledger;
	// embedding Ingress supplies all three.
	Occupancy(prio uint8) units.ByteSize
	MaxOccupancy() units.ByteSize
	Violations() uint64
}

// Ingress is the buffer ledger every RxMeter embeds: the occupancy
// attributable to one input port per priority, its high-water mark, and
// the arrivals that found it beyond the control law's bound. The law
// decides what to signal upstream from the occupancy Arrive and Free
// return.
type Ingress struct {
	occ        []units.ByteSize
	maxOcc     units.ByteSize
	violations uint64
}

// NewIngress returns a ledger that keeps its occupancy in occ, one slot
// per priority (Install passes a subslice of one fabric-wide array).
func NewIngress(occ []units.ByteSize) Ingress { return Ingress{occ: occ} }

// Arrive adds size to the priority's occupancy and returns the result;
// a result beyond bound is a violation (a would-be drop in a real
// switch — must stay zero for losslessness).
func (a *Ingress) Arrive(prio uint8, size, bound units.ByteSize) units.ByteSize {
	occ := a.occ[prio] + size
	a.occ[prio] = occ
	if occ > a.maxOcc {
		a.maxOcc = occ
	}
	if occ > bound {
		a.violations++
	}
	return occ
}

// Free subtracts size from the priority's occupancy and returns the
// result.
func (a *Ingress) Free(prio uint8, size units.ByteSize) units.ByteSize {
	occ := a.occ[prio] - size
	if occ < 0 {
		panic("fabric: negative ingress occupancy")
	}
	a.occ[prio] = occ
	return occ
}

// Occupancy reports the bytes currently buffered on one priority.
func (a *Ingress) Occupancy(prio uint8) units.ByteSize { return a.occ[prio] }

// MaxOccupancy reports the highest occupancy seen on any priority.
func (a *Ingress) MaxOccupancy() units.ByteSize { return a.maxOcc }

// Violations counts arrivals beyond the bound passed to Arrive.
func (a *Ingress) Violations() uint64 { return a.violations }

// Meters returns the installed ingress meters of type M in port order:
// Meters[RxMeter] for every meter, Meters[*pfc.Meter] for one law's.
func Meters[M RxMeter](n *Network) []M {
	var out []M
	for _, p := range n.ports {
		if m, ok := p.meter.(M); ok {
			out = append(out, m)
		}
	}
	return out
}

// Detector observes an egress port and marks packets (ECN/FECN/TCD).
// One detector instance serves one (port, priority) pair.
type Detector interface {
	// OnDequeue is called when a packet starts transmission at the port;
	// qlen is the egress queue length in bytes after removing pkt. The
	// detector may mutate pkt.Code.
	OnDequeue(now units.Time, pkt *packet.Packet, qlen units.ByteSize)
	// OnOffStart is called when an OFF period begins: the port has queued
	// traffic but the gate refuses transmission.
	OnOffStart(now units.Time)
	// OnOffEnd is called when that OFF period ends (the gate allows
	// transmission again). It always precedes the next OnDequeue.
	OnOffEnd(now units.Time)
}

// EnqueueDetector is an optional Detector extension for mechanisms that
// evaluate their marking condition when a packet *arrives* at the egress
// queue rather than when it leaves. InfiniBand's FECN root/victim test is
// arrival-based: a packet arriving while the port is credit-starved is a
// victim, one arriving in a credit-rich window looks like root traffic.
type EnqueueDetector interface {
	OnEnqueue(now units.Time, pkt *packet.Packet, qlenBefore units.ByteSize)
}

// Source feeds a host NIC port. The port pulls from the source whenever
// it is idle, which models a NIC QP scheduler: paced packets do not sit in
// a standing queue, and after a PAUSE the accumulated pacing debt drains
// at line rate — the ON-OFF pattern the paper describes at port P0.
type Source interface {
	// Head returns the next packet and the earliest time it may be sent.
	// It returns (nil, t) when nothing is pending before t; t may be
	// units.Forever when the source is idle.
	Head(now units.Time) (*packet.Packet, units.Time)
	// Advance removes the packet last returned by Head.
	Advance()
}

// Arch selects the switch queueing architecture.
type Arch uint8

const (
	// OutputQueued buffers packets in one FIFO per (egress, priority) —
	// the model used for the CEE experiments.
	OutputQueued Arch = iota
	// InputQueuedVoQ buffers packets in virtual output queues per input
	// port, with round-robin arbitration at each output — the
	// architecture the paper's InfiniBand simulator uses. Queue-length
	// detectors see the aggregate backlog destined to the output, so
	// marking semantics carry over.
	InputQueuedVoQ
)

// Config carries fabric-wide parameters.
type Config struct {
	// Priorities is the number of PFC priorities / IB virtual lanes.
	Priorities int
	// Arch is the switch queueing architecture (default OutputQueued).
	Arch Arch
	// CtrlJitter, if non-nil, returns extra delay added to each control
	// frame (used to reproduce the testbed's software jitter).
	CtrlJitter func() units.Time
	// Rec, if non-nil, receives structured events from every port and
	// from the flow-control components attached to them (OFF edges,
	// CE/UE marks, control frames). Nil disables recording at zero cost.
	Rec obs.Recorder
}

// DefaultConfig returns a single-priority fabric.
func DefaultConfig() Config {
	return Config{Priorities: 1}
}

// maxHops is the routing-loop guard: a packet that exceeds this hop count
// aborts the run (or, under an active fault, is TTL-dropped).
const maxHops = 64

// fifo is an allocation-friendly packet queue.
type fifo struct {
	buf  []*packet.Packet
	head int
}

func (f *fifo) push(p *packet.Packet) { f.buf = append(f.buf, p) }
func (f *fifo) empty() bool           { return f.head >= len(f.buf) }
func (f *fifo) len() int              { return len(f.buf) - f.head }
func (f *fifo) peek() *packet.Packet  { return f.buf[f.head] }
func (f *fifo) pop() *packet.Packet {
	p := f.buf[f.head]
	f.buf[f.head] = nil
	f.head++
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	} else if f.head > 1024 && f.head*2 > len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		for i := n; i < len(f.buf); i++ {
			f.buf[i] = nil
		}
		f.buf = f.buf[:n]
		f.head = 0
	}
	return p
}

// Port is one side of a link: it owns the egress machinery toward its
// peer and the ingress accounting for traffic from its peer.
type Port struct {
	net   *Network
	node  *node
	Index int // index within the owning node
	Link  int // topology link index
	Peer  *Port
	Rate  units.Rate
	Delay units.Time

	// pb is this port's base into the per-(port,priority) flat arrays the
	// Network owns (qbytes, blocked), which fabric-wide scans (Stranded,
	// WaitCycles, invariants) sweep linearly. State only this port's own
	// methods touch is a field here.
	pb int32
	// busy says the port is serializing a packet, until busyEnd; wakeAt
	// is the armed source wake (0 = none). down and frozen are the fault
	// state described at ctrlFault; they share busy's word, which keeps a
	// 64-port slab chunk on a 24 KB size class.
	busy, down, frozen bool
	busyEnd            units.Time
	wakeAt             units.Time

	// Egress. In OutputQueued mode queues[prio] is the FIFO; in
	// InputQueuedVoQ mode voqs[prio][inputPort] are the virtual output
	// queues and rr[prio] the round-robin arbitration pointer.
	queues []fifo
	voqs   [][]fifo
	rr     []int
	gate   TxGate
	dets   []Detector
	src    Source

	// Per-port scratch, preallocated at creation so the transmit hot path
	// schedules no fresh closures: txPkt is the packet currently being
	// serialized (a port serializes one packet at a time); its completion
	// and the source wake (validated against wakeAt, so stale wakes are
	// no-ops) are scheduled as the static txDoneArg/wakeArg with the port
	// as the event argument. receiveFn is the typed-arg event callback
	// for the per-packet link-propagation delay: several packets can be
	// in flight at once, so the packet travels as the event argument
	// rather than in port scratch — and scheduling mints no closure.
	txPkt     *packet.Packet
	receiveFn func(any)

	// Ingress.
	meter RxMeter

	// Fault state (driven by the fault injector; see fault.go). A down
	// port neither transmits nor delivers; a frozen port stops serving
	// its egress queues while its ingress keeps forwarding (a hung egress
	// pipeline). ctrlFault, if non-nil, intercepts outgoing control
	// frames. Every hot-path test of these is a plain flag check, so a
	// run with no faults executes exactly as it did before they existed.
	ctrlFault func(f CtrlFrame) (drop bool, delay units.Time)
	// spoof, if non-nil, decides per outgoing data packet whether a
	// compromised sender forges a CE mark on it (see SetSpoof). Attack is
	// a bitmask of AttackTag provenance bits the adversarial injector set
	// on this port; the oracle reads it to separate manufactured symptoms
	// from organic congestion.
	spoof  func(pkt *packet.Packet) bool
	Attack uint8

	// label caches Name() for event records (hot path; Name sprintfs).
	label string

	// Counters (cumulative; sampled by tracers).
	TxBytes     units.ByteSize
	TxPackets   uint64
	TxDataBytes units.ByteSize
	MarkedCE    uint64
	MarkedUE    uint64
	SpoofedCE   uint64 // CE marks forged by a spoof hook, not a detector
	ForgedCtrl  uint64 // control frames forged by the adversarial injector
	CtrlSent    uint64
	PauseTime   units.Time // total time spent blocked (all priorities)
	blockStart  units.Time
	// FaultDrops counts frames this port destroyed because of a fault
	// (data packets at egress or ingress of a down link, lost control
	// frames).
	FaultDrops uint64
}

// Name renders "node[idx]→peer" for traces and errors.
func (p *Port) Name() string {
	return fmt.Sprintf("%s[%d]->%s", p.net.Topo.Name(p.node.id), p.Index, p.net.Topo.Name(p.Peer.node.id))
}

// Label returns Name() cached for reuse in event records, so recording
// an event never allocates.
func (p *Port) Label() string {
	if p.label == "" {
		p.label = p.Name()
	}
	return p.label
}

// Node returns the owning node's ID.
func (p *Port) Node() packet.NodeID { return p.node.id }

// Recorder returns the fabric-wide event recorder (nil when disabled).
// Flow-control components attached to the port emit through it.
func (p *Port) Recorder() obs.Recorder { return p.net.cfg.Rec }

// Now reports the current simulated time (for attached components that
// emit events outside a callback carrying the time).
func (p *Port) Now() units.Time { return p.net.Sched.Now() }

// QueueBytes reports the egress queue length of one priority in bytes.
func (p *Port) QueueBytes(prio uint8) units.ByteSize {
	return p.net.qbytes[int(p.pb)+int(prio)]
}

// TotalQueueBytes reports the egress queue length across priorities.
func (p *Port) TotalQueueBytes() units.ByteSize {
	var t units.ByteSize
	for _, b := range p.net.qbytes[p.pb : int(p.pb)+p.net.nPrio] {
		t += b
	}
	return t
}

// Blocked reports whether the priority is currently OFF (gate-refused).
func (p *Port) Blocked(prio uint8) bool { return p.net.blocked[int(p.pb)+int(prio)] }

// AttachGate installs the egress flow-control gate.
func (p *Port) AttachGate(g TxGate) { p.gate = g }

// Gate returns the installed egress gate (nil if none).
func (p *Port) Gate() TxGate { return p.gate }

// AttachMeter installs the ingress flow-control meter.
func (p *Port) AttachMeter(m RxMeter) { p.meter = m }

// Meter returns the installed ingress meter (nil if none).
func (p *Port) Meter() RxMeter { return p.meter }

// AttachDetector installs the marking detector for one priority.
func (p *Port) AttachDetector(prio uint8, d Detector) { p.dets[prio] = d }

// Detector returns the detector for one priority (nil if none).
func (p *Port) DetectorAt(prio uint8) Detector { return p.dets[prio] }

// AttachSource installs the NIC pull source (host ports only).
func (p *Port) AttachSource(s Source) { p.src = s }

// SendCtrl transmits a flow-control frame to the peer's gate. The frame
// waits behind the packet currently being serialized (it cannot interrupt
// an ongoing transmission), then takes one serialization time plus the
// propagation delay — yielding the paper's tau.
func (p *Port) SendCtrl(f CtrlFrame) {
	now := p.net.Sched.Now()
	if p.down {
		// A dead link carries no control frames.
		return
	}
	var faultDelay units.Time
	if p.ctrlFault != nil {
		drop, delay := p.ctrlFault(f)
		if drop {
			p.FaultDrops++
			p.net.FaultDrops++
			if rec := p.net.cfg.Rec; rec != nil {
				rec.Record(obs.Event{At: now, Kind: obs.KindFaultDrop, Port: p.Label(), Prio: f.Prio, Flow: -1, Val: int64(f.Kind)})
			}
			return
		}
		faultDelay = delay
	}
	wait := units.Time(0)
	if p.busy && p.busyEnd > now {
		wait = p.busyEnd - now
	}
	d := wait + units.TxTime(ctrlFrameBytes, p.Rate) + p.Delay + faultDelay
	if p.net.cfg.CtrlJitter != nil {
		d += p.net.cfg.CtrlJitter()
	}
	p.CtrlSent++
	if rec := p.net.cfg.Rec; rec != nil {
		kind := obs.KindCtrlPause
		switch f.Kind {
		case CtrlResume:
			kind = obs.KindCtrlResume
		case CtrlCredit:
			kind = obs.KindCtrlCredit
		}
		rec.Record(obs.Event{At: now, Kind: kind, Port: p.Label(), Prio: f.Prio, Flow: -1, Val: f.FCCL})
	}
	n := p.net
	var ci *ctrlInflight
	if k := len(n.ctrlFree); k > 0 {
		ci = n.ctrlFree[k-1]
		n.ctrlFree = n.ctrlFree[:k-1]
	} else {
		ci = &ctrlInflight{}
	}
	ci.to, ci.f = p.Peer, f
	n.Sched.AfterArg(d, n.ctrlDeliverFn, ci)
}

// ctrlInflight is a control frame on the wire: the destination port and
// the frame, parked in an event argument. Records are recycled through
// Network.ctrlFree once delivered.
type ctrlInflight struct {
	to *Port
	f  CtrlFrame
}

// deliverCtrl lands a control frame at its destination port's gate (or
// drops it if the link died while the frame was in flight).
func (n *Network) deliverCtrl(ci *ctrlInflight) {
	peer, f := ci.to, ci.f
	ci.to = nil
	n.ctrlFree = append(n.ctrlFree, ci)
	if peer.down {
		peer.FaultDrops++
		n.FaultDrops++
		if rec := n.cfg.Rec; rec != nil {
			rec.Record(obs.Event{At: n.Sched.Now(), Kind: obs.KindFaultDrop, Port: peer.Label(), Prio: f.Prio, Flow: -1, Val: int64(f.Kind)})
		}
		return
	}
	if peer.gate != nil {
		peer.gate.HandleCtrl(n.Sched.Now(), f)
	}
}

// GateChanged must be called by the gate after its state may have become
// more permissive (RESUME received, credits arrived). It re-evaluates
// blocked bookkeeping and restarts transmission if possible.
func (p *Port) GateChanged() {
	if !p.busy {
		p.tryTransmit()
	}
}

// Kick wakes the port to re-poll its source (new flow became active).
func (p *Port) Kick() {
	if !p.busy {
		p.tryTransmit()
	}
}

// Enqueue places a packet on the egress queue (switch forwarding path).
func (p *Port) Enqueue(pkt *packet.Packet) {
	prio := pkt.Priority
	qb := &p.net.qbytes[int(p.pb)+int(prio)]
	if d, ok := p.dets[prio].(EnqueueDetector); ok {
		before := pkt.Code
		d.OnEnqueue(p.net.Sched.Now(), pkt, *qb)
		if pkt.Code != before {
			switch pkt.Code {
			case packet.CE:
				p.MarkedCE++
				p.recordMark(obs.KindMarkCE, pkt, *qb)
			case packet.UE:
				p.MarkedUE++
				p.recordMark(obs.KindMarkUE, pkt, *qb)
			}
		}
	}
	if p.useVoQ() && pkt.InPort >= 0 {
		p.voq(prio, int(pkt.InPort)).push(pkt)
	} else {
		p.queues[prio].push(pkt)
	}
	*qb += pkt.Size
	if !p.busy {
		p.tryTransmit()
	}
}

// useVoQ reports whether this port buffers in virtual output queues.
func (p *Port) useVoQ() bool {
	return p.net.cfg.Arch == InputQueuedVoQ && p.node.kind == topo.Switch
}

// voq returns the virtual output queue of one (priority, input) pair,
// growing the table lazily to the node's port count.
func (p *Port) voq(prio uint8, in int) *fifo {
	if p.voqs == nil {
		p.voqs = make([][]fifo, len(p.queues))
	}
	if p.voqs[prio] == nil {
		p.voqs[prio] = make([]fifo, len(p.node.ports))
	}
	if in >= len(p.voqs[prio]) {
		grown := make([]fifo, in+1)
		copy(grown, p.voqs[prio])
		p.voqs[prio] = grown
	}
	return &p.voqs[prio][in]
}

// voqHead picks the next input's head packet for one priority using
// round-robin arbitration, returning nil when all VoQs are empty.
func (p *Port) voqHead(prio uint8) (*fifo, *packet.Packet) {
	if p.voqs == nil || p.voqs[prio] == nil {
		return nil, nil
	}
	n := len(p.voqs[prio])
	for k := 0; k < n; k++ {
		i := (p.rr[prio] + k) % n
		q := &p.voqs[prio][i]
		if !q.empty() {
			p.rr[prio] = (i + 1) % n
			return q, q.peek()
		}
	}
	return nil, nil
}

// recordMark emits a mark event (the caller already bumped the counter).
func (p *Port) recordMark(kind obs.Kind, pkt *packet.Packet, qlen units.ByteSize) {
	if rec := p.net.cfg.Rec; rec != nil {
		rec.Record(obs.Event{
			At: p.net.Sched.Now(), Kind: kind, Port: p.Label(),
			Prio: pkt.Priority, Flow: int64(pkt.Flow), Val: int64(qlen),
		})
	}
}

func (p *Port) setBlocked(prio uint8, b bool) {
	if p.net.blocked[int(p.pb)+int(prio)] == b {
		return
	}
	now := p.net.Sched.Now()
	p.net.blocked[int(p.pb)+int(prio)] = b
	if b {
		p.blockStart = now
	} else {
		p.PauseTime += now - p.blockStart
	}
	if rec := p.net.cfg.Rec; rec != nil {
		kind := obs.KindOffEnd
		if b {
			kind = obs.KindOffStart
		}
		rec.Record(obs.Event{At: now, Kind: kind, Port: p.Label(), Prio: prio, Flow: -1, Val: int64(p.net.qbytes[int(p.pb)+int(prio)])})
	}
	if d := p.dets[prio]; d != nil {
		if b {
			d.OnOffStart(now)
		} else {
			d.OnOffEnd(now)
		}
	}
}

// tryTransmit starts the next transmission if the port is idle. Strict
// priority across queues (lowest index first), then the pull source.
func (p *Port) tryTransmit() {
	if p.busy || p.down || p.frozen {
		return
	}
	now := p.net.Sched.Now()
	for prio := 0; prio < len(p.queues); prio++ {
		q := &p.queues[prio]
		var head *packet.Packet
		if !q.empty() {
			head = q.peek()
		} else if p.useVoQ() {
			q, head = p.voqHead(uint8(prio))
		}
		if head == nil {
			continue
		}
		if p.gate != nil && !p.gate.CanSend(uint8(prio), head.Size) {
			p.setBlocked(uint8(prio), true)
			continue
		}
		p.setBlocked(uint8(prio), false)
		q.pop()
		p.net.qbytes[int(p.pb)+prio] -= head.Size
		p.transmit(head, true)
		return
	}
	if p.src == nil {
		return
	}
	pkt, at := p.src.Head(now)
	if pkt == nil {
		if at != units.Forever && at > now {
			p.scheduleWake(at)
		}
		return
	}
	if at > now {
		p.scheduleWake(at)
		return
	}
	prio := pkt.Priority
	if p.gate != nil && !p.gate.CanSend(prio, pkt.Size) {
		p.setBlocked(prio, true)
		return
	}
	p.setBlocked(prio, false)
	p.src.Advance()
	p.transmit(pkt, false)
}

func (p *Port) scheduleWake(at units.Time) {
	if p.wakeAt == at {
		return
	}
	p.wakeAt = at
	p.net.Sched.AtArg(at, wakeArg, p)
}

// wake runs a scheduled source wake. A wake is stale — superseded by a
// later scheduleWake or already consumed — unless it fires exactly at the
// currently armed time.
func (p *Port) wake() {
	if p.wakeAt != p.net.Sched.Now() {
		return
	}
	p.wakeAt = 0
	if !p.busy {
		p.tryTransmit()
	}
}

// transmit serializes pkt onto the wire. fromQueue distinguishes switch
// forwarding (detectors run, ingress accounting released) from host
// injection.
func (p *Port) transmit(pkt *packet.Packet, fromQueue bool) {
	now := p.net.Sched.Now()
	if fromQueue && p.node.kind == topo.Switch {
		if d := p.dets[pkt.Priority]; d != nil {
			before := pkt.Code
			qb := p.net.qbytes[int(p.pb)+int(pkt.Priority)]
			d.OnDequeue(now, pkt, qb)
			if pkt.Code != before {
				switch pkt.Code {
				case packet.CE:
					p.MarkedCE++
					p.recordMark(obs.KindMarkCE, pkt, qb)
				case packet.UE:
					p.MarkedUE++
					p.recordMark(obs.KindMarkUE, pkt, qb)
				}
			}
		}
	}
	if p.spoof != nil && pkt.Kind == packet.Data && p.spoof(pkt) {
		// A compromised sender forges a CE mark with no detector verdict
		// behind it. The mark is indistinguishable on the wire but is
		// accounted separately (SpoofedCE, not MarkedCE) so per-port
		// detector counters stay honest for the oracle.
		before := pkt.Code
		pkt.Code = pkt.Code.MarkCE()
		if pkt.Code != before {
			p.SpoofedCE++
			if r := p.net.cfg.Rec; r != nil {
				qb := p.net.qbytes[int(p.pb)+int(pkt.Priority)]
				r.Record(obs.Event{At: now, Kind: obs.KindSpoofMark, Prio: pkt.Priority,
					Port: p.Label(), Flow: int64(pkt.Flow), Val: int64(qb)})
			}
		}
	}
	if p.gate != nil {
		p.gate.OnSend(pkt.Priority, pkt.Size)
	}
	tx := units.TxTime(pkt.Size, p.Rate)
	end := now + tx
	p.busy = true
	p.busyEnd = end
	p.TxBytes += pkt.Size
	p.TxPackets++
	if pkt.Kind == packet.Data {
		p.TxDataBytes += pkt.Size
	}
	p.txPkt = pkt
	p.net.Sched.AtArg(end, txDoneArg, p)
}

// txDoneArg and wakeArg are the event callbacks every port shares: the
// port rides the event as its argument, so a port carries no callback of
// its own for either.
func txDoneArg(arg any) { arg.(*Port).txDone() }
func wakeArg(arg any)   { arg.(*Port).wake() }

// txDone completes a serialization: release ingress accounting, put the
// packet on the wire, start the next transmission.
func (p *Port) txDone() {
	pkt := p.txPkt
	p.txPkt = nil
	p.busy = false
	// The packet has fully left this node: release ingress accounting.
	if p.node.kind == topo.Switch && pkt.InPort >= 0 {
		ing := p.node.ports[pkt.InPort]
		if ing.meter != nil {
			ing.meter.OnFree(p.net.Sched.Now(), pkt)
		}
	}
	if p.down {
		// The link died during serialization: the frame is lost on the
		// wire. Ingress accounting was already released above — the
		// buffer space is free either way — so only the payload ledger
		// moves from "in network" to "destroyed by fault".
		p.dropFaulted(pkt)
		return
	}
	// Propagate to the peer: the packet rides the event as its argument
	// (several packets can be in flight on one link at once), through the
	// peer's preallocated receive callback — no per-packet closure.
	p.net.inFlightPayload += pkt.Payload
	p.net.Sched.AfterArg(p.Delay, p.Peer.receiveFn, pkt)
	p.tryTransmit()
}

// receive handles a packet arriving from the wire at this (ingress) port.
func (p *Port) receive(pkt *packet.Packet) {
	now := p.net.Sched.Now()
	if p.down {
		p.net.inFlightPayload -= pkt.Payload
		// The receiving side is dead: the frame falls off the wire before
		// any ingress accounting sees it.
		p.dropFaulted(pkt)
		return
	}
	if p.meter != nil {
		p.meter.OnArrive(now, pkt)
	}
	n := p.node
	if n.kind == topo.Host {
		p.net.inFlightPayload -= pkt.Payload
		// Hosts consume at line rate: free ingress accounting immediately.
		if p.meter != nil {
			p.meter.OnFree(now, pkt)
		}
		if p.net.Sink != nil {
			p.net.Sink(n.id, pkt)
		}
		// The packet is dead: recycle it. Sinks must copy what they need
		// before returning; the next NewPacket may reuse this struct.
		p.net.arena.Put(pkt)
		return
	}
	pkt.InPort = int32(p.Index)
	pkt.Hops++
	if pkt.Hops > maxHops {
		if p.net.faulted {
			// A hostile route rewrite can manufacture a true forwarding
			// loop; under an active fault the packet is TTL-dropped (the
			// ledger moves to faultDropPayload, conservation holds)
			// instead of crashing the run.
			p.net.inFlightPayload -= pkt.Payload
			if p.meter != nil {
				p.meter.OnFree(now, pkt)
			}
			p.dropFaulted(pkt)
			return
		}
		panic(fmt.Sprintf("fabric: routing loop: %s exceeded %d hops at %s",
			pkt, maxHops, p.net.Topo.Name(n.id)))
	}
	out := p.net.Route(n.id, pkt)
	if out == nil {
		panic(fmt.Sprintf("fabric: no route at %s for %s dst=%s",
			p.net.Topo.Name(n.id), pkt, p.net.Topo.Name(pkt.Dst)))
	}
	if out.node != n {
		panic("fabric: Route returned a port of another node")
	}
	p.net.inFlightPayload -= pkt.Payload
	out.Enqueue(pkt)
}

type node struct {
	id    packet.NodeID
	kind  topo.NodeKind
	ports []*Port
}

// Network binds a topology to the event scheduler and owns all ports.
type Network struct {
	Sched *sim.Scheduler
	Topo  *topo.Topology
	cfg   Config
	nodes []*node
	ports []*Port
	// portAt[linkIdx] = [2]*Port: side A, side B.
	portAt [][2]*Port

	// Struct-of-arrays port state, indexed by Port.pb+prio. Keeping these
	// in flat arrays owned by the Network — rather than as fields on Port
	// — turns the fabric-wide scans (Stranded, the WaitCycles node pass,
	// the invariant sweeps) into linear walks over contiguous memory.
	nPrio   int
	qbytes  []units.ByteSize // [pb+prio] egress queue bytes
	blocked []bool           // [pb+prio] gate currently refuses (OFF)
	// arena slab-allocates and recycles packets within this
	// single-threaded run: packets die at host sinks, where receive
	// returns their slots for reuse by NewPacket.
	arena packet.Arena
	// Control-frame delivery machinery: in-flight frames ride a recycled
	// ctrlInflight record through one preallocated AfterArg handler, so
	// the per-frame closure (hot on credit-based fabrics, which send one
	// update per data packet) is gone.
	ctrlDeliverFn func(any)
	ctrlFree      []*ctrlInflight

	// Payload conservation ledger (see fault.go): inFlightPayload is the
	// flow-payload volume currently on a wire or inside a switch
	// forwarding pipeline (between txDone and the next Enqueue or host
	// delivery); faultDropPayload is the volume destroyed by faults.
	inFlightPayload  units.ByteSize
	faultDropPayload units.ByteSize
	// FaultDrops counts frames destroyed by faults network-wide.
	FaultDrops uint64
	// faulted latches once any fault primitive touches the network. The
	// lossless guarantees (buffer bounds) are only promised on a fabric
	// whose links and control plane were never disturbed, so the
	// invariant checker relaxes those checks when this is set.
	faulted bool

	// Route picks the egress port for pkt at switch sw. It must be set
	// before traffic flows.
	Route func(sw packet.NodeID, pkt *packet.Packet) *Port
	// Sink receives packets arriving at hosts. It must be set before
	// traffic flows.
	Sink func(host packet.NodeID, pkt *packet.Packet)
}

// New builds the dataplane for a topology.
func New(s *sim.Scheduler, t *topo.Topology, cfg Config) *Network {
	if cfg.Priorities <= 0 {
		cfg.Priorities = 1
	}
	n := &Network{Sched: s, Topo: t, cfg: cfg}
	n.ctrlDeliverFn = func(arg any) { n.deliverCtrl(arg.(*ctrlInflight)) }
	n.nodes = make([]*node, len(t.Nodes))
	for i, tn := range t.Nodes {
		n.nodes[i] = &node{id: tn.ID, kind: tn.Kind}
	}
	np := 2 * len(t.Links)
	n.nPrio = cfg.Priorities
	n.qbytes = make([]units.ByteSize, np*cfg.Priorities)
	n.blocked = make([]bool, np*cfg.Priorities)
	n.portAt = make([][2]*Port, len(t.Links))
	// One backing array per per-priority field, subsliced per port (pb is
	// the port's offset), as qbytes and blocked already are.
	queues := make([]fifo, np*cfg.Priorities)
	rr := make([]int, np*cfg.Priorities)
	dets := make([]Detector, np*cfg.Priorities)
	// The ports themselves come from slabs too, not one allocation per
	// port (a k=16 fat-tree has 6144), in chunks that stay under the
	// allocator's 32 KB large-object limit: as one 2.4 MB object per rig
	// the slab raised ft16-ib-mpiio's peak resident set by 0.7 MB at the
	// median and 2 MB in a third of the runs; as 24 KB chunks it does not.
	const portChunk = 64
	var slab []Port
	n.ports = make([]*Port, 0, np)
	for li, l := range t.Links {
		mk := func(owner packet.NodeID) *Port {
			nd := n.nodes[owner]
			pb := len(n.ports) * cfg.Priorities
			if len(slab) == 0 {
				slab = make([]Port, min(portChunk, np-len(n.ports)))
			}
			p := &slab[0]
			slab = slab[1:]
			*p = Port{
				net:    n,
				node:   nd,
				Index:  len(nd.ports),
				Link:   li,
				Rate:   l.Rate,
				Delay:  l.Delay,
				pb:     int32(pb),
				queues: queues[pb : pb+cfg.Priorities],
				rr:     rr[pb : pb+cfg.Priorities],
				dets:   dets[pb : pb+cfg.Priorities],
			}
			p.receiveFn = func(arg any) { p.receive(arg.(*packet.Packet)) }
			nd.ports = append(nd.ports, p)
			n.ports = append(n.ports, p)
			return p
		}
		pa, pb := mk(l.A), mk(l.B)
		pa.Peer, pb.Peer = pb, pa
		n.portAt[li] = [2]*Port{pa, pb}
	}
	return n
}

// Config returns the fabric configuration.
func (n *Network) Config() Config { return n.cfg }

// NewPacket returns a zeroed packet from the run's arena. Callers
// (host NICs) fill the fields; the fabric recycles the slab slot when
// the packet dies at a host sink.
func (n *Network) NewPacket() *packet.Packet { return n.arena.Get() }

// FreePacket recycles a packet that will never enter the fabric (e.g. a
// cached NIC head that was discarded before transmission). The caller
// must drop every reference.
func (n *Network) FreePacket(pkt *packet.Packet) { n.arena.Put(pkt) }

// Ports returns all ports (both sides of every link).
func (n *Network) Ports() []*Port { return n.ports }

// NodePorts returns the ports owned by a node, in link-insertion order.
func (n *Network) NodePorts(id packet.NodeID) []*Port { return n.nodes[id].ports }

// PortOn returns the port of node `owner` on topology link `link`.
func (n *Network) PortOn(owner packet.NodeID, link int) *Port {
	pair := n.portAt[link]
	if pair[0].node.id == owner {
		return pair[0]
	}
	if pair[1].node.id == owner {
		return pair[1]
	}
	panic(fmt.Sprintf("fabric: node %s is not an endpoint of link %d", n.Topo.Name(owner), link))
}

// HostPort returns a host's single NIC port.
func (n *Network) HostPort(host packet.NodeID) *Port {
	nd := n.nodes[host]
	if nd.kind != topo.Host {
		panic("fabric: HostPort of a switch")
	}
	if len(nd.ports) != 1 {
		panic("fabric: host with multiple ports")
	}
	return nd.ports[0]
}

// PortToward returns the port of node a on the (unique) direct link to b.
func (n *Network) PortToward(a, b packet.NodeID) *Port {
	li := n.Topo.LinkBetween(a, b)
	if li < 0 {
		panic(fmt.Sprintf("fabric: no link %s-%s", n.Topo.Name(a), n.Topo.Name(b)))
	}
	return n.PortOn(a, li)
}

// StrandedReport describes traffic stuck in the network after a run: a
// lossless fabric with cyclic buffer dependencies can deadlock (the
// credit-loop problem the deadlock literature the paper cites studies),
// and a deadlocked run otherwise just looks "quiet". Call Stranded after
// the scheduler drains or a horizon expires to tell the difference.
type StrandedReport struct {
	// Ports lists ports still holding queued bytes.
	Ports []*Port
	// Bytes is the total stranded volume.
	Bytes units.ByteSize
	// Blocked counts the stranded ports whose gate currently refuses
	// transmission — all of them blocked is the deadlock signature.
	Blocked int
}

// Deadlocked reports whether every stranded port is flow-control
// blocked: no event can ever drain them.
func (r *StrandedReport) Deadlocked() bool {
	return len(r.Ports) > 0 && r.Blocked == len(r.Ports)
}

// Stranded scans all ports for undelivered queued traffic. The scan is a
// linear sweep over the flat qbytes/blocked arrays; Port pointers are
// only touched for ports that actually hold traffic.
func (n *Network) Stranded() StrandedReport {
	var rep StrandedReport
	for base := 0; base < len(n.qbytes); base += n.nPrio {
		var q units.ByteSize
		anyBlocked := false
		for k := 0; k < n.nPrio; k++ {
			q += n.qbytes[base+k]
			anyBlocked = anyBlocked || n.blocked[base+k]
		}
		if q == 0 {
			continue
		}
		rep.Ports = append(rep.Ports, n.ports[base/n.nPrio])
		rep.Bytes += q
		if anyBlocked {
			rep.Blocked++
		}
	}
	return rep
}
