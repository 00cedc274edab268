// Package host models the endpoints: NIC packet scheduling with per-flow
// rate pacing, message framing, and the receiver side (FCT recording,
// ACK/CNP generation — the DCQCN notification point and the InfiniBand
// destination channel adapter).
//
// A host's NIC is a pull source for its fabric port: packets are created
// when the port is ready to serialize them, so paced traffic does not
// accumulate in a standing NIC queue. During a PAUSE (or credit
// starvation) pacing debt builds up; on release the NIC drains the debt at
// line rate — producing the ON-OFF pattern the paper observes at port P0.
package host

import (
	"fmt"

	"github.com/tcdnet/tcd/internal/fabric"
	"github.com/tcdnet/tcd/internal/obs"
	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

// SentObserver is an optional RateController extension: controllers that
// maintain a transmitted-byte counter (DCQCN's rate-increase byte stage)
// receive a callback for every packet the NIC serializes.
type SentObserver interface {
	OnSent(now units.Time, wireBytes units.ByteSize)
}

// RateController is the per-flow congestion-control state machine at the
// sender (the DCQCN reaction point, the TIMELY engine, or the IB CC
// channel adapter). Implementations live in package cc.
type RateController interface {
	// CurrentRate reports the rate to pace the next packet at.
	CurrentRate() units.Rate
	// OnNotify handles a congestion notification packet for this flow;
	// ce and ue echo the TCD code point observed at the receiver.
	OnNotify(now units.Time, ce, ue bool)
	// OnAck handles an acknowledgement carrying a completed RTT sample
	// and the echoed marks of the acknowledged data packet.
	OnAck(now units.Time, rtt units.Time, ce, ue bool)
}

// Config parameterizes all endpoints of a network.
type Config struct {
	// MTU is the data payload bytes per packet (1000 B in the paper).
	MTU units.ByteSize
	// AckEveryPacket makes receivers acknowledge every data packet
	// (needed by TIMELY for RTT samples). ACKs echo the data packet's
	// code point.
	AckEveryPacket bool
	// CNPWindow rate-limits congestion notification packets: at most one
	// CE-echo CNP (and one UE-echo CNP) per flow per window. DCQCN uses
	// 50 us.
	CNPWindow units.Time
	// PaceBurst bounds how much pacing debt a flow may carry through a
	// pause; the NIC never bursts more than this beyond the paced
	// schedule. Two MTUs models a hardware rate limiter's bucket.
	PaceBurst units.ByteSize
}

// DefaultConfig returns the paper's endpoint parameters.
func DefaultConfig() Config {
	return Config{
		MTU:       1000,
		CNPWindow: 50 * units.Microsecond,
		PaceBurst: 2 * 1000,
	}
}

// Flow is one message in flight between two hosts, with its measured
// completion statistics.
type Flow struct {
	ID    packet.FlowID
	Src   packet.NodeID
	Dst   packet.NodeID
	Size  units.ByteSize
	Start units.Time
	Ctrl  RateController
	// Priority is the PFC priority / IB virtual lane the flow's packets
	// (and their ACKs/CNPs) travel on.
	Priority uint8

	Done   bool
	FCT    units.Time // completion latency (valid when Done)
	mgr    *Manager
	sender *senderFlow
}

// The receiver-side per-packet observations live in struct-of-arrays
// slices on the Manager (indexed by the dense FlowID), not on Flow: the
// sink hot path updates four counters per delivered packet, and the
// conservation-invariant scan sums them across every flow — both walk
// contiguous arrays instead of chasing a pointer per flow.

// BytesRxed reports the payload volume delivered to the receiver.
func (f *Flow) BytesRxed() units.ByteSize { return f.mgr.rxBytes[f.ID] }

// PktsRxed reports the number of data packets delivered.
func (f *Flow) PktsRxed() int { return int(f.mgr.rxPkts[f.ID]) }

// CEPackets reports the data packets received carrying CE.
func (f *Flow) CEPackets() int { return int(f.mgr.cePkts[f.ID]) }

// UEPackets reports the data packets received carrying UE.
func (f *Flow) UEPackets() int { return int(f.mgr.uePkts[f.ID]) }

// FirstByteAt reports when the receiver saw the flow's first packet
// (zero if nothing arrived yet) — the time-to-first-byte metric.
func (f *Flow) FirstByteAt() units.Time { return f.mgr.firstRx[f.ID] }

// BytesSent reports the payload volume the sender's NIC has serialized
// onto the wire so far (0 before the flow activates). Every byte it
// counts is in the network or beyond: delivered, queued, in flight, or
// destroyed by an injected fault — the injected side of the
// conservation invariant.
func (f *Flow) BytesSent() units.ByteSize {
	if f.sender == nil {
		return 0
	}
	return f.Size - f.sender.remaining
}

// Slowdown reports FCT relative to the given ideal baseline.
func (f *Flow) Slowdown(baseline units.Time) float64 {
	if !f.Done || baseline <= 0 {
		return 0
	}
	return float64(f.FCT) / float64(baseline)
}

// senderFlow is the NIC-side view of a flow.
type senderFlow struct {
	flow      *Flow
	remaining units.ByteSize
	seq       int32
	nextAt    units.Time
}

// Endpoint is one host's NIC: sender flows plus a control-packet queue.
type Endpoint struct {
	mgr  *Manager
	id   packet.NodeID
	port *fabric.Port

	active []*senderFlow
	ctrlQ  []*packet.Packet

	// cached head packet so repeated Head calls return one identity.
	headPkt  *packet.Packet
	headFlow *senderFlow

	// activateFn is the preallocated flow-activation event callback:
	// AddFlow schedules it with the flow as the event argument, so
	// registering many flows (fat-tree workloads) mints no closures.
	activateFn func(any)
}

// Manager owns all endpoints and flows of one simulation.
type Manager struct {
	net *fabric.Network
	cfg Config

	// endpoints is indexed by NodeID (dense by construction in topo);
	// switch entries are nil. A slice lookup on the per-packet sink path
	// beats a map probe.
	endpoints []*Endpoint
	flows     []*Flow
	nextID    packet.FlowID

	// Struct-of-arrays receiver-side flow state, indexed by FlowID (dense
	// by construction: AddFlow assigns sequential IDs).
	rxBytes   []units.ByteSize
	rxPkts    []int32
	cePkts    []int32
	uePkts    []int32
	firstRx   []units.Time
	lastCNPce []units.Time
	lastCNPue []units.Time

	// OnDone, if set, is called when a flow's last data byte arrives.
	OnDone func(*Flow)
	// Rec, if non-nil, receives CNP-emission and flow-completion events,
	// and is handed to rate controllers implementing obs.FlowTracer.
	// Set it before the first AddFlow.
	Rec obs.Recorder
}

// Install creates an endpoint on every host and wires the network sink.
func Install(n *fabric.Network, cfg Config) *Manager {
	if cfg.MTU <= 0 {
		cfg.MTU = 1000
	}
	m := &Manager{net: n, cfg: cfg, endpoints: make([]*Endpoint, len(n.Topo.Nodes))}
	for _, nd := range n.Topo.Nodes {
		if nd.Kind != topo.Host {
			continue
		}
		ep := &Endpoint{mgr: m, id: nd.ID, port: n.HostPort(nd.ID)}
		ep.activateFn = func(arg any) { ep.activate(arg.(*Flow)) }
		ep.port.AttachSource(ep)
		m.endpoints[nd.ID] = ep
	}
	n.Sink = m.sink
	return m
}

// Config returns the endpoint configuration.
func (m *Manager) Config() Config { return m.cfg }

// Flows returns all flows registered so far.
func (m *Manager) Flows() []*Flow { return m.flows }

// Endpoint returns the endpoint of a host (nil for switches and unknown
// nodes).
func (m *Manager) Endpoint(h packet.NodeID) *Endpoint {
	if int(h) >= len(m.endpoints) || h < 0 {
		return nil
	}
	return m.endpoints[h]
}

// SetPriority assigns the flow's PFC priority / virtual lane. It must be
// called before the flow starts sending.
func (m *Manager) SetPriority(f *Flow, prio uint8) { f.Priority = prio }

// AddFlow registers a flow of size bytes from src to dst starting at
// start, paced by ctrl. It returns the Flow for later inspection.
func (m *Manager) AddFlow(src, dst packet.NodeID, size units.ByteSize, start units.Time, ctrl RateController) *Flow {
	ep := m.Endpoint(src)
	if ep == nil {
		panic(fmt.Sprintf("host: AddFlow from non-host %d", src))
	}
	if m.Endpoint(dst) == nil {
		panic(fmt.Sprintf("host: AddFlow to non-host %d", dst))
	}
	if size <= 0 {
		panic("host: AddFlow with non-positive size")
	}
	f := &Flow{ID: m.nextID, Src: src, Dst: dst, Size: size, Start: start, Ctrl: ctrl, mgr: m}
	m.nextID++
	m.flows = append(m.flows, f)
	m.rxBytes = append(m.rxBytes, 0)
	m.rxPkts = append(m.rxPkts, 0)
	m.cePkts = append(m.cePkts, 0)
	m.uePkts = append(m.uePkts, 0)
	m.firstRx = append(m.firstRx, 0)
	m.lastCNPce = append(m.lastCNPce, 0)
	m.lastCNPue = append(m.lastCNPue, 0)
	if ft, ok := ctrl.(obs.FlowTracer); ok && m.Rec != nil {
		ft.SetTrace(m.Rec, int64(f.ID))
	}
	m.net.Sched.AtArg(start, ep.activateFn, f)
	return f
}

func (ep *Endpoint) activate(f *Flow) {
	sf := &senderFlow{flow: f, remaining: f.Size, nextAt: ep.mgr.net.Sched.Now()}
	f.sender = sf
	ep.active = append(ep.active, sf)
	ep.port.Kick()
}

// Head implements fabric.Source.
func (ep *Endpoint) Head(now units.Time) (*packet.Packet, units.Time) {
	// Control packets (ACKs, CNPs) go first; they are tiny and latency
	// sensitive.
	if len(ep.ctrlQ) > 0 {
		return ep.ctrlQ[0], now
	}
	var best *senderFlow
	for _, sf := range ep.active {
		if best == nil || sf.nextAt < best.nextAt ||
			(sf.nextAt == best.nextAt && sf.flow.ID < best.flow.ID) {
			best = sf
		}
	}
	if best == nil {
		ep.dropHead()
		return nil, units.Forever
	}
	if best.nextAt > now {
		ep.dropHead()
		return nil, best.nextAt
	}
	if ep.headFlow != best || ep.headPkt == nil {
		ep.dropHead()
		ep.headPkt = ep.buildData(best)
		ep.headFlow = best
	}
	return ep.headPkt, best.nextAt
}

// dropHead discards the cached head packet, recycling it — it was never
// transmitted, so nothing else references it.
func (ep *Endpoint) dropHead() {
	if ep.headPkt != nil {
		ep.mgr.net.FreePacket(ep.headPkt)
	}
	ep.headPkt, ep.headFlow = nil, nil
}

func (ep *Endpoint) buildData(sf *senderFlow) *packet.Packet {
	payload := ep.mgr.cfg.MTU
	if sf.remaining < payload {
		payload = sf.remaining
	}
	pkt := ep.mgr.net.NewPacket()
	pkt.Flow = sf.flow.ID
	pkt.Src = ep.id
	pkt.Dst = sf.flow.Dst
	pkt.Kind = packet.Data
	pkt.Size = payload + packet.HeaderBytes
	pkt.Payload = payload
	pkt.Seq = sf.seq
	pkt.Last = payload == sf.remaining
	pkt.Priority = sf.flow.Priority
	pkt.Code = packet.Capable
	pkt.InPort = -1
	return pkt
}

// Advance implements fabric.Source.
func (ep *Endpoint) Advance() {
	now := ep.mgr.net.Sched.Now()
	if len(ep.ctrlQ) > 0 {
		ep.ctrlQ = ep.ctrlQ[1:]
		return
	}
	sf := ep.headFlow
	if sf == nil || ep.headPkt == nil {
		panic("host: Advance without Head")
	}
	pkt := ep.headPkt
	pkt.SentAt = now
	ep.headPkt, ep.headFlow = nil, nil

	sf.remaining -= pkt.Payload
	sf.seq++
	if obs, ok := sf.flow.Ctrl.(SentObserver); ok {
		obs.OnSent(now, pkt.Size)
	}
	// Token-bucket pacing with bounded debt carry-over.
	rate := sf.flow.Ctrl.CurrentRate()
	burst := units.TxTime(ep.mgr.cfg.PaceBurst, ep.port.Rate)
	floor := now - burst
	if sf.nextAt < floor {
		sf.nextAt = floor
	}
	sf.nextAt += units.TxTime(pkt.Size, rate)
	if sf.remaining <= 0 {
		ep.removeActive(sf)
	}
}

func (ep *Endpoint) removeActive(sf *senderFlow) {
	for i, v := range ep.active {
		if v == sf {
			ep.active = append(ep.active[:i], ep.active[i+1:]...)
			return
		}
	}
}

// pushCtrl queues a control packet and wakes the NIC.
func (ep *Endpoint) pushCtrl(p *packet.Packet) {
	ep.ctrlQ = append(ep.ctrlQ, p)
	// A newly queued control packet preempts a cached data head.
	ep.dropHead()
	ep.port.Kick()
}

// sink dispatches packets arriving at hosts.
func (m *Manager) sink(h packet.NodeID, pkt *packet.Packet) {
	ep := m.endpoints[h]
	now := m.net.Sched.Now()
	f := m.flows[pkt.Flow]
	switch pkt.Kind {
	case packet.Data:
		m.onData(ep, f, pkt, now)
	case packet.Ack:
		f.Ctrl.OnAck(now, now-pkt.SentAt, pkt.EchoCE, pkt.EchoUE)
	case packet.CNP:
		f.Ctrl.OnNotify(now, pkt.EchoCE, pkt.EchoUE)
	}
}

func (m *Manager) onData(ep *Endpoint, f *Flow, pkt *packet.Packet, now units.Time) {
	id := f.ID
	if m.rxPkts[id] == 0 {
		m.firstRx[id] = now
	}
	m.rxBytes[id] += pkt.Payload
	m.rxPkts[id]++
	ce := pkt.Code == packet.CE
	ue := pkt.Code == packet.UE
	if ce {
		m.cePkts[id]++
	}
	if ue {
		m.uePkts[id]++
	}
	if pkt.Last && !f.Done {
		f.Done = true
		f.FCT = now - f.Start
		if m.Rec != nil {
			m.Rec.Record(obs.Event{At: now, Kind: obs.KindFlowDone, Prio: f.Priority, Flow: int64(f.ID), Val: int64(f.FCT)})
		}
		if m.OnDone != nil {
			m.OnDone(f)
		}
	}
	if m.cfg.AckEveryPacket {
		ack := m.net.NewPacket()
		ack.Flow = f.ID
		ack.Src = ep.id
		ack.Dst = f.Src
		ack.Kind = packet.Ack
		ack.Size = packet.AckBytes
		ack.Priority = f.Priority
		ack.Code = packet.Capable
		ack.EchoCE = ce
		ack.EchoUE = ue
		ack.SentAt = pkt.SentAt // echo for RTT measurement
		ack.InPort = -1
		ep.pushCtrl(ack)
	}
	// Congestion notification point: echo CE (and UE, for TCD-aware
	// transports) back to the reaction point, rate-limited per flow.
	if ce && (m.lastCNPce[id] == 0 || now-m.lastCNPce[id] >= m.cfg.CNPWindow) {
		m.lastCNPce[id] = now
		ep.pushCtrl(m.cnp(ep.id, f, true, false))
		m.recordCNP(now, f, 1)
	}
	if ue && (m.lastCNPue[id] == 0 || now-m.lastCNPue[id] >= m.cfg.CNPWindow) {
		m.lastCNPue[id] = now
		ep.pushCtrl(m.cnp(ep.id, f, false, true))
		m.recordCNP(now, f, 2)
	}
}

// TotalRxed sums delivered payload across every flow in one sweep over
// the receiver-side byte ledger — the "delivered" term of the
// conservation invariant.
func (m *Manager) TotalRxed() units.ByteSize {
	var t units.ByteSize
	for _, b := range m.rxBytes {
		t += b
	}
	return t
}

// AdjustRx moves a flow's delivered-byte ledger by delta without a
// packet. It exists solely as a test hook for the conservation checker's
// self-test (forging a leak); simulation code must never call it.
func (m *Manager) AdjustRx(f *Flow, delta units.ByteSize) { m.rxBytes[f.ID] += delta }

// StandaloneFlow returns a Flow detached from any simulation with forged
// receiver counters — only for unit tests of metric helpers that take a
// *Flow. Flows in a simulation always come from AddFlow.
func StandaloneFlow(pkts, ce, ue int) *Flow {
	m := &Manager{
		rxBytes: []units.ByteSize{0},
		rxPkts:  []int32{int32(pkts)},
		cePkts:  []int32{int32(ce)},
		uePkts:  []int32{int32(ue)},
		firstRx: []units.Time{0},
	}
	return &Flow{mgr: m}
}

// recordCNP emits a CNP event (echo: 1 = CE, 2 = UE).
func (m *Manager) recordCNP(now units.Time, f *Flow, echo int64) {
	if m.Rec != nil {
		m.Rec.Record(obs.Event{At: now, Kind: obs.KindCNP, Prio: f.Priority, Flow: int64(f.ID), Val: echo})
	}
}

func (m *Manager) cnp(from packet.NodeID, f *Flow, ce, ue bool) *packet.Packet {
	pkt := m.net.NewPacket()
	pkt.Flow = f.ID
	pkt.Src = from
	pkt.Dst = f.Src
	pkt.Kind = packet.CNP
	pkt.Size = packet.CNPBytes
	pkt.Priority = f.Priority
	pkt.Code = packet.Capable
	pkt.EchoCE = ce
	pkt.EchoUE = ue
	pkt.InPort = -1
	return pkt
}

// IdealFCT reports the store-and-forward baseline completion time for a
// flow of size bytes over a path of hops links at the given rate and
// per-link propagation delay: full-size serialization at each hop for the
// pipeline head plus the message serialization at the bottleneck.
func IdealFCT(size units.ByteSize, mtu units.ByteSize, rate units.Rate, hops int, delay units.Time) units.Time {
	if hops < 1 {
		hops = 1
	}
	npkt := (size + mtu - 1) / mtu
	lastPkt := size - (npkt-1)*mtu
	wire := size + units.ByteSize(npkt)*packet.HeaderBytes
	t := units.TxTime(wire, rate) // message serialization at the first hop
	// Remaining hops add pipeline latency of the last packet plus
	// propagation on every link.
	t += units.Time(hops-1) * units.TxTime(lastPkt+packet.HeaderBytes, rate)
	t += units.Time(hops) * delay
	return t
}

// FixedRate is a RateController that ignores all feedback and paces at a
// constant rate — used for the paper's constant-rate flows (F0, F2) and
// for sub-BDP bursts that end-to-end congestion control cannot regulate.
type FixedRate units.Rate

// CurrentRate implements RateController.
func (r FixedRate) CurrentRate() units.Rate { return units.Rate(r) }

// OnNotify implements RateController.
func (FixedRate) OnNotify(units.Time, bool, bool) {}

// OnAck implements RateController.
func (FixedRate) OnAck(units.Time, units.Time, bool, bool) {}
