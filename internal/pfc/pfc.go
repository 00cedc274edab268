// Package pfc implements Priority Flow Control (IEEE 802.1Qbb), the
// hop-by-hop flow control of Converged Enhanced Ethernet.
//
// The downstream side of every link meters the buffer occupancy
// attributable to that ingress port (per priority). When it exceeds Xoff
// a PAUSE frame is sent to the upstream egress; when it falls back to Xon
// a RESUME follows. The upstream egress gate simply refuses to transmit a
// paused priority. The paper's recommended Xoff−Xon gap is 2 MTU.
package pfc

import (
	"github.com/tcdnet/tcd/internal/fabric"
	"github.com/tcdnet/tcd/internal/obs"
	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

// Config parameterizes PFC on every link of a fabric.
type Config struct {
	// Xoff is the ingress occupancy (per input port, per priority) above
	// which PAUSE is sent. The paper uses 320 KB.
	Xoff units.ByteSize
	// Xon is the occupancy at which RESUME is sent. The paper uses
	// Xoff − 2 MTU.
	Xon units.ByteSize
	// Headroom is the extra physical buffer beyond Xoff that absorbs
	// in-flight traffic during the control-loop delay. Occupancy beyond
	// Xoff+Headroom is a losslessness violation and is counted.
	Headroom units.ByteSize
}

// DefaultConfig returns the paper's §3.1 CEE parameters for 40 Gbps links
// with 1000-byte MTU.
func DefaultConfig() Config {
	return Config{
		Xoff:     320 * units.KB,
		Xon:      318 * units.KB,
		Headroom: 100 * units.KB,
	}
}

// Gate is the upstream egress side: per priority, when the current pause
// began.
type Gate struct {
	s *state
	// id is the port's index in Network.Ports(), pb its base in the
	// per-priority arrays.
	id, pb int32
	// Pauses counts PAUSE frames received.
	Pauses uint64
}

// state is what every gate and meter of one Install shares: the
// configuration, and the per-priority state of the whole fabric in one
// array per field, indexed by port id × priorities + priority. The wait
// detector's attribution pass and the invariant sweeps walk these arrays
// instead of one small heap object per port.
type state struct {
	ports []*fabric.Port
	cfg   Config
	// since holds units.Forever while the priority is not paused.
	since []units.Time
	// occ is the ingress occupancy a meter accounts, sent says it holds
	// PAUSE outstanding.
	occ  []units.ByteSize
	sent []bool
}

// CanSend implements fabric.TxGate.
func (g *Gate) CanSend(prio uint8, _ units.ByteSize) bool {
	return g.s.since[int(g.pb)+int(prio)] == units.Forever
}

// OnSend implements fabric.TxGate.
func (g *Gate) OnSend(uint8, units.ByteSize) {}

// HandleCtrl implements fabric.TxGate. Events record the edges of the
// paused state, not every frame: a repeated PAUSE only counts.
func (g *Gate) HandleCtrl(now units.Time, f fabric.CtrlFrame) {
	since := &g.s.since[int(g.pb)+int(f.Prio)]
	switch f.Kind {
	case fabric.CtrlPause:
		g.Pauses++
		if *since == units.Forever {
			*since = now
			p := g.s.ports[g.id]
			if rec := p.Recorder(); rec != nil {
				rec.Record(obs.Event{At: now, Kind: obs.KindPauseOn, Port: p.Label(), Prio: f.Prio, Flow: -1})
			}
		}
	case fabric.CtrlResume:
		if *since != units.Forever {
			*since = units.Forever
			p := g.s.ports[g.id]
			if rec := p.Recorder(); rec != nil {
				rec.Record(obs.Event{At: now, Kind: obs.KindPauseOff, Port: p.Label(), Prio: f.Prio, Flow: -1})
			}
			p.GateChanged()
		}
	}
}

// BlockedSince implements fabric.TxGate: when the current pause of one
// priority began.
func (g *Gate) BlockedSince(prio uint8) units.Time { return g.s.since[int(g.pb)+int(prio)] }

// Meter is the downstream ingress side: PAUSE/RESUME origination over
// the fabric.Ingress ledger. A violation is an arrival beyond
// Xoff+Headroom.
type Meter struct {
	fabric.Ingress
	s      *state
	id, pb int32 // as in Gate

	// PausesSent and ResumesSent count originated control frames.
	PausesSent, ResumesSent uint64
}

// OnArrive implements fabric.RxMeter.
func (m *Meter) OnArrive(now units.Time, pkt *packet.Packet) {
	prio := pkt.Priority
	s, i := m.s, int(m.pb)+int(prio)
	occ := m.Arrive(&s.occ[i], pkt.Size, s.cfg.Xoff+s.cfg.Headroom)
	if occ > s.cfg.Xoff && !s.sent[i] {
		s.sent[i] = true
		m.PausesSent++
		s.ports[m.id].SendCtrl(fabric.CtrlFrame{Kind: fabric.CtrlPause, Prio: prio})
	}
}

// OnFree implements fabric.RxMeter.
func (m *Meter) OnFree(now units.Time, pkt *packet.Packet) {
	prio := pkt.Priority
	s, i := m.s, int(m.pb)+int(prio)
	occ := m.Free(&s.occ[i], pkt.Size)
	if s.sent[i] && occ <= s.cfg.Xon {
		s.sent[i] = false
		m.ResumesSent++
		s.ports[m.id].SendCtrl(fabric.CtrlFrame{Kind: fabric.CtrlResume, Prio: prio})
	}
}

// Occupancy implements fabric.RxMeter.
func (m *Meter) Occupancy(prio uint8) units.ByteSize { return m.s.occ[int(m.pb)+int(prio)] }

// PauseOutstanding reports whether this meter holds an un-resumed PAUSE
// for one priority. The meter keeps PAUSE outstanding exactly while
// occupancy sits above Xon — OnFree resumes the moment it drains — so
// (outstanding && occupancy <= Xon) is the Xoff-without-eventual-Xon
// violation the invariant checker looks for.
func (m *Meter) PauseOutstanding(prio uint8) bool { return m.s.sent[int(m.pb)+int(prio)] }

// Install attaches PFC to every link: a Gate on every egress port and a
// Meter on every switch ingress port. Hosts receive no meter (receivers
// consume at line rate and never pause the fabric), but host egress ports
// are pausable — congestion spreading reaches the NICs, as at port P0 in
// the paper.
func Install(n *fabric.Network, cfg Config) {
	ports := n.Ports()
	nPrio := n.Config().Priorities
	np := len(ports) * nPrio
	s := &state{
		ports: ports, cfg: cfg,
		since: make([]units.Time, np),
		occ:   make([]units.ByteSize, np),
		sent:  make([]bool, np),
	}
	for i := range s.since {
		s.since[i] = units.Forever
	}
	nSw := 0
	for _, p := range ports {
		if n.Topo.Nodes[p.Node()].Kind == topo.Switch {
			nSw++
		}
	}
	// Gates and meters come from one slice each, not a heap object per
	// port.
	gates, meters := make([]Gate, len(ports)), make([]Meter, nSw)
	mi := 0
	for i, p := range ports {
		id, pb := int32(i), int32(i*nPrio)
		gates[i] = Gate{s: s, id: id, pb: pb}
		p.AttachGate(&gates[i])
		if n.Topo.Nodes[p.Node()].Kind == topo.Switch {
			meters[mi] = Meter{s: s, id: id, pb: pb}
			p.AttachMeter(&meters[mi])
			mi++
		}
	}
}
