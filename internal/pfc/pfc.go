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
	port *fabric.Port
	// since holds units.Forever while the priority is not paused.
	since []units.Time
	// Pauses counts PAUSE frames received.
	Pauses uint64
}

// CanSend implements fabric.TxGate.
func (g *Gate) CanSend(prio uint8, _ units.ByteSize) bool { return g.since[prio] == units.Forever }

// OnSend implements fabric.TxGate.
func (g *Gate) OnSend(uint8, units.ByteSize) {}

// HandleCtrl implements fabric.TxGate. Events record the edges of the
// paused state, not every frame: a repeated PAUSE only counts.
func (g *Gate) HandleCtrl(now units.Time, f fabric.CtrlFrame) {
	switch f.Kind {
	case fabric.CtrlPause:
		g.Pauses++
		if g.since[f.Prio] == units.Forever {
			g.since[f.Prio] = now
			if rec := g.port.Recorder(); rec != nil {
				rec.Record(obs.Event{At: now, Kind: obs.KindPauseOn, Port: g.port.Label(), Prio: f.Prio, Flow: -1})
			}
		}
	case fabric.CtrlResume:
		if g.since[f.Prio] != units.Forever {
			g.since[f.Prio] = units.Forever
			if rec := g.port.Recorder(); rec != nil {
				rec.Record(obs.Event{At: now, Kind: obs.KindPauseOff, Port: g.port.Label(), Prio: f.Prio, Flow: -1})
			}
			g.port.GateChanged()
		}
	}
}

// BlockedSince implements fabric.TxGate: when the current pause of one
// priority began.
func (g *Gate) BlockedSince(prio uint8) units.Time { return g.since[prio] }

// Meter is the downstream ingress side: PAUSE/RESUME origination over
// the fabric.Ingress ledger. A violation is an arrival beyond
// Xoff+Headroom.
type Meter struct {
	fabric.Ingress
	port *fabric.Port
	cfg  Config
	sent []bool // PAUSE outstanding per priority

	// PausesSent and ResumesSent count originated control frames.
	PausesSent, ResumesSent uint64
}

// OnArrive implements fabric.RxMeter.
func (m *Meter) OnArrive(now units.Time, pkt *packet.Packet) {
	prio := pkt.Priority
	occ := m.Arrive(prio, pkt.Size, m.cfg.Xoff+m.cfg.Headroom)
	if occ > m.cfg.Xoff && !m.sent[prio] {
		m.sent[prio] = true
		m.PausesSent++
		m.port.SendCtrl(fabric.CtrlFrame{Kind: fabric.CtrlPause, Prio: prio})
	}
}

// OnFree implements fabric.RxMeter.
func (m *Meter) OnFree(now units.Time, pkt *packet.Packet) {
	prio := pkt.Priority
	occ := m.Free(prio, pkt.Size)
	if m.sent[prio] && occ <= m.cfg.Xon {
		m.sent[prio] = false
		m.ResumesSent++
		m.port.SendCtrl(fabric.CtrlFrame{Kind: fabric.CtrlResume, Prio: prio})
	}
}

// PauseOutstanding reports whether this meter holds an un-resumed PAUSE
// for one priority. The meter keeps PAUSE outstanding exactly while
// occupancy sits above Xon — OnFree resumes the moment it drains — so
// (outstanding && occupancy <= Xon) is the Xoff-without-eventual-Xon
// violation the invariant checker looks for.
func (m *Meter) PauseOutstanding(prio uint8) bool { return m.sent[prio] }

// Install attaches PFC to every link: a Gate on every egress port and a
// Meter on every switch ingress port. Hosts receive no meter (receivers
// consume at line rate and never pause the fabric), but host egress ports
// are pausable — congestion spreading reaches the NICs, as at port P0 in
// the paper.
func Install(n *fabric.Network, cfg Config) {
	nPrio := n.Config().Priorities
	ports := n.Ports()
	// One backing array per field, subsliced per gate/meter: the pause
	// and occupancy state of the whole fabric stays contiguous, so the
	// wait detector's attribution pass and the invariant sweeps walk
	// cache lines instead of one small heap object per port.
	since := make([]units.Time, len(ports)*nPrio)
	for i := range since {
		since[i] = units.Forever
	}
	nSw := 0
	for _, p := range ports {
		if n.Topo.Nodes[p.Node()].Kind == topo.Switch {
			nSw++
		}
	}
	occ := make([]units.ByteSize, nSw*nPrio)
	sent := make([]bool, nSw*nPrio)
	// Gates and meters come from one slice each for the same reason.
	gates, meters := make([]Gate, len(ports)), make([]Meter, nSw)
	mi := 0
	for i, p := range ports {
		g := &gates[i]
		*g = Gate{port: p, since: since[i*nPrio : (i+1)*nPrio]}
		p.AttachGate(g)
		if n.Topo.Nodes[p.Node()].Kind == topo.Switch {
			m := &meters[mi]
			*m = Meter{
				Ingress: fabric.NewIngress(occ[mi*nPrio : (mi+1)*nPrio]),
				port:    p,
				cfg:     cfg,
				sent:    sent[mi*nPrio : (mi+1)*nPrio],
			}
			mi++
			p.AttachMeter(m)
		}
	}
}
