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

// Gate is the upstream egress side: a per-priority pause flag.
type Gate struct {
	port   *fabric.Port
	paused []bool
	// pausedSince records when the current pause began (units.Forever
	// while unpaused) — the raw material for DCFIT-style initial-trigger
	// attribution: in a pause-wait cycle, the gate with the earliest
	// pausedSince is where the storm started.
	pausedSince []units.Time
	// Pauses counts PAUSE frames received.
	Pauses uint64
}

// CanSend implements fabric.TxGate.
func (g *Gate) CanSend(prio uint8, _ units.ByteSize) bool { return !g.paused[prio] }

// OnSend implements fabric.TxGate.
func (g *Gate) OnSend(uint8, units.ByteSize) {}

// HandleCtrl implements fabric.TxGate.
func (g *Gate) HandleCtrl(now units.Time, f fabric.CtrlFrame) {
	switch f.Kind {
	case fabric.CtrlPause:
		if !g.paused[f.Prio] {
			g.pausedSince[f.Prio] = now
		}
		g.paused[f.Prio] = true
		g.Pauses++
		if rec := g.port.Recorder(); rec != nil {
			rec.Record(obs.Event{At: now, Kind: obs.KindPauseOn, Port: g.port.Label(), Prio: f.Prio, Flow: -1})
		}
	case fabric.CtrlResume:
		if g.paused[f.Prio] {
			g.paused[f.Prio] = false
			g.pausedSince[f.Prio] = units.Forever
			if rec := g.port.Recorder(); rec != nil {
				rec.Record(obs.Event{At: now, Kind: obs.KindPauseOff, Port: g.port.Label(), Prio: f.Prio, Flow: -1})
			}
			g.port.GateChanged()
		}
	}
}

// Paused reports the pause state of one priority.
func (g *Gate) Paused(prio uint8) bool { return g.paused[prio] }

// PausedSince reports when the current pause of one priority began, or
// units.Forever if the priority is not paused.
func (g *Gate) PausedSince(prio uint8) units.Time { return g.pausedSince[prio] }

// Meter is the downstream ingress side: occupancy accounting and
// PAUSE/RESUME origination.
type Meter struct {
	port *fabric.Port
	cfg  Config
	occ  []units.ByteSize
	sent []bool // PAUSE outstanding per priority

	// MaxOcc is the maximum occupancy observed (any priority).
	MaxOcc units.ByteSize
	// PausesSent and ResumesSent count originated control frames.
	PausesSent, ResumesSent uint64
	// Violations counts arrivals beyond Xoff+Headroom (would-be drops in
	// a real switch; must stay zero for losslessness).
	Violations uint64
}

// OnArrive implements fabric.RxMeter.
func (m *Meter) OnArrive(now units.Time, pkt *packet.Packet) {
	prio := pkt.Priority
	m.occ[prio] += pkt.Size
	if m.occ[prio] > m.MaxOcc {
		m.MaxOcc = m.occ[prio]
	}
	if m.occ[prio] > m.cfg.Xoff+m.cfg.Headroom {
		m.Violations++
	}
	if m.occ[prio] > m.cfg.Xoff && !m.sent[prio] {
		m.sent[prio] = true
		m.PausesSent++
		m.port.SendCtrl(fabric.CtrlFrame{Kind: fabric.CtrlPause, Prio: prio})
	}
}

// OnFree implements fabric.RxMeter.
func (m *Meter) OnFree(now units.Time, pkt *packet.Packet) {
	prio := pkt.Priority
	m.occ[prio] -= pkt.Size
	if m.occ[prio] < 0 {
		panic("pfc: negative ingress occupancy")
	}
	if m.sent[prio] && m.occ[prio] <= m.cfg.Xon {
		m.sent[prio] = false
		m.ResumesSent++
		m.port.SendCtrl(fabric.CtrlFrame{Kind: fabric.CtrlResume, Prio: prio})
	}
}

// Occupancy reports current ingress occupancy for one priority.
func (m *Meter) Occupancy(prio uint8) units.ByteSize { return m.occ[prio] }

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
	// deadlock detector's attribution pass and the invariant sweeps walk
	// cache lines instead of one small heap object per port.
	paused := make([]bool, len(ports)*nPrio)
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
		*g = Gate{port: p, paused: paused[i*nPrio : (i+1)*nPrio], pausedSince: since[i*nPrio : (i+1)*nPrio]}
		p.AttachGate(g)
		if n.Topo.Nodes[p.Node()].Kind == topo.Switch {
			m := &meters[mi]
			*m = Meter{
				port: p,
				cfg:  cfg,
				occ:  occ[mi*nPrio : (mi+1)*nPrio],
				sent: sent[mi*nPrio : (mi+1)*nPrio],
			}
			mi++
			p.AttachMeter(m)
		}
	}
}

// Meters returns all installed PFC meters (for assertions and stats).
func Meters(n *fabric.Network) []*Meter {
	var out []*Meter
	for _, p := range n.Ports() {
		if m, ok := p.Meter().(*Meter); ok {
			out = append(out, m)
		}
	}
	return out
}
