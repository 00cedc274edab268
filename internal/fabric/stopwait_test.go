package fabric_test

import (
	"github.com/tcdnet/tcd/internal/fabric"
	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/units"
)

// Stop-and-wait: a third hop-by-hop control law the skeleton has never
// seen, written against fabric.TxGate / fabric.RxMeter alone. A gate sends
// one packet per priority and then refuses until the downstream meter
// acknowledges that the packet left the downstream node (a CtrlResume
// frame stands in for the ACK); the meter's bound is therefore one packet.
// It is what a new fabric costs: a control law, nothing else.

type swGate struct {
	port *fabric.Port
	// since is when the unacknowledged packet was sent, units.Forever
	// while nothing is outstanding.
	since []units.Time
}

func (g *swGate) CanSend(prio uint8, _ units.ByteSize) bool { return g.since[prio] == units.Forever }
func (g *swGate) OnSend(prio uint8, _ units.ByteSize)       { g.since[prio] = g.port.Now() }
func (g *swGate) BlockedSince(prio uint8) units.Time        { return g.since[prio] }
func (g *swGate) HandleCtrl(_ units.Time, f fabric.CtrlFrame) {
	g.since[f.Prio] = units.Forever
	g.port.GateChanged()
}

type swMeter struct {
	fabric.Ingress
	port *fabric.Port
	occ  []units.ByteSize
	acks uint64
}

func (m *swMeter) Occupancy(prio uint8) units.ByteSize { return m.occ[prio] }

func (m *swMeter) OnArrive(_ units.Time, pkt *packet.Packet) {
	m.Arrive(&m.occ[pkt.Priority], pkt.Size, pkt.Size)
}

func (m *swMeter) OnFree(_ units.Time, pkt *packet.Packet) {
	m.Free(&m.occ[pkt.Priority], pkt.Size)
	m.acks++
	m.port.SendCtrl(fabric.CtrlFrame{Kind: fabric.CtrlResume, Prio: pkt.Priority})
}

// installStopWait puts a gate and a meter on every port, hosts included:
// a receiver must acknowledge for the fabric to send to it at all.
func installStopWait(n *fabric.Network) {
	nPrio := n.Config().Priorities
	for _, p := range n.Ports() {
		since := make([]units.Time, nPrio)
		for i := range since {
			since[i] = units.Forever
		}
		p.AttachGate(&swGate{port: p, since: since})
		p.AttachMeter(&swMeter{port: p, occ: make([]units.ByteSize, nPrio)})
	}
}
