// Package cbfc implements InfiniBand Credit-Based Flow Control.
//
// Per the InfiniBand specification (and §2.2 of the paper): the downstream
// side of a link maintains an Adjusted Blocks Received (ABR) register and
// periodically — every Tc — sends a Flow Control Credit Limit (FCCL)
// message equal to ABR plus the buffer space it can currently accept. The
// upstream side maintains a Flow Control Total Blocks Sent (FCTBS)
// register and may transmit a packet only while FCTBS + size ≤ FCCL.
//
// The *periodicity* of FCCL is what confuses FECN-based detection (§3.1)
// and what bounds the ON period of a credit-starved port to at most Tc
// (Eqn 4), which TCD exploits. Credits are accounted in bytes; the spec's
// 64-byte blocks are a granularity detail below this model's fidelity.
package cbfc

import (
	"github.com/tcdnet/tcd/internal/fabric"
	"github.com/tcdnet/tcd/internal/obs"
	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/sim"
	"github.com/tcdnet/tcd/internal/units"
)

// Config parameterizes CBFC on every link of a fabric.
type Config struct {
	// Buffer is the downstream ingress buffer per input port per virtual
	// lane. The paper uses 280 KB for its InfiniBand switches.
	Buffer units.ByteSize
	// Tc is the FCCL update period. The spec bounds it by 65536 symbol
	// times; the paper's testbed uses 60 us.
	Tc units.Time
}

// DefaultConfig returns the paper's InfiniBand parameters: 280 KB ingress
// buffers. The paper (§4.4) requires B > C·Tc for CBFC to sustain line
// rate; at 40 Gbps that caps Tc below 56 us (the spec's ceiling of 65536
// symbol times is an upper bound, not a recommendation), so the default
// update period is 40 us, leaving headroom for the control-loop delay.
func DefaultConfig() Config {
	return Config{
		Buffer: 280 * units.KB,
		Tc:     40 * units.Microsecond,
	}
}

// Gate is the upstream egress side: FCTBS plus the latest FCCL per VL.
type Gate struct {
	port  *fabric.Port
	fctbs []int64
	fccl  []int64
	// since records, per VL, when the current starvation began — the
	// first refused CanSend after credits last sufficed — and holds
	// units.Forever while they do, so exhaustion/grant events record the
	// edges and not every CanSend.
	since []units.Time
	// Updates counts FCCL messages received.
	Updates uint64
}

// CanSend implements fabric.TxGate.
func (g *Gate) CanSend(vl uint8, size units.ByteSize) bool {
	if g.fctbs[vl]+int64(size) <= g.fccl[vl] {
		return true
	}
	if g.since[vl] == units.Forever {
		g.since[vl] = g.port.Now()
		if rec := g.port.Recorder(); rec != nil {
			rec.Record(obs.Event{
				At: g.port.Now(), Kind: obs.KindCreditExhausted,
				Port: g.port.Label(), Prio: vl, Flow: -1, Val: g.Credits(vl),
			})
		}
	}
	return false
}

// OnSend implements fabric.TxGate.
func (g *Gate) OnSend(vl uint8, size units.ByteSize) {
	g.fctbs[vl] += int64(size)
}

// HandleCtrl implements fabric.TxGate.
func (g *Gate) HandleCtrl(now units.Time, f fabric.CtrlFrame) {
	if f.Kind != fabric.CtrlCredit {
		return
	}
	if f.FCCL > g.fccl[f.Prio] {
		g.fccl[f.Prio] = f.FCCL
		if g.since[f.Prio] != units.Forever {
			g.since[f.Prio] = units.Forever
			if rec := g.port.Recorder(); rec != nil {
				rec.Record(obs.Event{
					At: now, Kind: obs.KindCreditGrant,
					Port: g.port.Label(), Prio: f.Prio, Flow: -1, Val: g.Credits(f.Prio),
				})
			}
		}
		g.port.GateChanged()
	}
	g.Updates++
}

// Credits reports the currently available credit in bytes for one VL.
func (g *Gate) Credits(vl uint8) int64 { return g.fccl[vl] - g.fctbs[vl] }

// BlockedSince implements fabric.TxGate: when the current starvation of
// one VL began (as of the last refused CanSend).
func (g *Gate) BlockedSince(vl uint8) units.Time { return g.since[vl] }

// Meter is the downstream ingress side: ABR, occupancy, and the periodic
// FCCL timer. The timer quiesces while the link is idle (no occupancy and
// no arrivals since the last update): an idle FCCL always grants the full
// buffer, so silence cannot starve the upstream, and the next arrival
// re-arms the period. This keeps event queues finite on idle networks
// without changing behaviour under load.
type Meter struct {
	fabric.Ingress
	port     *fabric.Port
	cfg      Config
	abr      []int64
	reported []int64
	timer    sim.Timer // by value; Install builds the Meter in place and never copies it

	// UpdatesSent counts FCCL messages originated.
	UpdatesSent uint64
}

// OnArrive implements fabric.RxMeter. A violation is an arrival that
// overflows the buffer, which CBFC is supposed to make impossible.
func (m *Meter) OnArrive(_ units.Time, pkt *packet.Packet) {
	m.abr[pkt.Priority] += int64(pkt.Size)
	m.Arrive(pkt.Priority, pkt.Size, m.cfg.Buffer)
	if !m.timer.Armed() {
		m.timer.Arm(m.cfg.Tc)
	}
}

// OnFree implements fabric.RxMeter.
func (m *Meter) OnFree(_ units.Time, pkt *packet.Packet) { m.Free(pkt.Priority, pkt.Size) }

func (m *Meter) sendUpdate() {
	active := false
	for vl := range m.abr {
		occ := m.Occupancy(uint8(vl))
		if occ > 0 || m.abr[vl] != m.reported[vl] {
			active = true
		}
		free := m.cfg.Buffer - occ
		if free < 0 {
			free = 0
		}
		m.port.SendCtrl(fabric.CtrlFrame{
			Kind: fabric.CtrlCredit,
			Prio: uint8(vl),
			FCCL: m.abr[vl] + int64(free),
		})
		m.reported[vl] = m.abr[vl]
	}
	m.UpdatesSent++
	if active {
		m.timer.Arm(m.cfg.Tc)
	}
}

// Install attaches CBFC to every link: a Gate on every egress port and a
// Meter on every ingress port — including host NICs, which must grant
// credits for the fabric to send to them at all. Host ingress occupancy
// returns to zero immediately (hosts consume at line rate), so receivers
// effectively always grant a full buffer.
//
// Every gate starts with one buffer's worth of credit, as negotiated at
// link initialization in the spec.
func Install(n *fabric.Network, cfg Config) {
	nPrio := n.Config().Priorities
	ports := n.Ports()
	// One backing array per field, subsliced per gate/meter, so the whole
	// fabric's credit state is contiguous — the wait detector's
	// attribution pass and invariant sweeps walk arrays, not a heap
	// object per port.
	np := len(ports) * nPrio
	fctbs, fccl := make([]int64, np), make([]int64, np)
	since := make([]units.Time, np)
	abr, reported := make([]int64, np), make([]int64, np)
	occ := make([]units.ByteSize, np)
	for i := range fccl {
		fccl[i] = int64(cfg.Buffer)
		since[i] = units.Forever
	}
	// Gates and meters come from one slice each for the same reason.
	gates, meters := make([]Gate, len(ports)), make([]Meter, len(ports))
	for i, p := range ports {
		lo, hi := i*nPrio, (i+1)*nPrio
		g := &gates[i]
		*g = Gate{port: p, fctbs: fctbs[lo:hi], fccl: fccl[lo:hi], since: since[lo:hi]}
		p.AttachGate(g)
		m := &meters[i]
		*m = Meter{
			Ingress:  fabric.NewIngress(occ[lo:hi]),
			port:     p,
			cfg:      cfg,
			abr:      abr[lo:hi],
			reported: reported[lo:hi],
		}
		m.timer.Init(n.Sched, m.sendUpdate)
		p.AttachMeter(m)
		m.timer.Arm(cfg.Tc)
	}
}
