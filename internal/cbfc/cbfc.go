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
	s *state
	// id is the port's index in Network.Ports(), pb its base in the
	// per-VL arrays.
	id, pb int32
	// Updates counts FCCL messages received.
	Updates uint64
}

// state is what every gate and meter of one Install shares: the
// configuration, and the per-VL registers of the whole fabric in one
// array per register, indexed by port id × VLs + VL. The wait detector's
// attribution pass and the invariant sweeps walk these arrays, not a heap
// object per port.
type state struct {
	ports []*fabric.Port
	sched *sim.Scheduler
	cfg   Config
	nVL   int
	occ   []units.ByteSize // ingress occupancy
	fctbs []int64
	fccl  []int64
	// since records, per VL, when the current starvation began — the
	// first refused CanSend after credits last sufficed — and holds
	// units.Forever while they do, so exhaustion/grant events record the
	// edges and not every CanSend.
	since    []units.Time
	abr      []int64
	reported []int64
}

// CanSend implements fabric.TxGate.
func (g *Gate) CanSend(vl uint8, size units.ByteSize) bool {
	s, i := g.s, int(g.pb)+int(vl)
	if s.fctbs[i]+int64(size) <= s.fccl[i] {
		return true
	}
	if s.since[i] == units.Forever {
		p := s.ports[g.id]
		s.since[i] = p.Now()
		if rec := p.Recorder(); rec != nil {
			rec.Record(obs.Event{
				At: p.Now(), Kind: obs.KindCreditExhausted,
				Port: p.Label(), Prio: vl, Flow: -1, Val: g.Credits(vl),
			})
		}
	}
	return false
}

// OnSend implements fabric.TxGate.
func (g *Gate) OnSend(vl uint8, size units.ByteSize) {
	g.s.fctbs[int(g.pb)+int(vl)] += int64(size)
}

// HandleCtrl implements fabric.TxGate.
func (g *Gate) HandleCtrl(now units.Time, f fabric.CtrlFrame) {
	if f.Kind != fabric.CtrlCredit {
		return
	}
	s, i := g.s, int(g.pb)+int(f.Prio)
	if f.FCCL > s.fccl[i] {
		s.fccl[i] = f.FCCL
		p := s.ports[g.id]
		if s.since[i] != units.Forever {
			s.since[i] = units.Forever
			if rec := p.Recorder(); rec != nil {
				rec.Record(obs.Event{
					At: now, Kind: obs.KindCreditGrant,
					Port: p.Label(), Prio: f.Prio, Flow: -1, Val: g.Credits(f.Prio),
				})
			}
		}
		p.GateChanged()
	}
	g.Updates++
}

// Credits reports the currently available credit in bytes for one VL.
func (g *Gate) Credits(vl uint8) int64 {
	i := int(g.pb) + int(vl)
	return g.s.fccl[i] - g.s.fctbs[i]
}

// BlockedSince implements fabric.TxGate: when the current starvation of
// one VL began (as of the last refused CanSend).
func (g *Gate) BlockedSince(vl uint8) units.Time { return g.s.since[int(g.pb)+int(vl)] }

// Meter is the downstream ingress side: ABR, occupancy, and the periodic
// FCCL timer. The timer quiesces while the link is idle (no occupancy and
// no arrivals since the last update): an idle FCCL always grants the full
// buffer, so silence cannot starve the upstream, and the next arrival
// re-arms the period. This keeps event queues finite on idle networks
// without changing behaviour under load.
type Meter struct {
	fabric.Ingress
	s      *state
	id, pb int32 // as in Gate
	// update is the pending FCCL event, sim.NoEvent while the timer is
	// quiet. The meter arms it only when it is quiet and never moves it,
	// so an event handle is all the timer needs.
	update sim.EventID

	// UpdatesSent counts FCCL messages originated.
	UpdatesSent uint64
}

// OnArrive implements fabric.RxMeter. A violation is an arrival that
// overflows the buffer, which CBFC is supposed to make impossible.
func (m *Meter) OnArrive(_ units.Time, pkt *packet.Packet) {
	s, i := m.s, int(m.pb)+int(pkt.Priority)
	s.abr[i] += int64(pkt.Size)
	m.Arrive(&s.occ[i], pkt.Size, s.cfg.Buffer)
	if m.update == sim.NoEvent {
		m.arm()
	}
}

// OnFree implements fabric.RxMeter.
func (m *Meter) OnFree(_ units.Time, pkt *packet.Packet) {
	m.Free(&m.s.occ[int(m.pb)+int(pkt.Priority)], pkt.Size)
}

// Occupancy implements fabric.RxMeter.
func (m *Meter) Occupancy(vl uint8) units.ByteSize { return m.s.occ[int(m.pb)+int(vl)] }

// arm schedules the next FCCL update one period from now.
func (m *Meter) arm() {
	m.update = m.s.sched.AtArg(m.s.sched.Now()+m.s.cfg.Tc, sendUpdateArg, m)
}

// sendUpdateArg is the FCCL timer callback every meter shares.
func sendUpdateArg(arg any) { arg.(*Meter).sendUpdate() }

func (m *Meter) sendUpdate() {
	m.update = sim.NoEvent
	s, p := m.s, m.s.ports[m.id]
	active := false
	for vl := 0; vl < s.nVL; vl++ {
		i := int(m.pb) + vl
		occ := s.occ[i]
		if occ > 0 || s.abr[i] != s.reported[i] {
			active = true
		}
		free := s.cfg.Buffer - occ
		if free < 0 {
			free = 0
		}
		p.SendCtrl(fabric.CtrlFrame{
			Kind: fabric.CtrlCredit,
			Prio: uint8(vl),
			FCCL: s.abr[i] + int64(free),
		})
		s.reported[i] = s.abr[i]
	}
	m.UpdatesSent++
	if active {
		m.arm()
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
	cfg.Tc = max(cfg.Tc, 0)
	ports := n.Ports()
	nVL := n.Config().Priorities
	np := len(ports) * nVL
	s := &state{
		ports: ports, sched: n.Sched, cfg: cfg, nVL: nVL,
		occ:   make([]units.ByteSize, np),
		fctbs: make([]int64, np), fccl: make([]int64, np),
		since: make([]units.Time, np),
		abr:   make([]int64, np), reported: make([]int64, np),
	}
	for i := range s.fccl {
		s.fccl[i] = int64(cfg.Buffer)
		s.since[i] = units.Forever
	}
	// Gates and meters come from one slice each, not a heap object per
	// port.
	gates, meters := make([]Gate, len(ports)), make([]Meter, len(ports))
	for i, p := range ports {
		id, pb := int32(i), int32(i*nVL)
		gates[i] = Gate{s: s, id: id, pb: pb}
		p.AttachGate(&gates[i])
		m := &meters[i]
		*m = Meter{s: s, id: id, pb: pb}
		p.AttachMeter(m)
		m.arm()
	}
}
