// Fault surface of the dataplane: link and port failure primitives, the
// payload-conservation ledger the invariant tests audit, and the
// pause-wait graph with the detector that scans it for flow-control
// deadlocks (PFC pause-wait and CBFC credit-wait cycles alike).
//
// All fault state is plain flags tested inline on the hot paths, so a run
// that never touches this file schedules exactly the same events as one
// built before it existed — the golden-trace byte-identity the fault
// injector promises.

package fabric

import (
	"strings"

	"github.com/tcdnet/tcd/internal/obs"
	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/sim"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

// SetDown marks this side of the link down or up. A down port neither
// starts transmissions nor delivers arriving frames: a frame caught
// mid-serialization is lost on the wire, a frame mid-propagation is lost
// at arrival if the receiving side is still down by then. Bringing the
// port back up immediately re-evaluates its egress queues.
func (p *Port) SetDown(down bool) {
	if p.down == down {
		return
	}
	p.down = down
	p.net.faulted = true
	if rec := p.net.cfg.Rec; rec != nil {
		kind := obs.KindLinkUp
		if down {
			kind = obs.KindLinkDown
		}
		rec.Record(obs.Event{At: p.net.Sched.Now(), Kind: kind, Port: p.Label(), Flow: -1})
	}
	if !down && !p.busy {
		p.tryTransmit()
	}
}

// SetFrozen freezes or thaws the port's egress pipeline: a frozen port
// stops serving its queues (and its pull source) but keeps receiving,
// forwarding and originating control frames — the signature of a hung
// egress scheduler rather than a dead cable. Backpressure builds behind
// it exactly as behind a paused port, which is what makes it the seed of
// choice for growing a pause storm on demand.
func (p *Port) SetFrozen(frozen bool) {
	if p.frozen == frozen {
		return
	}
	p.frozen = frozen
	p.net.faulted = true
	if rec := p.net.cfg.Rec; rec != nil {
		kind := obs.KindThaw
		if frozen {
			kind = obs.KindFreeze
		}
		rec.Record(obs.Event{At: p.net.Sched.Now(), Kind: kind, Port: p.Label(), Flow: -1})
	}
	if !frozen && !p.busy {
		p.tryTransmit()
	}
}

// SetCtrlFault installs (or, with nil, removes) an interceptor for
// control frames originated by this port: drop loses the frame, a
// non-zero delay stretches its delivery. The interceptor must be
// deterministic given the run's seed.
func (p *Port) SetCtrlFault(f func(CtrlFrame) (drop bool, delay units.Time)) {
	p.ctrlFault = f
	if f != nil {
		p.net.faulted = true
	}
}

// Faulted reports whether any fault primitive ever touched the network
// (a latch, not current state: it stays set after links recover). While
// clear, the fabric's lossless guarantees are in force.
func (n *Network) Faulted() bool { return n.faulted }

// Attack provenance bits the adversarial injector stamps on the ports it
// targets. The oracle reads them to tell a manufactured symptom (a port
// paused by forged frames, a queue held just under threshold by
// camouflage traffic) from organic congestion.
const (
	// AttackStorm: the port's peer forges PFC pause floods at it.
	AttackStorm uint8 = 1 << iota
	// AttackCamouflage: micro pause trains keep this port's queue
	// hovering just below its marking threshold.
	AttackCamouflage
	// AttackSpoof: the port forges CE marks on packets it sends.
	AttackSpoof
	// AttackReroute: a hostile route rewrite steers transit traffic
	// through this port.
	AttackReroute
)

// TagAttack stamps an attack-provenance bit on the port and latches the
// network's fault flag.
func (p *Port) TagAttack(bit uint8) {
	p.Attack |= bit
	p.net.faulted = true
}

// PeerIsHost reports whether the port's far end is a host NIC — the
// route-rewrite fault uses it to preserve host-delivery hops, and the
// oracle to scope its scan to switch egresses.
func (p *Port) PeerIsHost() bool { return p.Peer.node.kind == topo.Host }

// ForgeCtrl originates a control frame this port's flow-control stack
// never asked for — the compromised-NIC primitive behind pause storms.
// The frame takes the normal control path (serialization wait, link
// delay, jitter, ctrl-fault interceptors), so it is indistinguishable on
// the wire from an honest one; only the provenance counter and event
// record tell them apart.
func (p *Port) ForgeCtrl(f CtrlFrame) {
	p.net.faulted = true
	p.ForgedCtrl++
	if rec := p.net.cfg.Rec; rec != nil {
		rec.Record(obs.Event{
			At: p.net.Sched.Now(), Kind: obs.KindForgedCtrl, Port: p.Label(),
			Prio: f.Prio, Flow: -1, Val: int64(f.Kind),
		})
	}
	p.SendCtrl(f)
}

// SetSpoof installs (or, with nil, removes) the congestion-spoofing hook:
// for every data packet this port is about to serialize, the hook decides
// whether a forged CE mark is stamped on it regardless of queue state.
// The hook must be deterministic given the run's seed.
func (p *Port) SetSpoof(fn func(pkt *packet.Packet) bool) {
	p.spoof = fn
	if fn != nil {
		p.net.faulted = true
	}
}

// OffTime reports the cumulative time this port's egress has spent
// blocked by flow control, including the currently open OFF period (the
// PauseTime counter alone settles only on unblock). The oracle's
// per-window victim rule differences this.
func (p *Port) OffTime(now units.Time) units.Time {
	t := p.PauseTime
	base := int(p.pb)
	for k := 0; k < p.net.nPrio; k++ {
		if p.net.blocked[base+k] {
			t += now - p.blockStart
			break
		}
	}
	return t
}

// dropFaulted destroys a data-plane frame killed by a fault: counts it,
// records it, and recycles the packet. Ingress/in-flight ledgers must be
// settled by the caller before the packet dies.
func (p *Port) dropFaulted(pkt *packet.Packet) {
	p.FaultDrops++
	p.net.FaultDrops++
	p.net.faultDropPayload += pkt.Payload
	if rec := p.net.cfg.Rec; rec != nil {
		rec.Record(obs.Event{
			At: p.net.Sched.Now(), Kind: obs.KindFaultDrop, Port: p.Label(),
			Prio: pkt.Priority, Flow: int64(pkt.Flow), Val: int64(pkt.Size),
		})
	}
	p.net.arena.Put(pkt)
}

// FaultDropPayload reports the flow-payload volume destroyed by faults.
func (n *Network) FaultDropPayload() units.ByteSize { return n.faultDropPayload }

// InFlightPayload reports the flow-payload volume currently on a wire or
// inside a switch forwarding pipeline — injected but not yet in any
// queue, serializer, or sink.
func (n *Network) InFlightPayload() units.ByteSize { return n.inFlightPayload }

// ForEachQueued visits every packet the port currently holds — egress
// FIFOs, virtual output queues, and the frame mid-serialization — in a
// deterministic order.
func (p *Port) ForEachQueued(fn func(*packet.Packet)) {
	for prio := range p.queues {
		q := &p.queues[prio]
		for i := q.head; i < len(q.buf); i++ {
			fn(q.buf[i])
		}
	}
	for _, per := range p.voqs {
		for vi := range per {
			q := &per[vi]
			for i := q.head; i < len(q.buf); i++ {
				fn(q.buf[i])
			}
		}
	}
	if p.txPkt != nil {
		fn(p.txPkt)
	}
}

// QueuedPayload sums the flow-payload bytes held in every port's queues
// and serializers. Together with InFlightPayload it is the "still in the
// network" term of the conservation invariant.
func (n *Network) QueuedPayload() units.ByteSize {
	var total units.ByteSize
	for _, p := range n.ports {
		p.ForEachQueued(func(pkt *packet.Packet) { total += pkt.Payload })
	}
	return total
}

// waitsBlocked reports whether the port holds queued traffic on a
// priority its gate currently refuses — the node condition for the
// pause-wait graph. A port that is merely paused with nothing queued can
// not sustain a cycle (it has nothing to contribute to downstream
// occupancy), and a port with traffic but an open gate will drain.
func (p *Port) waitsBlocked() bool {
	base := int(p.pb)
	for k := 0; k < p.net.nPrio; k++ {
		if p.net.blocked[base+k] && p.net.qbytes[base+k] > 0 {
			return true
		}
	}
	return false
}

// WaitCycles finds the cycles of the pause-wait graph: nodes are ports
// blocked with queued traffic, and there is an edge p→q when a packet
// queued at p will, after crossing p's link, occupy egress port q of the
// downstream switch (per the network's routing function). A cycle means
// every member waits on buffer that only its own progress could free —
// the circular buffer dependency that turns lossless backpressure into
// deadlock. Cycles are returned as strongly connected components in a
// deterministic order; attribution (which gate blocked first) is
// WaitDetector's.
func (n *Network) WaitCycles() [][]*Port {
	if n.Route == nil {
		return nil
	}
	// Node pass: a linear sweep over the flat blocked/qbytes arrays; the
	// per-Port graph work below only runs for ports that qualify.
	idx := make(map[*Port]int, len(n.ports))
	var blocked []*Port
	for base := 0; base < len(n.blocked); base += n.nPrio {
		waits := false
		for k := 0; k < n.nPrio; k++ {
			if n.blocked[base+k] && n.qbytes[base+k] > 0 {
				waits = true
				break
			}
		}
		if waits {
			p := n.ports[base/n.nPrio]
			idx[p] = len(blocked)
			blocked = append(blocked, p)
		}
	}
	if len(blocked) < 2 {
		return nil
	}
	adj := make([][]int, len(blocked))
	for i, p := range blocked {
		peer := p.Peer.node
		if peer.kind != topo.Switch {
			continue // hosts consume at line rate: the chain ends there
		}
		seen := make(map[int]bool)
		p.ForEachQueued(func(pkt *packet.Packet) {
			out := n.Route(peer.id, pkt)
			if out == nil {
				return
			}
			if j, ok := idx[out]; ok && !seen[j] {
				seen[j] = true
				adj[i] = append(adj[i], j)
			}
		})
	}
	return tarjanCycles(blocked, adj)
}

// tarjanCycles runs Tarjan's SCC algorithm over the blocked-port graph
// and returns the components of size at least two — the actual wait
// cycles. Recursion depth is bounded by the number of simultaneously
// blocked ports, which even a deadlocked datacenter fabric keeps far
// below stack limits.
func tarjanCycles(ports []*Port, adj [][]int) [][]*Port {
	n := len(ports)
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		cycles  [][]*Port
		stack   []int
		next    = 0
		callDfs func(v int)
	)
	callDfs = func(v int) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if index[w] == unvisited {
				callDfs(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			if len(comp) > 1 {
				cyc := make([]*Port, 0, len(comp))
				// Reverse to report in DFS (deterministic port-table) order.
				for k := len(comp) - 1; k >= 0; k-- {
					cyc = append(cyc, ports[comp[k]])
				}
				cycles = append(cycles, cyc)
			}
		}
	}
	for v := 0; v < n; v++ {
		if index[v] == unvisited {
			callDfs(v)
		}
	}
	return cycles
}

// WaitReport describes one flow-control deadlock: a wait cycle held shut
// by its members' gates.
type WaitReport struct {
	// At is when the scan found the cycle.
	At units.Time
	// Ports are the cycle members' labels, in deterministic scan order.
	Ports []string
	// Trigger is the member whose gate blocked earliest — the DCFIT
	// initial-trigger link, where the storm entered the loop.
	Trigger string
	// Since is how long Trigger had been blocked when the scan ran.
	Since units.Time
}

// WaitDetector scans the wait graph on a timer. A PFC deadlock is a cycle
// of egress ports each paused because the buffer its traffic needs
// downstream is held by the next member's paused traffic; a CBFC credit
// stall is the same loop with starved credit in place of PAUSE (an
// occupied buffer never raises FCCL). Both are permanent once formed, so
// the period only bounds detection latency.
type WaitDetector struct {
	net   *Network
	timer sim.Timer
	every units.Time
	kind  obs.Kind
	seen  map[string]bool

	// Reports lists each distinct cycle once, in detection order.
	Reports []WaitReport
	// Scans counts completed scan ticks.
	Scans uint64
}

// AttachWaitDetector starts a scan every period and records each new
// cycle as an event of the given kind on the trigger port. The detector
// re-arms itself each tick (one pending event at a time), so a
// horizon-bounded run simply leaves the last tick unexecuted.
func (n *Network) AttachWaitDetector(every units.Time, kind obs.Kind) *WaitDetector {
	if every <= 0 {
		panic("fabric: wait detector needs a positive scan period")
	}
	d := &WaitDetector{net: n, every: every, kind: kind, seen: make(map[string]bool)}
	d.timer.Init(n.Sched, d.scan)
	d.timer.Arm(every)
	return d
}

// Stop cancels the scan timer.
func (d *WaitDetector) Stop() { d.timer.Cancel() }

func (d *WaitDetector) scan() {
	d.Scans++
	for _, cyc := range d.net.WaitCycles() {
		d.report(cyc)
	}
	d.timer.Arm(d.every)
}

// report attributes one wait cycle to the member blocked earliest and
// records it if unseen.
func (d *WaitDetector) report(cyc []*Port) {
	now := d.net.Sched.Now()
	var trigger *Port
	since := units.Forever
	labels := make([]string, 0, len(cyc))
	for _, p := range cyc {
		labels = append(labels, p.Label())
		if p.gate == nil {
			continue
		}
		for prio := 0; prio < d.net.nPrio; prio++ {
			if t := p.gate.BlockedSince(uint8(prio)); t < since {
				since, trigger = t, p
			}
		}
	}
	if trigger == nil {
		// No gate reports a block (e.g. every member is frozen): a wait
		// cycle, but not one flow control closed.
		return
	}
	sig := strings.Join(labels, "|")
	if d.seen[sig] {
		return
	}
	d.seen[sig] = true
	d.Reports = append(d.Reports, WaitReport{At: now, Ports: labels, Trigger: trigger.Label(), Since: now - since})
	if rec := d.net.cfg.Rec; rec != nil {
		rec.Record(obs.Event{
			At: now, Kind: d.kind, Port: trigger.Label(),
			Flow: -1, Val: int64(len(labels)), Aux: int64(now - since),
		})
	}
}
