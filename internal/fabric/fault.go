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
	p.extend().ctrlFault = f
	if f != nil {
		p.net.faulted = true
	}
}

// Faulted reports whether any fault primitive ever touched the network
// (a latch, not current state: it stays set after links recover). While
// clear, the fabric's lossless guarantees are in force.
func (n *Network) Faulted() bool { return n.faulted }

// MarkFaulted latches Faulted for a fault that acts outside the fabric's
// own primitives: a route rewrite, which can loop transit traffic until
// its TTL runs out.
func (n *Network) MarkFaulted() { n.faulted = true }

// PeerIsHost reports whether the port's far end is a host NIC — the
// route-rewrite fault uses it to preserve host-delivery hops.
func (p *Port) PeerIsHost() bool { return p.Peer().node.kind == topo.Host }

// ForgeCtrl originates a control frame this port's flow-control stack
// never asked for — the compromised-NIC primitive behind pause storms.
// The frame takes the normal control path (serialization wait, link
// delay, jitter, ctrl-fault interceptors), so it is indistinguishable on
// the wire from an honest one; only the provenance counter and event
// record tell them apart.
func (p *Port) ForgeCtrl(f CtrlFrame) {
	p.net.faulted = true
	p.extend().forgedCtrl++
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
	p.extend().spoof = fn
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
	base := p.base()
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
	n, b := p.net, p.base()
	for _, q := range n.queues[b : b+n.nPrio] {
		for i := 0; i < q.Len(); i++ {
			fn(q.At(i))
		}
	}
	if n.voqs != nil {
		for _, per := range n.voqs[b : b+n.nPrio] {
			for vi := range per {
				q := &per[vi]
				for i := 0; i < q.Len(); i++ {
					fn(q.At(i))
				}
			}
		}
	}
	if p.txPkt != nil {
		fn(p.txPkt)
	}
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
func (n *Network) WaitCycles() [][]*Port { return new(waitScan).scan(n) }

// waitScan is the scratch of a wait-graph scan. WaitDetector keeps one
// across its scans, so once a scan has sized it, a repeat scan of the
// same blocked ports allocates nothing.
type waitScan struct {
	// at[port id] is the port's index in blocked, -1 if it is not there.
	at      []int32
	blocked []*Port
	// The edges of blocked[i] are edges[start[i]:start[i+1]], in the
	// order its queued packets first name them; mark[j] == i+1 once
	// blocked[i] has its edge to j.
	start, edges, mark []int32
	// Tarjan's state: DFS index (-1 unvisited), low-link, the stack.
	index, low, stack []int32
	onStack           []bool
	next              int32
	// members lists every cycle's ports, cycle after cycle; cycle k ends
	// at ends[k]. cycles slices it.
	members []*Port
	ends    []int
	cycles  [][]*Port
}

// scan runs one scan of n's wait graph; the result aliases w.
func (w *waitScan) scan(n *Network) [][]*Port {
	if n.Route == nil {
		return nil
	}
	if len(w.at) != len(n.ports) {
		w.at = make([]int32, len(n.ports))
		for i := range w.at {
			w.at[i] = -1
		}
	}
	for _, p := range w.blocked {
		w.at[p.id] = -1
	}
	w.blocked = w.blocked[:0]
	// Node pass: a linear sweep over the flat blocked/qbytes arrays; the
	// per-Port graph work below only runs for ports that qualify. A port
	// paused with nothing queued cannot sustain a cycle, and one with
	// traffic behind an open gate will drain.
	for base := 0; base < len(n.blocked); base += n.nPrio {
		for k := 0; k < n.nPrio; k++ {
			if n.blocked[base+k] && n.qbytes[base+k] > 0 {
				p := n.ports[base/n.nPrio]
				w.at[p.id] = int32(len(w.blocked))
				w.blocked = append(w.blocked, p)
				break
			}
		}
	}
	nb := len(w.blocked)
	if nb < 2 {
		return nil
	}
	w.start, w.edges = append(w.start[:0], 0), w.edges[:0]
	w.mark = fill(w.mark, nb, 0)
	for i, p := range w.blocked {
		// A host consumes at line rate: a chain ending there has no edge.
		if peer := p.Peer().node; peer.kind == topo.Switch {
			p.ForEachQueued(func(pkt *packet.Packet) {
				out := n.Route(peer.id, pkt)
				if out == nil {
					return
				}
				if j := w.at[out.id]; j >= 0 && w.mark[j] != int32(i+1) {
					w.mark[j] = int32(i + 1)
					w.edges = append(w.edges, j)
				}
			})
		}
		w.start = append(w.start, int32(len(w.edges)))
	}

	w.index, w.low = fill(w.index, nb, -1), fill(w.low, nb, 0)
	w.onStack = fill(w.onStack, nb, false)
	w.stack, w.next = w.stack[:0], 0
	w.members, w.ends = w.members[:0], w.ends[:0]
	for v := range int32(nb) {
		if w.index[v] < 0 {
			w.connect(v)
		}
	}
	w.cycles = w.cycles[:0]
	from := 0
	for _, end := range w.ends {
		w.cycles = append(w.cycles, w.members[from:end:end])
		from = end
	}
	return w.cycles
}

// connect is Tarjan's strongly-connected-components step from v; each
// component of at least two ports — an actual wait cycle — goes to
// members in DFS (deterministic port-table) order. Recursion depth is
// bounded by the number of simultaneously blocked ports, which even a
// deadlocked datacenter fabric keeps far below stack limits.
func (w *waitScan) connect(v int32) {
	w.index[v], w.low[v] = w.next, w.next
	w.next++
	w.stack = append(w.stack, v)
	w.onStack[v] = true
	for _, x := range w.edges[w.start[v]:w.start[v+1]] {
		if w.index[x] < 0 {
			w.connect(x)
			w.low[v] = min(w.low[v], w.low[x])
		} else if w.onStack[x] {
			w.low[v] = min(w.low[v], w.index[x])
		}
	}
	if w.low[v] != w.index[v] {
		return
	}
	root := len(w.stack) - 1
	for w.stack[root] != v {
		root--
	}
	comp := w.stack[root:]
	w.stack = w.stack[:root]
	for _, x := range comp {
		w.onStack[x] = false
	}
	if len(comp) > 1 {
		for _, x := range comp {
			w.members = append(w.members, w.blocked[x])
		}
		w.ends = append(w.ends, len(w.members))
	}
}

// fill returns s resized to n elements, all v, reusing its array when it
// is large enough.
func fill[T any](s []T, n int, v T) []T {
	if cap(s) < n {
		s = make([]T, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = v
	}
	return s
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
	wait  waitScan

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
	d := &WaitDetector{net: n, every: every, kind: kind}
	d.timer.Init(n.Sched, scanArg, d)
	d.timer.Arm(every)
	return d
}

func scanArg(arg any) { arg.(*WaitDetector).scan() }

func (d *WaitDetector) scan() {
	d.Scans++
	for _, cyc := range d.wait.scan(d.net) {
		d.report(cyc)
	}
	d.timer.Arm(d.every)
}

// report attributes one wait cycle to the member blocked earliest and
// records it if unseen.
func (d *WaitDetector) report(cyc []*Port) {
	if d.reported(cyc) {
		return
	}
	now := d.net.Sched.Now()
	var trigger *Port
	since := units.Forever
	for _, p := range cyc {
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
	labels := make([]string, len(cyc))
	for i, p := range cyc {
		labels[i] = p.Label()
	}
	d.Reports = append(d.Reports, WaitReport{At: now, Ports: labels, Trigger: trigger.Label(), Since: now - since})
	if rec := d.net.cfg.Rec; rec != nil {
		rec.Record(obs.Event{
			At: now, Kind: d.kind, Port: trigger.Label(),
			Flow: -1, Val: int64(len(labels)), Aux: int64(now - since),
		})
	}
}

// reported reports whether a cycle of the same members, in the same
// order, is already in Reports.
func (d *WaitDetector) reported(cyc []*Port) bool {
	for _, r := range d.Reports {
		if len(r.Ports) != len(cyc) {
			continue
		}
		same := true
		for i, p := range cyc {
			if r.Ports[i] != p.Label() {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}
