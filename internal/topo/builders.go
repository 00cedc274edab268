package topo

import (
	"fmt"

	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/units"
)

// Fig2 is the paper's Figure-2 scenario topology (see DESIGN.md for the
// reverse-engineered wiring):
//
//	S0, S1 ── T0 ──(P1)── L0 ──(P2)── T2 ──(P3)── R1
//	       S2, B0..B3 ┘        ├── R0
//	                           └── A0..A14
//
// P0 is S1's NIC egress port.
type Fig2 struct {
	*Topology
	S0, S1, S2 packet.NodeID
	R0, R1     packet.NodeID
	A          []packet.NodeID // burst senders A0..A14
	B          []packet.NodeID // fairness senders B0..B3 (empty unless requested)
	T0, L0, T2 packet.NodeID
	// Link indices, for locating the observed ports.
	LinkS1T0, LinkT0L0, LinkL0T2, LinkT2R1 int
}

// The paper's §3.1 Figure-2 network: 40 Gbps links with 4 us of
// propagation delay, and fifteen burst senders A0..A14.
const (
	fig2Rate     = 40 * units.Gbps
	fig2Delay    = 4 * units.Microsecond
	fig2Bursters = 15
)

// Fig2Config selects the variants of the Figure-2 builder; the zero value
// is the §3.1 network.
type Fig2Config struct {
	// EdgeRate overrides the S0–T0 and S1–T0 link speed; zero means the
	// fabric rate. The victim-flow scenario (§5.1.3) sets it to 20 Gbps.
	EdgeRate units.Rate
	// WithB adds fairness hosts B0..B3 on L0 (§5.2.4).
	WithB bool
}

// NewFig2 builds the Figure-2 topology.
func NewFig2(cfg Fig2Config) *Fig2 {
	edge := cfg.EdgeRate
	if edge == 0 {
		edge = fig2Rate
	}
	t := New()
	f := &Fig2{Topology: t}
	f.T0 = t.AddSwitch("T0")
	f.L0 = t.AddSwitch("L0")
	f.T2 = t.AddSwitch("T2")
	f.S0 = t.AddHost("S0")
	f.S1 = t.AddHost("S1")
	f.S2 = t.AddHost("S2")
	f.R0 = t.AddHost("R0")
	f.R1 = t.AddHost("R1")
	t.Connect(f.S0, f.T0, edge, fig2Delay)
	f.LinkS1T0 = t.Connect(f.S1, f.T0, edge, fig2Delay)
	t.Connect(f.S2, f.L0, fig2Rate, fig2Delay)
	f.LinkT0L0 = t.Connect(f.T0, f.L0, fig2Rate, fig2Delay)
	f.LinkL0T2 = t.Connect(f.L0, f.T2, fig2Rate, fig2Delay)
	t.Connect(f.R0, f.T2, fig2Rate, fig2Delay)
	f.LinkT2R1 = t.Connect(f.R1, f.T2, fig2Rate, fig2Delay)
	for i := 0; i < fig2Bursters; i++ {
		a := t.AddHost(fmt.Sprintf("A%d", i))
		t.Connect(a, f.T2, fig2Rate, fig2Delay)
		f.A = append(f.A, a)
	}
	if cfg.WithB {
		for i := 0; i < 4; i++ {
			b := t.AddHost(fmt.Sprintf("B%d", i))
			t.Connect(b, f.L0, fig2Rate, fig2Delay)
			f.B = append(f.B, b)
		}
	}
	return f
}

// Testbed is the compact §5.1.1 testbed topology: T0 directly connected to
// T2, with F0: S0→R0 and F1: S1→R1 sharing T0's uplink (port P0) and A0
// bursting into T2's egress to R1 (the congestion port).
type Testbed struct {
	*Topology
	S0, S1, A0, R0, R1 packet.NodeID
	T0, T2             packet.NodeID
	LinkT0T2, LinkT2R1 int
}

// NewTestbed builds the compact testbed at the given link speed and delay
// (the paper's DPDK testbed ran at 10 Gbps).
func NewTestbed(rate units.Rate, delay units.Time) *Testbed {
	t := New()
	tb := &Testbed{Topology: t}
	tb.T0 = t.AddSwitch("T0")
	tb.T2 = t.AddSwitch("T2")
	tb.S0 = t.AddHost("S0")
	tb.S1 = t.AddHost("S1")
	tb.A0 = t.AddHost("A0")
	tb.R0 = t.AddHost("R0")
	tb.R1 = t.AddHost("R1")
	t.Connect(tb.S0, tb.T0, rate, delay)
	t.Connect(tb.S1, tb.T0, rate, delay)
	tb.LinkT0T2 = t.Connect(tb.T0, tb.T2, rate, delay)
	t.Connect(tb.A0, tb.T2, rate, delay)
	t.Connect(tb.R0, tb.T2, rate, delay)
	tb.LinkT2R1 = t.Connect(tb.R1, tb.T2, rate, delay)
	return tb
}

// Ring is a unidirectional ring of n switches (s0..s{n-1}) with one host
// per switch — the canonical cyclic-buffer-dependency topology. With
// clockwise-only routing and hop-by-hop flow control, transit traffic on
// every inter-switch link waits on buffer space at the next, and the
// waits close into a loop: the deadlock-unit experiment and the PFC
// deadlock / CBFC credit-stall detectors are exercised on it.
type Ring struct {
	*Topology
	N     int
	Sw    []packet.NodeID // Sw[i] = switch s<i>
	Hosts []packet.NodeID // Hosts[i] = host h<i>, attached to Sw[i]
	// HostLinks[i] is h<i>'s access link; RingLinks[i] connects s<i> to
	// s<(i+1)%n>.
	HostLinks, RingLinks []int
}

// NewRing builds an n-switch ring (n >= 3) with uniform link rate and
// delay. Routing is the caller's choice: shortest-path stays loop-free,
// while clockwise-only forwarding (what the deadlock-unit experiment
// wires) creates the cyclic dependency on purpose.
func NewRing(n int, rate units.Rate, delay units.Time) *Ring {
	if n < 3 {
		panic(fmt.Sprintf("topo: ring requires n >= 3 switches, got %d", n))
	}
	t := New()
	r := &Ring{Topology: t, N: n}
	for i := 0; i < n; i++ {
		r.Sw = append(r.Sw, t.AddSwitch(fmt.Sprintf("s%d", i)))
	}
	for i := 0; i < n; i++ {
		h := t.AddHost(fmt.Sprintf("h%d", i))
		r.Hosts = append(r.Hosts, h)
		r.HostLinks = append(r.HostLinks, t.Connect(h, r.Sw[i], rate, delay))
	}
	for i := 0; i < n; i++ {
		r.RingLinks = append(r.RingLinks, t.Connect(r.Sw[i], r.Sw[(i+1)%n], rate, delay))
	}
	return r
}

// SwitchOf returns the index of the switch a node sits on (its own index
// for a switch, the attachment switch for a host), or -1 if unknown.
func (r *Ring) SwitchOf(id packet.NodeID) int {
	for i := 0; i < r.N; i++ {
		if r.Sw[i] == id || r.Hosts[i] == id {
			return i
		}
	}
	return -1
}

// FatTree is a k-ary fat-tree: (k/2)^2 cores, k pods of k/2 aggregation
// and k/2 edge switches, and k^3/4 hosts. The structural metadata is kept
// so D-mod-k routing can pick deterministic up-paths.
type FatTree struct {
	*Topology
	K     int
	Cores []packet.NodeID
	// Aggs[pod][i] and Edges[pod][i], i in [0, k/2).
	Aggs, Edges [][]packet.NodeID
	// HostList[h] is the h-th host; HostPos[h] = (pod, edge, idx).
	HostList []packet.NodeID
	hostPos  map[packet.NodeID][3]int
}

// NewFatTree builds a k-ary fat-tree with uniform link rate and delay.
// k must be even and >= 2.
func NewFatTree(k int, rate units.Rate, delay units.Time) *FatTree {
	if k < 2 || k%2 != 0 {
		panic(fmt.Sprintf("topo: fat-tree requires even k >= 2, got %d", k))
	}
	t := New()
	ft := &FatTree{Topology: t, K: k, hostPos: make(map[packet.NodeID][3]int)}
	half := k / 2
	for i := 0; i < half*half; i++ {
		ft.Cores = append(ft.Cores, t.AddSwitch(fmt.Sprintf("core%d", i)))
	}
	for p := 0; p < k; p++ {
		var aggs, edges []packet.NodeID
		for i := 0; i < half; i++ {
			aggs = append(aggs, t.AddSwitch(fmt.Sprintf("agg%d_%d", p, i)))
		}
		for i := 0; i < half; i++ {
			edges = append(edges, t.AddSwitch(fmt.Sprintf("edge%d_%d", p, i)))
		}
		ft.Aggs = append(ft.Aggs, aggs)
		ft.Edges = append(ft.Edges, edges)
		// Edge <-> agg full mesh within the pod.
		for _, e := range edges {
			for _, a := range aggs {
				t.Connect(e, a, rate, delay)
			}
		}
		// Agg i connects to cores [i*half, (i+1)*half).
		for i, a := range aggs {
			for j := 0; j < half; j++ {
				t.Connect(a, ft.Cores[i*half+j], rate, delay)
			}
		}
		// Hosts.
		for i, e := range edges {
			for h := 0; h < half; h++ {
				host := t.AddHost(fmt.Sprintf("h%d_%d_%d", p, i, h))
				t.Connect(host, e, rate, delay)
				ft.hostPos[host] = [3]int{p, i, h}
				ft.HostList = append(ft.HostList, host)
			}
		}
	}
	return ft
}

// HostPos returns the (pod, edge, index) position of a host.
func (ft *FatTree) HostPos(h packet.NodeID) (pod, edge, idx int) {
	p, ok := ft.hostPos[h]
	if !ok {
		panic("topo: not a fat-tree host")
	}
	return p[0], p[1], p[2]
}

// HostIndex returns the global index of a host in [0, k^3/4).
func (ft *FatTree) HostIndex(h packet.NodeID) int {
	pod, edge, idx := ft.HostPos(h)
	half := ft.K / 2
	return pod*half*half + edge*half + idx
}

// LeafSpine is a two-tier leaf–spine fabric.
type LeafSpine struct {
	*Topology
	Leaves, Spines []packet.NodeID
	HostList       []packet.NodeID
}

// NewLeafSpine builds a leaf–spine topology with hostsPerLeaf hosts on
// each of nLeaf leaves, each leaf connected to every one of nSpine spines.
func NewLeafSpine(nLeaf, nSpine, hostsPerLeaf int, rate units.Rate, delay units.Time) *LeafSpine {
	t := New()
	ls := &LeafSpine{Topology: t}
	for i := 0; i < nSpine; i++ {
		ls.Spines = append(ls.Spines, t.AddSwitch(fmt.Sprintf("spine%d", i)))
	}
	for i := 0; i < nLeaf; i++ {
		leaf := t.AddSwitch(fmt.Sprintf("leaf%d", i))
		ls.Leaves = append(ls.Leaves, leaf)
		for _, sp := range ls.Spines {
			t.Connect(leaf, sp, rate, delay)
		}
		for h := 0; h < hostsPerLeaf; h++ {
			host := t.AddHost(fmt.Sprintf("h%d_%d", i, h))
			t.Connect(host, leaf, rate, delay)
			ls.HostList = append(ls.HostList, host)
		}
	}
	return ls
}

// Dumbbell is the classic n-senders/n-receivers two-switch topology.
type Dumbbell struct {
	*Topology
	Senders, Receivers []packet.NodeID
	Left, Right        packet.NodeID
	Bottleneck         int // link index of the left-right link
}

// NewDumbbell builds a dumbbell with n senders and n receivers.
func NewDumbbell(n int, rate units.Rate, delay units.Time) *Dumbbell {
	t := New()
	d := &Dumbbell{Topology: t}
	d.Left = t.AddSwitch("left")
	d.Right = t.AddSwitch("right")
	d.Bottleneck = t.Connect(d.Left, d.Right, rate, delay)
	for i := 0; i < n; i++ {
		s := t.AddHost(fmt.Sprintf("snd%d", i))
		r := t.AddHost(fmt.Sprintf("rcv%d", i))
		t.Connect(s, d.Left, rate, delay)
		t.Connect(r, d.Right, rate, delay)
		d.Senders = append(d.Senders, s)
		d.Receivers = append(d.Receivers, r)
	}
	return d
}
