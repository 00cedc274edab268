package topo

import (
	"fmt"
	"strconv"

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
	fig2Fairness = 4
)

// fig2Names are the Figure-2 node names in build order, B0..B3 last. The
// builder adds its nodes unnamed and names them from this table, so a
// build formats no string.
var fig2Names = func() []string {
	names := []string{"T0", "L0", "T2", "S0", "S1", "S2", "R0", "R1"}
	for i := 0; i < fig2Bursters; i++ {
		names = append(names, "A"+strconv.Itoa(i))
	}
	for i := 0; i < fig2Fairness; i++ {
		names = append(names, "B"+strconv.Itoa(i))
	}
	return names
}()

func fig2Name(id packet.NodeID) string { return fig2Names[id] }

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
	nB := 0
	if cfg.WithB {
		nB = fig2Fairness
	}
	t := New()
	// Three switches and one link per host, plus T0–L0 and L0–T2.
	hosts := 5 + fig2Bursters + nB
	t.reserve(3+hosts, hosts+2)
	t.namer = fig2Name
	f := &Fig2{Topology: t}
	f.T0 = t.addSized("", Switch, 3)
	f.L0 = t.addSized("", Switch, 3+nB)
	f.T2 = t.addSized("", Switch, 3+fig2Bursters)
	f.S0 = t.addSized("", Host, 1)
	f.S1 = t.addSized("", Host, 1)
	f.S2 = t.addSized("", Host, 1)
	f.R0 = t.addSized("", Host, 1)
	f.R1 = t.addSized("", Host, 1)
	t.Connect(f.S0, f.T0, edge, fig2Delay)
	f.LinkS1T0 = t.Connect(f.S1, f.T0, edge, fig2Delay)
	t.Connect(f.S2, f.L0, fig2Rate, fig2Delay)
	f.LinkT0L0 = t.Connect(f.T0, f.L0, fig2Rate, fig2Delay)
	f.LinkL0T2 = t.Connect(f.L0, f.T2, fig2Rate, fig2Delay)
	t.Connect(f.R0, f.T2, fig2Rate, fig2Delay)
	f.LinkT2R1 = t.Connect(f.R1, f.T2, fig2Rate, fig2Delay)
	// A and B share one array.
	senders := make([]packet.NodeID, fig2Bursters+nB)
	f.A = senders[:fig2Bursters:fig2Bursters]
	for i := range f.A {
		f.A[i] = t.addSized("", Host, 1)
		t.Connect(f.A[i], f.T2, fig2Rate, fig2Delay)
	}
	if cfg.WithB {
		f.B = senders[fig2Bursters:]
		for i := range f.B {
			f.B[i] = t.addSized("", Host, 1)
			t.Connect(f.B[i], f.L0, fig2Rate, fig2Delay)
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

// testbedNames are the testbed's node names in build order.
var testbedNames = [...]string{"T0", "T2", "S0", "S1", "A0", "R0", "R1"}

func testbedName(id packet.NodeID) string { return testbedNames[id] }

// NewTestbed builds the compact testbed at the given link speed and delay
// (the paper's DPDK testbed ran at 10 Gbps).
func NewTestbed(rate units.Rate, delay units.Time) *Testbed {
	t := New()
	t.reserve(len(testbedNames), 6)
	t.namer = testbedName
	tb := &Testbed{Topology: t}
	tb.T0 = t.addSized("", Switch, 3)
	tb.T2 = t.addSized("", Switch, 4)
	tb.S0 = t.addSized("", Host, 1)
	tb.S1 = t.addSized("", Host, 1)
	tb.A0 = t.addSized("", Host, 1)
	tb.R0 = t.addSized("", Host, 1)
	tb.R1 = t.addSized("", Host, 1)
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
	t.reserve(2*n, 2*n)
	nodes, links := make([]packet.NodeID, 2*n), make([]int, 2*n)
	r := &Ring{Topology: t, N: n, Sw: nodes[:n:n], Hosts: nodes[n:], HostLinks: links[:n:n], RingLinks: links[n:]}
	t.namer = r.name
	for i := range r.Sw {
		r.Sw[i] = t.addSized("", Switch, 3)
	}
	for i := range r.Hosts {
		r.Hosts[i] = t.addSized("", Host, 1)
		r.HostLinks[i] = t.Connect(r.Hosts[i], r.Sw[i], rate, delay)
	}
	for i := range r.RingLinks {
		r.RingLinks[i] = t.Connect(r.Sw[i], r.Sw[(i+1)%n], rate, delay)
	}
	return r
}

// name renders the name of a node the builder laid out: the switches
// s0..s{n-1}, then the hosts h0..h{n-1}.
func (r *Ring) name(id packet.NodeID) string {
	if i := int(id); i < r.N {
		return "s" + strconv.Itoa(i)
	}
	return "h" + strconv.Itoa(int(id)-r.N)
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
//
// Node IDs follow the build order: the cores, then pod by pod its
// aggregation row, its edge row and its hosts, edge by edge. A node's
// name ("core3", "agg1_0", "edge1_1", "h1_1_0") and a host's position are
// derived from its ID when asked for.
type FatTree struct {
	*Topology
	K     int
	Cores []packet.NodeID
	// Aggs[pod][i] and Edges[pod][i], i in [0, k/2).
	Aggs, Edges [][]packet.NodeID
	// HostList[h] is the h-th host.
	HostList []packet.NodeID
}

// NewFatTree builds a k-ary fat-tree with uniform link rate and delay.
// k must be even and >= 2.
func NewFatTree(k int, rate units.Rate, delay units.Time) *FatTree {
	if k < 2 || k%2 != 0 {
		panic(fmt.Sprintf("topo: fat-tree requires even k >= 2, got %d", k))
	}
	t := New()
	half := k / 2
	hosts := k * half * half
	// (k/2)^2 cores and k^2 pod switches, all of degree k, and k^3/4
	// hosts; as many edge–agg and as many agg–core links as host links.
	t.reserve(half*half+k*k+hosts, 3*hosts)
	ft := &FatTree{
		Topology: t, K: k,
		Aggs: make([][]packet.NodeID, 0, k), Edges: make([][]packet.NodeID, 0, k),
		HostList: make([]packet.NodeID, 0, hosts),
	}
	t.namer = ft.name
	// The cores and every pod's aggregation and edge rows share one array.
	rows := make([]packet.NodeID, 0, half*half+k*k)
	row := func(n int) []packet.NodeID {
		start := len(rows)
		for i := 0; i < n; i++ {
			rows = append(rows, t.addSized("", Switch, k))
		}
		return rows[start:len(rows):len(rows)]
	}
	ft.Cores = row(half * half)
	for p := 0; p < k; p++ {
		aggs := row(half)
		edges := row(half)
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
		for _, e := range edges {
			for h := 0; h < half; h++ {
				host := t.addSized("", Host, 1)
				t.Connect(host, e, rate, delay)
				ft.HostList = append(ft.HostList, host)
			}
		}
	}
	return ft
}

// locate decodes a node ID of the tree: for a core, pod is -1 and i the
// core index; in a pod, i is the node's offset within it (aggregation
// switches first, then edge switches, then hosts). ok is false for an ID
// the builder did not lay out.
func (ft *FatTree) locate(id packet.NodeID) (pod, i int, ok bool) {
	half := ft.K / 2
	cores, perPod := half*half, ft.K+half*half
	n := int(id)
	switch {
	case n < 0 || n >= cores+ft.K*perPod:
		return 0, 0, false
	case n < cores:
		return -1, n, true
	}
	return (n - cores) / perPod, (n - cores) % perPod, true
}

// name renders the name of a node the builder laid out.
func (ft *FatTree) name(id packet.NodeID) string {
	pod, i, _ := ft.locate(id)
	half := ft.K / 2
	itoa := strconv.Itoa
	switch {
	case pod < 0:
		return "core" + itoa(i)
	case i < half:
		return "agg" + itoa(pod) + "_" + itoa(i)
	case i < ft.K:
		return "edge" + itoa(pod) + "_" + itoa(i-half)
	}
	i -= ft.K
	return "h" + itoa(pod) + "_" + itoa(i/half) + "_" + itoa(i%half)
}

// HostPos returns the (pod, edge, index) position of a host.
func (ft *FatTree) HostPos(h packet.NodeID) (pod, edge, idx int) {
	pod, i, ok := ft.locate(h)
	if !ok || pod < 0 || i < ft.K {
		panic("topo: not a fat-tree host")
	}
	half := ft.K / 2
	i -= ft.K
	return pod, i / half, i % half
}

// LeafSpine is a two-tier leaf–spine fabric. Node IDs follow the build
// order: the spines, then each leaf followed by its hosts; names
// ("spine2", "leaf0", "h0_3") are derived from the ID when asked for.
type LeafSpine struct {
	*Topology
	Leaves, Spines []packet.NodeID
	HostList       []packet.NodeID
	hostsPerLeaf   int
}

// NewLeafSpine builds a leaf–spine topology with hostsPerLeaf hosts on
// each of nLeaf leaves, each leaf connected to every one of nSpine spines.
func NewLeafSpine(nLeaf, nSpine, hostsPerLeaf int, rate units.Rate, delay units.Time) *LeafSpine {
	t := New()
	ls := &LeafSpine{Topology: t, hostsPerLeaf: hostsPerLeaf}
	t.namer = ls.name
	for i := 0; i < nSpine; i++ {
		ls.Spines = append(ls.Spines, t.add("", Switch))
	}
	for i := 0; i < nLeaf; i++ {
		leaf := t.add("", Switch)
		ls.Leaves = append(ls.Leaves, leaf)
		for _, sp := range ls.Spines {
			t.Connect(leaf, sp, rate, delay)
		}
		for h := 0; h < hostsPerLeaf; h++ {
			host := t.add("", Host)
			t.Connect(host, leaf, rate, delay)
			ls.HostList = append(ls.HostList, host)
		}
	}
	return ls
}

// name renders the name of a node the builder laid out.
func (ls *LeafSpine) name(id packet.NodeID) string {
	n := int(id)
	if n < len(ls.Spines) {
		return "spine" + strconv.Itoa(n)
	}
	n -= len(ls.Spines)
	leaf, i := n/(1+ls.hostsPerLeaf), n%(1+ls.hostsPerLeaf)
	if i == 0 {
		return "leaf" + strconv.Itoa(leaf)
	}
	return "h" + strconv.Itoa(leaf) + "_" + strconv.Itoa(i-1)
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
	t.reserve(2+2*n, 1+2*n)
	t.namer = dumbbellName
	hosts := make([]packet.NodeID, 2*n)
	d := &Dumbbell{Topology: t, Senders: hosts[:n:n], Receivers: hosts[n:]}
	d.Left = t.addSized("", Switch, 1+n)
	d.Right = t.addSized("", Switch, 1+n)
	d.Bottleneck = t.Connect(d.Left, d.Right, rate, delay)
	for i := 0; i < n; i++ {
		s := t.addSized("", Host, 1)
		r := t.addSized("", Host, 1)
		t.Connect(s, d.Left, rate, delay)
		t.Connect(r, d.Right, rate, delay)
		d.Senders[i], d.Receivers[i] = s, r
	}
	return d
}

// dumbbellName renders the name of a node NewDumbbell laid out: left,
// right, then snd<i> and rcv<i> pair by pair.
func dumbbellName(id packet.NodeID) string {
	switch id {
	case 0:
		return "left"
	case 1:
		return "right"
	}
	i := int(id) - 2
	if i%2 == 0 {
		return "snd" + strconv.Itoa(i/2)
	}
	return "rcv" + strconv.Itoa(i/2)
}
