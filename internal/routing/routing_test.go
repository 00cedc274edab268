package routing

import (
	"slices"
	"testing"

	"github.com/tcdnet/tcd/internal/fabric"
	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/sim"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

func TestChainRouting(t *testing.T) {
	g := topo.New()
	a := g.AddHost("a")
	s1 := g.AddSwitch("s1")
	s2 := g.AddSwitch("s2")
	b := g.AddHost("b")
	l0 := g.Connect(a, s1, units.Gbps, 0)
	l1 := g.Connect(s1, s2, units.Gbps, 0)
	l2 := g.Connect(s2, b, units.Gbps, 0)
	tb := BuildShortestPath(g)
	if ch := tb.Choices(s1, b); len(ch) != 1 || ch[0] != int32(l1) {
		t.Errorf("s1->b choices = %v, want [%d]", ch, l1)
	}
	if ch := tb.Choices(s2, b); len(ch) != 1 || ch[0] != int32(l2) {
		t.Errorf("s2->b choices = %v, want [%d]", ch, l2)
	}
	if ch := tb.Choices(s1, a); len(ch) != 1 || ch[0] != int32(l0) {
		t.Errorf("s1->a choices = %v, want [%d]", ch, l0)
	}
	if got := tb.PathLen(a, b); got != 3 {
		t.Errorf("PathLen(a,b) = %d, want 3", got)
	}
}

func TestFatTreeEqualCostPaths(t *testing.T) {
	ft := topo.NewFatTree(4, units.Gbps, 0)
	tb := BuildShortestPath(ft.Topology)
	src := ft.HostList[0]                  // pod 0
	dst := ft.HostList[len(ft.HostList)-1] // pod 3
	// At the source edge switch there are k/2 = 2 up choices.
	edge := ft.Edges[0][0]
	if ch := tb.Choices(edge, dst); len(ch) != 2 {
		t.Errorf("edge up-choices = %d, want 2", len(ch))
	}
	// Inter-pod path length: host-edge-agg-core-agg-edge-host = 6 links.
	if got := tb.PathLen(src, dst); got != 6 {
		t.Errorf("inter-pod PathLen = %d, want 6", got)
	}
	// Intra-edge path: 2 links.
	if got := tb.PathLen(ft.HostList[0], ft.HostList[1]); got != 2 {
		t.Errorf("same-edge PathLen = %d, want 2", got)
	}
}

func TestECMPDeterministicPerFlow(t *testing.T) {
	ft := topo.NewFatTree(4, units.Gbps, 0)
	tb := BuildShortestPath(ft.Topology)
	dst := ft.HostList[15]
	edge := ft.Edges[0][0]
	choices := tb.Choices(edge, dst)
	sel := ECMP(12345)
	p1 := &packet.Packet{Flow: 1, Dst: dst}
	p2 := &packet.Packet{Flow: 1, Dst: dst, Seq: 9}
	if sel(p1, choices) != sel(p2, choices) {
		t.Error("ECMP split one flow across paths")
	}
	// Different flows spread across paths (statistically).
	counts := map[int32]int{}
	for fid := 0; fid < 100; fid++ {
		p := &packet.Packet{Flow: packet.FlowID(fid), Dst: dst}
		counts[sel(p, choices)]++
	}
	if len(counts) != 2 {
		t.Errorf("ECMP used %d of 2 paths over 100 flows", len(counts))
	}
	for _, c := range counts {
		if c < 20 {
			t.Errorf("ECMP badly imbalanced: %v", counts)
		}
	}
}

func TestDModKConvergesPerDestination(t *testing.T) {
	ft := topo.NewFatTree(4, units.Gbps, 0)
	tb := BuildShortestPath(ft.Topology)
	dst := ft.HostList[12]
	edge := ft.Edges[0][0]
	choices := tb.Choices(edge, dst)
	sel := DModK()
	// All flows to one destination pick the same up-path.
	first := sel(&packet.Packet{Flow: 1, Dst: dst}, choices)
	for fid := 2; fid < 50; fid++ {
		if sel(&packet.Packet{Flow: packet.FlowID(fid), Dst: dst}, choices) != first {
			t.Fatal("D-mod-k split traffic to one destination")
		}
	}
	// Different destinations (on the same remote edge) can differ.
	other := ft.HostList[13]
	oc := tb.Choices(edge, other)
	if sel(&packet.Packet{Flow: 1, Dst: other}, oc) == first {
		// Not guaranteed to differ for every pair, but for adjacent host
		// IDs mod 2 it must.
		if uint32(dst)%2 == uint32(other)%2 {
			t.Skip("same residue, no assertion")
		}
		t.Error("D-mod-k did not spread destinations")
	}
}

func TestFirstPath(t *testing.T) {
	sel := FirstPath()
	if got := sel(nil, []int32{7, 3, 9}); got != 7 {
		t.Errorf("FirstPath = %d, want first element", got)
	}
}

func TestChoicesPanicsForSwitchDst(t *testing.T) {
	g := topo.New()
	a := g.AddHost("a")
	s1 := g.AddSwitch("s1")
	g.Connect(a, s1, units.Gbps, 0)
	tb := BuildShortestPath(g)
	defer func() {
		if recover() == nil {
			t.Error("Choices to a switch did not panic")
		}
	}()
	tb.Choices(a, s1)
}

// refColumn is one destination's column as BuildShortestPath built it
// before the columns shared a block: its own start and choices slices,
// filled by a reverse BFS from dst. dist[n] is n's hop count to dst (-1
// if unreachable).
type refColumn struct {
	start, choices, dist []int32
}

func refColumnBFS(t *topo.Topology, dst packet.NodeID) refColumn {
	nNodes := len(t.Nodes)
	c := refColumn{start: make([]int32, nNodes+1), dist: make([]int32, nNodes)}
	for i := range c.dist {
		c.dist[i] = -1
	}
	c.dist[dst] = 0
	queue := []packet.NodeID{dst}
	for qi := 0; qi < len(queue); qi++ {
		cur := queue[qi]
		for _, ad := range t.Adj(cur) {
			if c.dist[ad.Peer] == -1 {
				c.dist[ad.Peer] = c.dist[cur] + 1
				queue = append(queue, ad.Peer)
			}
		}
	}
	for ni := 0; ni < nNodes; ni++ {
		id := packet.NodeID(ni)
		if id != dst && c.dist[ni] != -1 {
			row := len(c.choices)
			for _, ad := range t.Adj(id) {
				if c.dist[ad.Peer] == c.dist[ni]-1 {
					c.choices = append(c.choices, int32(ad.Link))
				}
			}
			slices.Sort(c.choices[row:])
		}
		c.start[ni+1] = int32(len(c.choices))
	}
	return c
}

// multiPrioTopology is a frozen copy of the two-switch chain exp.MultiPrio
// builds, with the same node ids and link order (routing cannot import
// exp). A change to MultiPrio's topology does not reach it.
func multiPrioTopology() *topo.Topology {
	rate, delay := 40*units.Gbps, units.Microsecond
	g := topo.New()
	sw0 := g.AddSwitch("sw0")
	sw1 := g.AddSwitch("sw1")
	for _, h := range []string{"h0", "hc", "hp"} {
		g.Connect(g.AddHost(h), sw0, rate, delay)
	}
	g.Connect(sw0, sw1, rate, delay)
	for _, h := range []string{"r", "r2", "b0", "b1", "b2", "b3", "b4", "b5", "b6", "b7"} {
		g.Connect(g.AddHost(h), sw1, rate, delay)
	}
	return g
}

// TestEagerTableMatchesColumnBFS holds the one-block eager table to the
// per-destination reverse BFS it replaced: the same rows and path lengths
// for every (node, host) pair, and, once attached, a Route hook that
// hands every single-choice row its link's port.
func TestEagerTableMatchesColumnBFS(t *testing.T) {
	rate, delay := 40*units.Gbps, units.Microsecond
	for _, tc := range []struct {
		name string
		topo *topo.Topology
	}{
		{"fig2", topo.NewFig2(topo.Fig2Config{}).Topology},
		{"fig2-withB", topo.NewFig2(topo.Fig2Config{WithB: true}).Topology},
		{"fig2-edge20G", topo.NewFig2(topo.Fig2Config{EdgeRate: 20 * units.Gbps}).Topology},
		{"ring3", topo.NewRing(3, rate, delay).Topology},
		{"ring6", topo.NewRing(6, rate, delay).Topology},
		{"testbed", topo.NewTestbed(10*units.Gbps, delay).Topology},
		{"dumbbell4", topo.NewDumbbell(4, rate, delay).Topology},
		{"multiprio", multiPrioTopology()},
		{"fattree-k4", topo.NewFatTree(4, rate, delay).Topology},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.topo
			tb := BuildShortestPath(g)
			net := fabric.New(sim.New(), g, fabric.DefaultConfig())
			tb.Attach(net, FirstPath())
			pkt := &packet.Packet{}
			for _, dst := range g.Hosts() {
				ref := refColumnBFS(g, dst)
				pkt.Dst = dst
				for ni := range g.Nodes {
					node := packet.NodeID(ni)
					want := ref.choices[ref.start[ni]:ref.start[ni+1]]
					got := tb.Choices(node, dst)
					if !slices.Equal(got, want) {
						t.Fatalf("Choices(%s, %s) = %v, want %v", g.Name(node), g.Name(dst), got, want)
					}
					if g.Nodes[ni].Kind == topo.Host {
						if got, want := tb.PathLen(node, dst), int(ref.dist[ni]); got != want {
							t.Fatalf("PathLen(%s, %s) = %d, want %d", g.Name(node), g.Name(dst), got, want)
						}
					}
					if len(want) > 0 && node != dst {
						if got, want := net.Route(node, pkt), net.PortOn(node, int(want[0])); got != want {
							t.Fatalf("Route(%s→%s) = %s, want %s", g.Name(node), g.Name(dst), got.Label(), want.Label())
						}
					}
				}
			}
		})
	}
}

// TestBuildShortestPathAllocs holds the eager table of the Figure-2
// network to a few blocks whatever its number of hosts: the fairness
// hosts of WithB add rows, not allocations.
func TestBuildShortestPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race changes allocation counts")
	}
	plain := topo.NewFig2(topo.Fig2Config{}).Topology
	withB := topo.NewFig2(topo.Fig2Config{WithB: true}).Topology
	a := testing.AllocsPerRun(20, func() { BuildShortestPath(plain) })
	b := testing.AllocsPerRun(20, func() { BuildShortestPath(withB) })
	t.Logf("Fig 2 %.0f, with B %.0f allocations", a, b)
	if a > 8 {
		t.Errorf("BuildShortestPath(Fig 2) takes %.0f allocations, want at most 8", a)
	}
	if b > a {
		t.Errorf("WithB adds %.0f allocations, want none", b-a)
	}
}
