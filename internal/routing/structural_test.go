package routing

import (
	"fmt"
	"slices"
	"testing"

	"github.com/tcdnet/tcd/internal/fabric"
	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/sim"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

// tableCase pairs a table under test with the reference it must equal.
// A structural table is held to the eager BFS table; the eager table
// itself (src nil) is held to an all-pairs-distance oracle that shares no
// code with it.
type tableCase struct {
	name string
	topo *topo.Topology
	src  RowSource
}

func tableCases() []tableCase {
	rate, delay := 40*units.Gbps, 4*units.Microsecond
	fig2 := topo.NewFig2(topo.Fig2Config{WithB: true})
	ring := topo.NewRing(5, rate, delay)
	ft4 := topo.NewFatTree(4, rate, delay)
	ft8 := topo.NewFatTree(8, rate, delay)
	ls := topo.NewLeafSpine(4, 4, 8, rate, delay)
	return []tableCase{
		{"fig2", fig2.Topology, nil},
		{"ring5", ring.Topology, nil},
		{"fattree-k4-bfs", ft4.Topology, nil},
		{"fattree-k4-structural", ft4.Topology, FatTreeColumns(ft4)},
		{"fattree-k8-structural", ft8.Topology, FatTreeColumns(ft8)},
		{"leafspine-4x4x8-bfs", ls.Topology, nil},
		{"leafspine-4x4x8-structural", ls.Topology, LeafSpineColumns(ls)},
	}
}

// lookup is the part of a table the property tests compare.
type lookup interface {
	Choices(node, dst packet.NodeID) []int32
	PathLen(src, dst packet.NodeID) int
}

// tables returns the table under test and its reference.
func (tc tableCase) tables() (got, want lookup) {
	eager := BuildShortestPath(tc.topo)
	if tc.src != nil {
		return NewStructural(tc.topo, tc.src), eager
	}
	return eager, newDistOracle(tc.topo)
}

// distOracle answers from Floyd–Warshall hop distances: a link is a next
// hop of node toward dst iff its far end is one hop closer.
type distOracle struct {
	topo *topo.Topology
	dist [][]int
}

func newDistOracle(t *topo.Topology) *distOracle {
	n := len(t.Nodes)
	const inf = 1 << 20
	d := make([][]int, n)
	for i := range d {
		d[i] = make([]int, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = inf
			}
		}
	}
	for _, l := range t.Links {
		d[l.A][l.B], d[l.B][l.A] = 1, 1
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d[i][k]+d[k][j] < d[i][j] {
					d[i][j] = d[i][k] + d[k][j]
				}
			}
		}
	}
	return &distOracle{t, d}
}

func (o *distOracle) Choices(node, dst packet.NodeID) []int32 {
	var row []int32
	for li, l := range o.topo.Links {
		far := l.B
		if l.B == node {
			far = l.A
		} else if l.A != node {
			continue
		}
		if o.dist[far][dst] == o.dist[node][dst]-1 {
			row = append(row, int32(li))
		}
	}
	return row
}

func (o *distOracle) PathLen(src, dst packet.NodeID) int { return o.dist[src][dst] }

// TestLazyChoicesMatchEager asserts, for every (node, host) pair, that
// the table under test returns the reference's row exactly. (The three
// TestLazy* names predate structural rows; nothing here is lazy.)
func TestLazyChoicesMatchEager(t *testing.T) {
	for _, tc := range tableCases() {
		t.Run(tc.name, func(t *testing.T) {
			got, want := tc.tables()
			for _, dst := range tc.topo.Hosts() {
				for _, n := range tc.topo.Nodes {
					if g, w := got.Choices(n.ID, dst), want.Choices(n.ID, dst); !slices.Equal(g, w) {
						t.Fatalf("Choices(%s→%s): got %v, want %v",
							tc.topo.Name(n.ID), tc.topo.Name(dst), g, w)
					}
				}
			}
		})
	}
}

// TestLazySelectorsMatchEager drives every selector (FirstPath, ECMP
// across salts, DModK) over synthetic packets and asserts the table under
// test picks the same link as the reference — the property that makes
// event traces independent of the kind of table.
func TestLazySelectorsMatchEager(t *testing.T) {
	for _, tc := range tableCases() {
		t.Run(tc.name, func(t *testing.T) {
			got, want := tc.tables()
			sels := map[string]Selector{
				"first":   FirstPath(),
				"ecmp-1":  ECMP(1),
				"ecmp-7":  ECMP(7),
				"ecmp-99": ECMP(99),
				"dmodk":   DModK(),
			}
			for fi := 0; fi < 8; fi++ {
				pkt := &packet.Packet{Flow: packet.FlowID(fi)}
				for _, dst := range tc.topo.Hosts() {
					pkt.Dst = dst
					for _, n := range tc.topo.Nodes {
						w := want.Choices(n.ID, dst)
						if len(w) == 0 {
							continue
						}
						g := got.Choices(n.ID, dst)
						for name, sel := range sels {
							if wl, gl := sel(pkt, w), sel(pkt, g); wl != gl {
								t.Fatalf("%s at %s→%s flow %d: picked link %d, reference %d",
									name, tc.topo.Name(n.ID), tc.topo.Name(dst), fi, gl, wl)
							}
						}
					}
				}
			}
		})
	}
}

// TestLazyPathLenMatchesEager pins PathLen (used for ideal-FCT baselines)
// to the reference.
func TestLazyPathLenMatchesEager(t *testing.T) {
	for _, tc := range tableCases() {
		t.Run(tc.name, func(t *testing.T) {
			got, want := tc.tables()
			hosts := tc.topo.Hosts()
			for _, src := range hosts {
				for _, dst := range hosts {
					if g, w := got.PathLen(src, dst), want.PathLen(src, dst); g != w {
						t.Fatalf("PathLen(%s,%s): got %d, want %d",
							tc.topo.Name(src), tc.topo.Name(dst), g, w)
					}
				}
			}
		})
	}
}

// TestLazyMemoryBelowEager sanity-checks the memory accounting the
// -topo-stats flag reports: a structural table holds no per-destination
// state, so at k=16 it sits far below the eager estimate and is the same
// size after every one of its 1024 destinations has been routed to.
func TestLazyMemoryBelowEager(t *testing.T) {
	ft := topo.NewFatTree(16, 40*units.Gbps, 4*units.Microsecond)
	tb := NewStructural(ft.Topology, FatTreeColumns(ft))
	tb.Attach(fabric.New(sim.New(), ft.Topology, fabric.DefaultConfig()), DModK())
	before := tb.LiveBytes()
	for _, dst := range ft.HostList {
		for _, n := range ft.Nodes {
			tb.Choices(n.ID, dst)
		}
	}
	live, eager := tb.LiveBytes(), tb.EagerBytesEstimate()
	if live != before {
		t.Errorf("LiveBytes %d -> %d after touching all %d destinations", before, live, len(ft.HostList))
	}
	if live <= 0 || live*10 > eager {
		t.Errorf("structural table (%d B) not 10x below the eager estimate (%d B)", live, eager)
	}
}

// TestEagerEstimateSideEffectFree pins that estimating changes nothing,
// and that a structural table's estimate is the eager table's.
func TestEagerEstimateSideEffectFree(t *testing.T) {
	ls := topo.NewLeafSpine(4, 2, 4, 40*units.Gbps, 4*units.Microsecond)
	rows, eager := NewStructural(ls.Topology, LeafSpineColumns(ls)), BuildShortestPath(ls.Topology)
	for _, tb := range []*Table{rows, eager} {
		before := tb.LiveBytes()
		_ = tb.EagerBytesEstimate()
		if after := tb.LiveBytes(); after != before {
			t.Errorf("estimate changed LiveBytes %d -> %d", before, after)
		}
	}
	if r, e := rows.EagerBytesEstimate(), eager.EagerBytesEstimate(); r != e {
		t.Errorf("eager estimate: structural table says %d B, eager table %d B", r, e)
	}
}

// TestStructuralLookupAllocs pins the structural path at zero
// allocations, for a bare Choices and for a lookup routed through the
// fabric's Route hook (single-choice and selector rows alike).
func TestStructuralLookupAllocs(t *testing.T) {
	ft := topo.NewFatTree(8, 40*units.Gbps, 4*units.Microsecond)
	tb := NewStructural(ft.Topology, FatTreeColumns(ft))
	net := fabric.New(sim.New(), ft.Topology, fabric.DefaultConfig())
	tb.Attach(net, ECMP(3))
	nodes := []packet.NodeID{ft.Edges[0][0], ft.Aggs[0][1], ft.Cores[5], ft.Edges[7][3]}
	pkt := &packet.Packet{Flow: 11}
	i := 0
	if a := testing.AllocsPerRun(1000, func() {
		i++
		tb.Choices(nodes[i&3], ft.HostList[(i*7)&127])
	}); a != 0 {
		t.Errorf("Choices: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		i++
		pkt.Dst = ft.HostList[(i*7)&127]
		if net.Route(nodes[i&3], pkt) == nil {
			t.Fatal("no route")
		}
	}); a != 0 {
		t.Errorf("routed lookup: %v allocs/op, want 0", a)
	}
}

// TestStructuralRouteMatchesEager asserts the attached Route hooks of a
// structural and an eager table hand back the same port for every
// (switch, destination) under each selector.
func TestStructuralRouteMatchesEager(t *testing.T) {
	ft := topo.NewFatTree(4, 40*units.Gbps, 4*units.Microsecond)
	for name, sel := range map[string]Selector{"ecmp": ECMP(5), "dmodk": DModK()} {
		net := fabric.New(sim.New(), ft.Topology, fabric.DefaultConfig())
		BuildShortestPath(ft.Topology).Attach(net, sel)
		eager := net.Route
		NewStructural(ft.Topology, FatTreeColumns(ft)).Attach(net, sel)
		for fi := 0; fi < 4; fi++ {
			pkt := &packet.Packet{Flow: packet.FlowID(fi)}
			for _, dst := range ft.HostList {
				pkt.Dst = dst
				for _, sw := range ft.Switches() {
					if g, w := net.Route(sw, pkt), eager(sw, pkt); g != w {
						t.Fatalf("%s: Route(%s→%s) flow %d: got %s, want %s",
							name, ft.Name(sw), ft.Name(dst), fi, g.Label(), w.Label())
					}
				}
			}
		}
	}
}

func BenchmarkStructuralLookup(b *testing.B) {
	for _, k := range []int{8, 16} {
		ft := topo.NewFatTree(k, 40*units.Gbps, 4*units.Microsecond)
		tb := NewStructural(ft.Topology, FatTreeColumns(ft))
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tb.Choices(ft.Edges[0][0], ft.HostList[i%len(ft.HostList)])
			}
		})
	}
}
