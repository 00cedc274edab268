package topo

import (
	"fmt"
	"testing"

	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/units"
)

// TestGeneratedNames holds every name the builders render on demand to
// the strings they formatted per node when they added it, in build order,
// and every name back to its node.
func TestGeneratedNames(t *testing.T) {
	fig2 := func(withB bool) []string {
		names := []string{"T0", "L0", "T2", "S0", "S1", "S2", "R0", "R1"}
		for i := 0; i < 15; i++ {
			names = append(names, fmt.Sprintf("A%d", i))
		}
		for i := 0; withB && i < 4; i++ {
			names = append(names, fmt.Sprintf("B%d", i))
		}
		return names
	}
	ring := func(n int) []string {
		var names []string
		for i := 0; i < n; i++ {
			names = append(names, fmt.Sprintf("s%d", i))
		}
		for i := 0; i < n; i++ {
			names = append(names, fmt.Sprintf("h%d", i))
		}
		return names
	}
	dumbbell := func(n int) []string {
		names := []string{"left", "right"}
		for i := 0; i < n; i++ {
			names = append(names, fmt.Sprintf("snd%d", i), fmt.Sprintf("rcv%d", i))
		}
		return names
	}
	fatTree := func(k int) []string {
		half := k / 2
		var names []string
		for i := 0; i < half*half; i++ {
			names = append(names, fmt.Sprintf("core%d", i))
		}
		for p := 0; p < k; p++ {
			for i := 0; i < half; i++ {
				names = append(names, fmt.Sprintf("agg%d_%d", p, i))
			}
			for i := 0; i < half; i++ {
				names = append(names, fmt.Sprintf("edge%d_%d", p, i))
			}
			for i := 0; i < half; i++ {
				for h := 0; h < half; h++ {
					names = append(names, fmt.Sprintf("h%d_%d_%d", p, i, h))
				}
			}
		}
		return names
	}
	leafSpine := func(nLeaf, nSpine, hostsPerLeaf int) []string {
		var names []string
		for i := 0; i < nSpine; i++ {
			names = append(names, fmt.Sprintf("spine%d", i))
		}
		for i := 0; i < nLeaf; i++ {
			names = append(names, fmt.Sprintf("leaf%d", i))
			for h := 0; h < hostsPerLeaf; h++ {
				names = append(names, fmt.Sprintf("h%d_%d", i, h))
			}
		}
		return names
	}
	for _, tc := range []struct {
		name string
		topo *Topology
		want []string
	}{
		{"fat-tree k=4", NewFatTree(4, 40*units.Gbps, units.Microsecond).Topology, fatTree(4)},
		{"fat-tree k=8", NewFatTree(8, 40*units.Gbps, units.Microsecond).Topology, fatTree(8)},
		{"leaf-spine 4x4x8", NewLeafSpine(4, 4, 8, 40*units.Gbps, units.Microsecond).Topology, leafSpine(4, 4, 8)},
		{"fig2", NewFig2(Fig2Config{}).Topology, fig2(false)},
		{"fig2 with B", NewFig2(Fig2Config{WithB: true}).Topology, fig2(true)},
		{"testbed", NewTestbed(10*units.Gbps, units.Microsecond).Topology, []string{"T0", "T2", "S0", "S1", "A0", "R0", "R1"}},
		{"ring 3", NewRing(3, 40*units.Gbps, units.Microsecond).Topology, ring(3)},
		{"ring 12", NewRing(12, 40*units.Gbps, units.Microsecond).Topology, ring(12)},
		{"dumbbell 12", NewDumbbell(12, 40*units.Gbps, units.Microsecond).Topology, dumbbell(12)},
	} {
		if len(tc.topo.Nodes) != len(tc.want) {
			t.Fatalf("%s: %d nodes, want %d", tc.name, len(tc.topo.Nodes), len(tc.want))
		}
		for i, want := range tc.want {
			n := tc.topo.Nodes[i]
			if got := tc.topo.Name(n.ID); got != want {
				t.Errorf("%s: node %d is %q, want %q", tc.name, i, got, want)
			}
			if id, ok := tc.topo.Lookup(want); !ok || id != n.ID {
				t.Errorf("%s: Lookup(%q) = %d, %v; want %d", tc.name, want, id, ok, n.ID)
			}
		}
	}
}

// TestFatTreeHostPos decodes every host's position from its ID.
func TestFatTreeHostPos(t *testing.T) {
	ft := NewFatTree(8, 40*units.Gbps, units.Microsecond)
	for i, h := range ft.HostList {
		pod, edge, idx := ft.HostPos(h)
		if want := fmt.Sprintf("h%d_%d_%d", pod, edge, idx); ft.Name(h) != want || ft.Edges[pod][edge] != ft.Adj(h)[0].Peer || i != (pod*4+edge)*4+idx {
			t.Errorf("host %d (%s) decoded as (%d, %d, %d)", i, ft.Name(h), pod, edge, idx)
		}
	}
	for _, sw := range []int{0, int(ft.Edges[3][1]), len(ft.Nodes)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("HostPos(%d) did not panic on a non-host", sw)
				}
			}()
			ft.HostPos(packet.NodeID(sw))
		}()
	}
}

// TestNewFatTreeAllocsFlat holds the fat-tree builder to a number of
// allocations that does not grow with its nodes: tables are sized once
// and no node's name is formatted until it is asked for.
func TestNewFatTreeAllocsFlat(t *testing.T) {
	build := func(k int) float64 {
		return testing.AllocsPerRun(2, func() { NewFatTree(k, 40*units.Gbps, units.Microsecond) })
	}
	k4, k16 := build(4), build(16)
	t.Logf("k=4 %.0f, k=16 %.0f allocations", k4, k16)
	if k16 > 2*k4 {
		t.Errorf("k=16 (1 344 nodes) takes %.0f allocations, k=4 (36 nodes) %.0f", k16, k4)
	}
}

// TestNewFig2Allocs holds the Figure-2 builder to its tables, sized once:
// no node is grown into place or named by formatting, so the fairness
// hosts of WithB cost no allocation.
func TestNewFig2Allocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race changes allocation counts")
	}
	for _, cfg := range []Fig2Config{{}, {WithB: true}, {EdgeRate: 20 * units.Gbps}} {
		if a := testing.AllocsPerRun(20, func() { NewFig2(cfg) }); a > 10 {
			t.Errorf("NewFig2(%+v) takes %.0f allocations, want at most 10", cfg, a)
		}
	}
}
