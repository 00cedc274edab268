package topo

import (
	"fmt"
	"testing"

	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/units"
)

// TestGeneratedNames holds every name the fat-tree and leaf–spine
// builders render on demand to the strings they formatted per node when
// they added it, in build order, and every name back to its node.
func TestGeneratedNames(t *testing.T) {
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
