// Structural row sources: fat-tree and leaf–spine next hops derived from
// the builders' regular wiring instead of per-destination graph search.
// A row costs O(1) — a role switch and a subslice of a per-node link
// table — allocates nothing and leaves nothing behind, so a structural
// table is the same size after one destination as after all of them. The
// property tests in structural_test.go pin these rules to the BFS
// reference row by row.
package routing

import (
	"slices"

	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/topo"
)

// Node roles in the structural tables.
const (
	roleHost uint8 = iota
	roleEdge
	roleAgg
	roleCore
	roleLeaf
	roleSpine
)

// linkTableBytes is the heap footprint of a per-node table of link rows.
func linkTableBytes(t [][]int32) int64 {
	b := int64(24 * len(t))
	for _, row := range t {
		b += int64(4 * cap(row))
	}
	return b
}

// appendCap is the capacity a row reaches when n links are appended to it
// one at a time.
func appendCap(n int) int {
	var row []int32
	for range n {
		row = append(row, 0)
	}
	return cap(row)
}

// fatTreeRows derives fat-tree rows. For a destination host on edge E in
// pod P the shortest-path DAG is: the destination's own edge forwards on
// the access link; any other edge fans out over all its k/2 aggs; an agg
// inside pod P forwards on its one link to E, an agg in another pod fans
// out over all its k/2 cores; a core has exactly one agg in pod P (agg i
// serves cores [i·k/2, (i+1)·k/2)); every other host forwards on its NIC
// link.
type fatTreeRows struct {
	role    []uint8
	pod     []int32 // pod of a host/edge/agg (unused for cores)
	tierIdx []int32 // edge index within the pod of an edge / of a host's edge
	access  []int32 // a host's NIC link
	up      [][]int32
	// down[agg node] is indexed by edge index within the agg's pod;
	// down[core node] is indexed by pod.
	down [][]int32
}

// FatTreeColumns returns the structural RowSource for a fat-tree. (The
// name predates rows; benchmark/probes.go calls it.)
func FatTreeColumns(ft *topo.FatTree) RowSource {
	n := len(ft.Nodes)
	s := &fatTreeRows{
		role:    make([]uint8, n),
		pod:     make([]int32, n),
		tierIdx: make([]int32, n),
		access:  make([]int32, n),
		up:      make([][]int32, n),
		down:    make([][]int32, n),
	}
	half := ft.K / 2
	// Every row is carved from one array. An up row gets the capacity
	// that appending its links one at a time gives: Bytes counts
	// capacity, and route_table_bytes is part of every fat-tree result.
	upCap := appendCap(half)
	nPod := ft.K * half
	buf := make([]int32, 0, len(ft.Cores)*ft.K+nPod*half+2*nPod*upCap)
	carve := func(length, capacity int) []int32 {
		n := len(buf)
		buf = buf[:n+capacity]
		return buf[n : n+length : n+capacity]
	}
	for _, c := range ft.Cores {
		s.role[c] = roleCore
		s.down[c] = carve(ft.K, ft.K)
	}
	for p := range ft.Edges {
		for i, e := range ft.Edges[p] {
			s.role[e] = roleEdge
			s.pod[e] = int32(p)
			s.tierIdx[e] = int32(i)
		}
		for _, a := range ft.Aggs[p] {
			s.role[a] = roleAgg
			s.pod[a] = int32(p)
			s.down[a] = carve(half, half)
			s.up[a] = carve(0, upCap)
		}
	}
	for _, h := range ft.HostList {
		pod, edge, _ := ft.HostPos(h)
		s.role[h] = roleHost
		s.pod[h] = int32(pod)
		s.tierIdx[h] = int32(edge)
		s.access[h] = int32(ft.Adj(h)[0].Link)
	}
	for _, row := range ft.Edges {
		for _, e := range row {
			s.up[e] = carve(0, upCap)
			for _, ad := range ft.Adj(e) {
				if s.role[ad.Peer] == roleAgg {
					s.up[e] = append(s.up[e], int32(ad.Link))
				}
			}
			slices.Sort(s.up[e])
		}
	}
	for _, row := range ft.Aggs {
		for _, a := range row {
			for _, ad := range ft.Adj(a) {
				switch s.role[ad.Peer] {
				case roleCore:
					s.up[a] = append(s.up[a], int32(ad.Link))
					s.down[ad.Peer][s.pod[a]] = int32(ad.Link)
				case roleEdge:
					s.down[a][s.tierIdx[ad.Peer]] = int32(ad.Link)
				}
			}
			slices.Sort(s.up[a])
		}
	}
	return s
}

// Row implements RowSource.
func (s *fatTreeRows) Row(node, dst packet.NodeID) []int32 {
	switch s.role[node] {
	case roleHost:
		if node == dst {
			return nil
		}
		return s.access[node : node+1]
	case roleEdge:
		if s.pod[node] == s.pod[dst] && s.tierIdx[node] == s.tierIdx[dst] {
			return s.access[dst : dst+1]
		}
		return s.up[node]
	case roleAgg:
		if s.pod[node] == s.pod[dst] {
			e := s.tierIdx[dst]
			return s.down[node][e : e+1]
		}
		return s.up[node]
	default: // roleCore
		p := s.pod[dst]
		return s.down[node][p : p+1]
	}
}

// Bytes implements RowSource.
func (s *fatTreeRows) Bytes() int64 {
	return int64(len(s.role)+4*(len(s.pod)+len(s.tierIdx)+len(s.access))) +
		linkTableBytes(s.up) + linkTableBytes(s.down)
}

// leafSpineRows derives leaf–spine rows. Toward a host on leaf L: the
// destination's leaf forwards on the access link, any other leaf fans out
// over all its spine uplinks, and a spine forwards on its one link down
// to L.
type leafSpineRows struct {
	role    []uint8
	leafIdx []int32 // a host's leaf index / a leaf's own index
	access  []int32
	up      [][]int32
	down    [][]int32 // down[spine node] is indexed by leaf index
}

// LeafSpineColumns returns the structural RowSource for a leaf–spine.
func LeafSpineColumns(ls *topo.LeafSpine) RowSource {
	n := len(ls.Nodes)
	s := &leafSpineRows{
		role:    make([]uint8, n),
		leafIdx: make([]int32, n),
		access:  make([]int32, n),
		up:      make([][]int32, n),
		down:    make([][]int32, n),
	}
	for _, sp := range ls.Spines {
		s.role[sp] = roleSpine
		s.down[sp] = make([]int32, len(ls.Leaves))
	}
	for i, l := range ls.Leaves {
		s.role[l] = roleLeaf
		s.leafIdx[l] = int32(i)
	}
	for i, l := range ls.Leaves {
		for _, ad := range ls.Adj(l) {
			switch s.role[ad.Peer] {
			case roleSpine:
				s.up[l] = append(s.up[l], int32(ad.Link))
				s.down[ad.Peer][i] = int32(ad.Link)
			case roleHost:
				s.role[ad.Peer] = roleHost
				s.leafIdx[ad.Peer] = int32(i)
				s.access[ad.Peer] = int32(ad.Link)
			}
		}
		slices.Sort(s.up[l])
	}
	return s
}

// Row implements RowSource.
func (s *leafSpineRows) Row(node, dst packet.NodeID) []int32 {
	switch s.role[node] {
	case roleHost:
		if node == dst {
			return nil
		}
		return s.access[node : node+1]
	case roleLeaf:
		if s.leafIdx[node] == s.leafIdx[dst] {
			return s.access[dst : dst+1]
		}
		return s.up[node]
	default: // roleSpine
		l := s.leafIdx[dst]
		return s.down[node][l : l+1]
	}
}

// Bytes implements RowSource.
func (s *leafSpineRows) Bytes() int64 {
	return int64(len(s.role)+4*(len(s.leafIdx)+len(s.access))) +
		linkTableBytes(s.up) + linkTableBytes(s.down)
}
