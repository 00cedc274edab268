// Package routing computes forwarding tables over a topology and adapts
// them to the fabric: static shortest-path, per-flow ECMP hashing, and the
// deterministic D-mod-k scheme the paper uses for InfiniBand fat-trees.
//
// A table answers "which equal-cost links lead from node toward dst" in
// one of two ways. An unstructured topology gets the eager table
// (BuildShortestPath): one compressed-sparse-row column per destination
// host, filled by a reverse BFS at build time. A fat-tree or leaf–spine
// gets a structural table (NewStructural): the next hop is a function of
// (role, pod, index), so a row is a subslice of the per-node link tables
// the RowSource holds and no per-destination state exists at all. The two
// agree row for row (property-tested), so route decisions — and therefore
// event traces — do not depend on which kind of table a rig uses.
package routing

import (
	"fmt"
	"slices"

	"github.com/tcdnet/tcd/internal/fabric"
	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/topo"
)

// RowSource derives next-hop rows from a topology's regular wiring,
// without graph search or per-destination state. Row returns node's
// equal-cost link indices toward host dst in ascending order — exactly
// the row a reverse BFS from dst computes — as a subslice of storage the
// source owns: callers must not modify it. Bytes is the source's heap
// footprint.
type RowSource interface {
	Row(node, dst packet.NodeID) []int32
	Bytes() int64
}

// column is one destination's CSR next-hop table: row n of the table is
// choices[start[n]:start[n+1]], ascending link indices. ports caches the
// resolved egress port for single-choice rows once the table is attached
// to a fabric (nil until first routed through).
type column struct {
	start   []int32
	choices []int32
	ports   []*fabric.Port
}

// Table holds, for every (node, destination host) pair, the sorted set of
// equal-cost next-hop links: eager CSR columns, or rows derived on demand
// from a RowSource.
type Table struct {
	topo *topo.Topology
	// hostOf maps NodeID -> dense host index (-1 for non-hosts) so the
	// per-hop lookup stays off any map.
	hostOf []int32
	hosts  []packet.NodeID

	// Eager tables: cols[hi] is host hi's column. Nil on a structural
	// table.
	cols []column
	// Structural tables: rows answers every lookup. Once attached,
	// linkPorts[2*l] and [2*l+1] are the ports on link l owned by its A
	// and B endpoints.
	rows      RowSource
	linkPorts []*fabric.Port

	net *fabric.Network
}

func newTable(t *topo.Topology) *Table {
	tb := &Table{topo: t}
	tb.hosts = t.Hosts()
	tb.hostOf = make([]int32, len(t.Nodes))
	for i := range tb.hostOf {
		tb.hostOf[i] = -1
	}
	for hi, h := range tb.hosts {
		tb.hostOf[h] = int32(hi)
	}
	return tb
}

// BuildShortestPath computes equal-cost shortest-path sets with a reverse
// BFS from every host. This is the table of every unstructured rig and
// the reference structural rows must reproduce exactly.
func BuildShortestPath(t *topo.Topology) *Table {
	tb := newTable(t)
	tb.cols = make([]column, len(tb.hosts))
	nNodes := len(t.Nodes)
	dist := make([]int32, nNodes)
	queue := make([]packet.NodeID, 0, nNodes)
	for hi, h := range tb.hosts {
		for i := range dist {
			dist[i] = -1
		}
		dist[h] = 0
		queue = append(queue[:0], h)
		for qi := 0; qi < len(queue); qi++ {
			cur := queue[qi]
			for _, ad := range t.Adj(cur) {
				if dist[ad.Peer] == -1 {
					dist[ad.Peer] = dist[cur] + 1
					queue = append(queue, ad.Peer)
				}
			}
		}
		c := &tb.cols[hi]
		c.start = make([]int32, nNodes+1)
		for ni := 0; ni < nNodes; ni++ {
			id := packet.NodeID(ni)
			if id != h && dist[ni] != -1 {
				row := len(c.choices)
				for _, ad := range t.Adj(id) {
					if dist[ad.Peer] == dist[ni]-1 {
						c.choices = append(c.choices, int32(ad.Link))
					}
				}
				slices.Sort(c.choices[row:])
			}
			c.start[ni+1] = int32(len(c.choices))
		}
	}
	return tb
}

// NewStructural returns a table that answers every lookup from src: no
// column is ever built, so its footprint is O(nodes + links) whatever the
// number of destinations touched.
func NewStructural(t *topo.Topology, src RowSource) *Table {
	tb := newTable(t)
	tb.rows = src
	return tb
}

// NewLazy is NewStructural under its former name. The column cap is
// ignored: there are no columns to bound.
//
// Deprecated: kept only because benchmark/probes.go, which a PR that
// claims a gain may not edit, still calls it.
func NewLazy(t *topo.Topology, src RowSource, _ int) *Table {
	return NewStructural(t, src)
}

// NumHosts returns the number of destinations the table spans.
func (tb *Table) NumHosts() int { return len(tb.hosts) }

// LiveBytes returns the table's heap footprint: the fixed per-node
// overhead plus the eager columns or the structural source, and the port
// caches once attached.
func (tb *Table) LiveBytes() int64 {
	b := int64(4*len(tb.hostOf) + 8*len(tb.hosts))
	b += int64(8 * len(tb.linkPorts))
	if tb.rows != nil {
		b += tb.rows.Bytes()
	}
	for i := range tb.cols {
		c := &tb.cols[i]
		b += int64(4*(len(c.start)+cap(c.choices)) + 8*len(c.ports))
	}
	return b
}

// EagerBytesEstimate estimates what BuildShortestPath's columns would
// occupy on this topology, by sizing a small sample of destinations. The
// estimate includes the per-column port cache only when the table is
// attached to a fabric, so it is comparable with LiveBytes.
func (tb *Table) EagerBytesEstimate() int64 {
	nHosts := len(tb.hosts)
	if nHosts == 0 {
		return 0
	}
	n := min(8, nHosts)
	nNodes := len(tb.hostOf)
	var total int64
	for i := 0; i < n; i++ {
		dst := tb.hosts[i*(nHosts-1)/max(n-1, 1)]
		cells := nNodes + 1
		for ni := 0; ni < nNodes; ni++ {
			cells += len(tb.Choices(packet.NodeID(ni), dst))
		}
		b := int64(4 * cells)
		if tb.net != nil {
			b += int64(8 * nNodes)
		}
		total += b
	}
	return total / int64(n) * int64(nHosts)
}

// Choices returns the equal-cost next-hop links from node toward dst.
// The slice aliases table storage and must not be modified.
func (tb *Table) Choices(node, dst packet.NodeID) []int32 {
	hi := tb.hostOf[dst]
	if hi < 0 {
		panic(fmt.Sprintf("routing: destination %s is not a host", tb.topo.Name(dst)))
	}
	if tb.rows != nil {
		return tb.rows.Row(node, dst)
	}
	c := &tb.cols[hi]
	return c.choices[c.start[node]:c.start[node+1]]
}

// PathLen returns the hop count (number of links) from src host to dst
// host along shortest paths.
func (tb *Table) PathLen(src, dst packet.NodeID) int {
	if src == dst {
		return 0
	}
	hops := 0
	cur := src
	for cur != dst {
		ch := tb.Choices(cur, dst)
		if len(ch) == 0 {
			panic("routing: no path")
		}
		l := tb.topo.Links[ch[0]]
		if l.A == cur {
			cur = l.B
		} else {
			cur = l.A
		}
		hops++
		if hops > 64 {
			panic("routing: path too long")
		}
	}
	return hops
}

// Selector picks one link among equal-cost choices for a packet.
type Selector func(pkt *packet.Packet, choices []int32) int32

// FirstPath always picks the lowest-indexed link (single-path routing).
func FirstPath() Selector {
	return func(_ *packet.Packet, choices []int32) int32 { return choices[0] }
}

// ECMP hashes the flow ID (salted) so each flow pins one path; this is
// the standard CEE load-balancing the paper's Fig 16 network uses.
func ECMP(salt uint64) Selector {
	return func(pkt *packet.Packet, choices []int32) int32 {
		h := uint64(pkt.Flow)*0x9e3779b97f4a7c15 ^ salt
		h ^= h >> 29
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 32
		return choices[h%uint64(len(choices))]
	}
}

// DModK selects the path by destination modulo the fan-out — the static
// deterministic scheme (Gomez et al.) the paper uses for the InfiniBand
// fat-tree. All traffic toward one destination shares the same up-path,
// concentrating congestion trees the way the paper's Fig 17 expects.
func DModK() Selector {
	return func(pkt *packet.Packet, choices []int32) int32 {
		return choices[uint32(pkt.Dst)%uint32(len(choices))]
	}
}

// resolvePorts caches the egress port for every single-choice row of an
// eager column. Multi-choice rows stay nil and go through the selector.
// Built per column on first routed use — O(nodes), amortized across every
// packet that ever routes to this destination.
func (tb *Table) resolvePorts(c *column) {
	ports := make([]*fabric.Port, len(tb.hostOf))
	for ni := range ports {
		row := c.choices[c.start[ni]:c.start[ni+1]]
		if len(row) == 1 {
			ports[ni] = tb.net.PortOn(packet.NodeID(ni), int(row[0]))
		}
	}
	c.ports = ports
}

// Attach installs the table on a fabric network with the given selector.
// Each kind of table installs its own Route closure, so neither lookup
// branches on the other's existence. An eager table resolves single-choice
// next hops (the overwhelmingly common case outside ECMP fan-out stages)
// to port pointers once per column; a structural table resolves both ends
// of every link once, O(links), and maps a row's link to its port with two
// dense loads.
func (tb *Table) Attach(n *fabric.Network, sel Selector) {
	tb.net = n
	if tb.rows != nil {
		tb.attachRows(n, sel)
		return
	}
	n.Route = func(sw packet.NodeID, pkt *packet.Packet) *fabric.Port {
		hi := tb.hostOf[pkt.Dst]
		if hi < 0 {
			panic(fmt.Sprintf("routing: destination %s is not a host", tb.topo.Name(pkt.Dst)))
		}
		c := &tb.cols[hi]
		if c.ports == nil {
			tb.resolvePorts(c)
		}
		if p := c.ports[sw]; p != nil {
			return p
		}
		choices := c.choices[c.start[sw]:c.start[sw+1]]
		if len(choices) == 0 {
			return nil
		}
		return n.PortOn(sw, int(sel(pkt, choices)))
	}
}

func (tb *Table) attachRows(n *fabric.Network, sel Selector) {
	links := tb.topo.Links
	tb.linkPorts = make([]*fabric.Port, 2*len(links))
	for li, l := range links {
		tb.linkPorts[2*li] = n.PortOn(l.A, li)
		tb.linkPorts[2*li+1] = n.PortOn(l.B, li)
	}
	rows, hostOf, linkPorts := tb.rows, tb.hostOf, tb.linkPorts
	n.Route = func(sw packet.NodeID, pkt *packet.Packet) *fabric.Port {
		if hostOf[pkt.Dst] < 0 {
			panic(fmt.Sprintf("routing: destination %s is not a host", tb.topo.Name(pkt.Dst)))
		}
		row := rows.Row(sw, pkt.Dst)
		if len(row) == 0 {
			return nil
		}
		l := row[0]
		if len(row) > 1 {
			l = sel(pkt, row)
		}
		i := 2 * l
		if links[l].A != sw {
			i++
		}
		return linkPorts[i]
	}
}
