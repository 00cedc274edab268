// Package topo describes network topologies: nodes (hosts and switches)
// and the links between them. Builders for the paper's topologies live in
// builders.go; routing tables over a Topology are computed by package
// routing.
package topo

import (
	"fmt"

	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/units"
)

// NodeKind distinguishes hosts (traffic endpoints) from switches.
type NodeKind uint8

const (
	// Host is a traffic endpoint with a single NIC.
	Host NodeKind = iota
	// Switch forwards packets between its ports.
	Switch
)

func (k NodeKind) String() string {
	if k == Host {
		return "host"
	}
	return "switch"
}

// Node is a vertex in the topology.
type Node struct {
	ID   packet.NodeID
	Kind NodeKind
	// name is the name the node was added with; "" for a node whose
	// builder renders its name on demand (see Topology.Name).
	name string
}

// Link is a full-duplex edge between two nodes. Rate and Delay apply to
// each direction independently.
type Link struct {
	A, B  packet.NodeID
	Rate  units.Rate
	Delay units.Time
}

// Topology is an undirected multigraph of nodes and links. The zero value
// is empty and ready to use via the Add methods.
type Topology struct {
	Nodes []Node
	Links []Link
	// namer renders the name of a node added without one, from its
	// position in the builder's layout, so a builder formats no string
	// per node.
	namer func(packet.NodeID) string
	// byName indexes every node by name. It is built by the first lookup
	// by name (or the first node added with a name) and kept up to date
	// from then on.
	byName map[string]packet.NodeID
	// adj[node] lists (link index, peer) pairs.
	adj [][]Adjacency
	// adjBuf is the unused rest of the array reserve sized for the
	// adjacency lists of nodes added with a known degree.
	adjBuf []Adjacency
}

// Adjacency is one incident link of a node.
type Adjacency struct {
	Link int
	Peer packet.NodeID
}

// New returns an empty topology.
func New() *Topology { return &Topology{} }

// add adds a node; with name "" the node is named by t.namer.
func (t *Topology) add(name string, kind NodeKind) packet.NodeID {
	id := packet.NodeID(len(t.Nodes))
	if name != "" {
		if _, dup := t.index()[name]; dup {
			panic(fmt.Sprintf("topo: duplicate node name %q", name))
		}
	}
	t.Nodes = append(t.Nodes, Node{ID: id, Kind: kind, name: name})
	t.adj = append(t.adj, nil)
	if t.byName != nil {
		t.byName[t.Name(id)] = id
	}
	return id
}

// index returns the name index, building it on first use.
func (t *Topology) index() map[string]packet.NodeID {
	if t.byName == nil {
		t.byName = make(map[string]packet.NodeID, len(t.Nodes))
		for _, n := range t.Nodes {
			t.byName[t.Name(n.ID)] = n.ID
		}
	}
	return t.byName
}

// reserve sizes the node, link and adjacency tables for a builder that
// knows its totals, so that building a large topology allocates each of
// them once instead of growing them node by node and link by link.
func (t *Topology) reserve(nodes, links int) {
	t.Nodes = make([]Node, 0, nodes)
	t.Links = make([]Link, 0, links)
	t.adj = make([][]Adjacency, 0, nodes)
	t.adjBuf = make([]Adjacency, 0, 2*links)
}

// addSized adds a node whose degree the builder knows, carving its
// adjacency list from the reserved array (it grows on its own if the
// reserve is used up or the degree was too small).
func (t *Topology) addSized(name string, kind NodeKind, degree int) packet.NodeID {
	id := t.add(name, kind)
	if n := len(t.adjBuf); n+degree <= cap(t.adjBuf) {
		t.adj[id] = t.adjBuf[n : n : n+degree]
		t.adjBuf = t.adjBuf[:n+degree]
	}
	return id
}

// AddHost adds a host node and returns its ID.
func (t *Topology) AddHost(name string) packet.NodeID { return t.add(name, Host) }

// AddSwitch adds a switch node and returns its ID.
func (t *Topology) AddSwitch(name string) packet.NodeID { return t.add(name, Switch) }

// Connect adds a full-duplex link between a and b and returns its index.
func (t *Topology) Connect(a, b packet.NodeID, rate units.Rate, delay units.Time) int {
	if int(a) >= len(t.Nodes) || int(b) >= len(t.Nodes) || a < 0 || b < 0 {
		panic("topo: Connect with unknown node")
	}
	if a == b {
		panic("topo: self-link")
	}
	if rate <= 0 {
		panic("topo: non-positive link rate")
	}
	idx := len(t.Links)
	t.Links = append(t.Links, Link{A: a, B: b, Rate: rate, Delay: delay})
	t.adj[a] = append(t.adj[a], Adjacency{Link: idx, Peer: b})
	t.adj[b] = append(t.adj[b], Adjacency{Link: idx, Peer: a})
	return idx
}

// Lookup returns the node ID for a name and whether it exists.
func (t *Topology) Lookup(name string) (packet.NodeID, bool) {
	id, ok := t.index()[name]
	return id, ok
}

// Name returns the name of a node.
func (t *Topology) Name(id packet.NodeID) string {
	if n := t.Nodes[id].name; n != "" || t.namer == nil {
		return n
	}
	return t.namer(id)
}

// Adj returns the adjacency list of a node.
func (t *Topology) Adj(id packet.NodeID) []Adjacency { return t.adj[id] }

// Hosts returns the IDs of all host nodes in insertion order, in one
// allocation.
func (t *Topology) Hosts() []packet.NodeID {
	n := 0
	for i := range t.Nodes {
		if t.Nodes[i].Kind == Host {
			n++
		}
	}
	out := make([]packet.NodeID, 0, n)
	for i := range t.Nodes {
		if t.Nodes[i].Kind == Host {
			out = append(out, t.Nodes[i].ID)
		}
	}
	return out
}

// LinkBetween returns the index of a link between a and b, or -1.
func (t *Topology) LinkBetween(a, b packet.NodeID) int {
	for _, ad := range t.adj[a] {
		if ad.Peer == b {
			return ad.Link
		}
	}
	return -1
}
