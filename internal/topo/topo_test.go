package topo

import (
	"fmt"
	"testing"

	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/units"
)

// Validate checks structural invariants: hosts have exactly one link and
// the graph is connected. It returns an error describing the first
// violation found.
func (t *Topology) Validate() error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("topology has no nodes")
	}
	for _, n := range t.Nodes {
		if n.Kind == Host && len(t.adj[n.ID]) != 1 {
			return fmt.Errorf("host %s has %d links, want 1", t.Name(n.ID), len(t.adj[n.ID]))
		}
	}
	// Connectivity via BFS.
	seen := make([]bool, len(t.Nodes))
	queue := []packet.NodeID{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, ad := range t.adj[cur] {
			if !seen[ad.Peer] {
				seen[ad.Peer] = true
				count++
				queue = append(queue, ad.Peer)
			}
		}
	}
	if count != len(t.Nodes) {
		return fmt.Errorf("topology is disconnected: reached %d of %d nodes", count, len(t.Nodes))
	}
	return nil
}

func TestBasicGraph(t *testing.T) {
	g := New()
	a := g.AddHost("a")
	s := g.AddSwitch("s")
	b := g.AddHost("b")
	l1 := g.Connect(a, s, 40*units.Gbps, units.Microsecond)
	l2 := g.Connect(b, s, 40*units.Gbps, units.Microsecond)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if id, ok := g.Lookup("a"); !ok || id != a || g.Name(s) != "s" {
		t.Error("name lookup broken")
	}
	if got := g.LinkBetween(a, s); got != l1 {
		t.Errorf("LinkBetween(a,s) = %d, want %d", got, l1)
	}
	if got := g.LinkBetween(s, b); got != l2 {
		t.Errorf("LinkBetween(s,b) = %d, want %d", got, l2)
	}
	if g.LinkBetween(a, b) != -1 {
		t.Error("LinkBetween for non-adjacent nodes should be -1")
	}
	if len(g.Hosts()) != 2 || len(g.Nodes) != 3 {
		t.Error("Hosts/Switches counts wrong")
	}
	if _, ok := g.Lookup("nope"); ok {
		t.Error("Lookup of missing node returned ok")
	}
}

func TestValidateCatchesDisconnected(t *testing.T) {
	g := New()
	g.AddSwitch("s1")
	g.AddSwitch("s2")
	if err := g.Validate(); err == nil {
		t.Error("disconnected topology passed validation")
	}
}

func TestValidateCatchesMultiLinkHost(t *testing.T) {
	g := New()
	h := g.AddHost("h")
	s1 := g.AddSwitch("s1")
	s2 := g.AddSwitch("s2")
	g.Connect(h, s1, units.Gbps, 0)
	g.Connect(h, s2, units.Gbps, 0)
	g.Connect(s1, s2, units.Gbps, 0)
	if err := g.Validate(); err == nil {
		t.Error("host with two links passed validation")
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate name did not panic")
		}
	}()
	g := New()
	g.AddHost("x")
	g.AddHost("x")
}

func TestSelfLinkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("self link did not panic")
		}
	}()
	g := New()
	s := g.AddSwitch("s")
	g.Connect(s, s, units.Gbps, 0)
}

func TestFig2Structure(t *testing.T) {
	f := NewFig2(Fig2Config{})
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(f.A) != 15 {
		t.Errorf("A hosts = %d, want 15", len(f.A))
	}
	if len(f.B) != 0 {
		t.Errorf("B hosts present without WithB")
	}
	// The observed chain exists: S1-T0, T0-L0, L0-T2, T2-R1.
	for _, pair := range [][2]string{{"S1", "T0"}, {"T0", "L0"}, {"L0", "T2"}, {"R1", "T2"}, {"S2", "L0"}, {"S0", "T0"}, {"R0", "T2"}} {
		if f.LinkBetween(f.index()[pair[0]], f.index()[pair[1]]) == -1 {
			t.Errorf("missing link %s-%s", pair[0], pair[1])
		}
	}
	// A hosts are on T2.
	for _, a := range f.A {
		if f.LinkBetween(a, f.T2) == -1 {
			t.Error("burst host not on T2")
		}
	}
}

func TestFig2VictimConfig(t *testing.T) {
	f := NewFig2(Fig2Config{EdgeRate: 20 * units.Gbps, WithB: true})
	if len(f.B) != 4 {
		t.Errorf("B hosts = %d, want 4", len(f.B))
	}
	s1Link := f.Links[f.LinkS1T0]
	if s1Link.Rate != 20*units.Gbps {
		t.Errorf("S1-T0 rate = %v, want 20Gbps", s1Link.Rate)
	}
	if f.Links[f.LinkL0T2].Rate != 40*units.Gbps {
		t.Errorf("fabric link rate changed by EdgeRate")
	}
}

func TestTestbed(t *testing.T) {
	tb := NewTestbed(10*units.Gbps, units.Microsecond)
	if err := tb.Validate(); err != nil {
		t.Fatal(err)
	}
	if tb.LinkBetween(tb.T0, tb.T2) != tb.LinkT0T2 {
		t.Error("T0-T2 link index wrong")
	}
}

func TestFatTreeCounts(t *testing.T) {
	for _, k := range []int{2, 4, 6, 8, 10} {
		ft := NewFatTree(k, 40*units.Gbps, 4*units.Microsecond)
		if err := ft.Validate(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		half := k / 2
		if len(ft.Cores) != half*half {
			t.Errorf("k=%d: cores = %d, want %d", k, len(ft.Cores), half*half)
		}
		if len(ft.HostList) != k*k*k/4 {
			t.Errorf("k=%d: hosts = %d, want %d", k, len(ft.HostList), k*k*k/4)
		}
		nSwitch := half*half + k*k
		if got := len(ft.Nodes) - len(ft.HostList); got != nSwitch {
			t.Errorf("k=%d: switches = %d, want %d", k, got, nSwitch)
		}
		// Every link count: pod internal k/2*k/2 per pod * k pods, agg-core
		// k/2*k/2*k, host links k^3/4.
		wantLinks := k*half*half + k*half*half + k*k*k/4
		if len(ft.Links) != wantLinks {
			t.Errorf("k=%d: links = %d, want %d", k, len(ft.Links), wantLinks)
		}
	}
}

func TestFatTreePaperScale(t *testing.T) {
	// The paper's Fig 16 network: k=10 fat-tree with 250 servers.
	ft := NewFatTree(10, 40*units.Gbps, 4*units.Microsecond)
	if len(ft.HostList) != 250 {
		t.Errorf("k=10 hosts = %d, want 250", len(ft.HostList))
	}
	// The paper's Fig 17 network: k=16 with 1024 servers.
	ft16 := NewFatTree(16, 40*units.Gbps, 4*units.Microsecond)
	if len(ft16.HostList) != 1024 {
		t.Errorf("k=16 hosts = %d, want 1024", len(ft16.HostList))
	}
}

func TestFatTreeOddKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("odd k did not panic")
		}
	}()
	NewFatTree(3, units.Gbps, 0)
}

func TestLeafSpine(t *testing.T) {
	ls := NewLeafSpine(4, 2, 8, 40*units.Gbps, units.Microsecond)
	if err := ls.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(ls.HostList) != 32 {
		t.Errorf("hosts = %d, want 32", len(ls.HostList))
	}
	// Each leaf connects to every spine.
	for _, l := range ls.Leaves {
		for _, s := range ls.Spines {
			if ls.LinkBetween(l, s) == -1 {
				t.Error("leaf not connected to spine")
			}
		}
	}
}

func TestDumbbell(t *testing.T) {
	d := NewDumbbell(3, 10*units.Gbps, units.Microsecond)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Senders) != 3 || len(d.Receivers) != 3 {
		t.Error("dumbbell host counts wrong")
	}
	if d.Links[d.Bottleneck].Rate != 10*units.Gbps {
		t.Error("bottleneck link wrong")
	}
}
