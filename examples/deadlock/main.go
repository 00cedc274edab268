// Deadlock demonstrates the other pathology of hop-by-hop flow control
// that the paper's related work studies: a cyclic buffer dependency.
// Three switches in a ring route three flows one hop "around the bend";
// under PFC each switch waits for buffer space at the next, forming a
// cycle that can never drain. The fabric's stranded-traffic watchdog
// calls it out.
//
//	go run ./examples/deadlock
package main

import (
	"fmt"

	"github.com/tcdnet/tcd/internal/fabric"
	"github.com/tcdnet/tcd/internal/host"
	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/pfc"
	"github.com/tcdnet/tcd/internal/sim"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

func main() {
	rate := 40 * units.Gbps
	delay := units.Microsecond

	// Ring: s0 -> s1 -> s2 -> s0, one host on each switch.
	g := topo.New()
	var sw [3]packet.NodeID
	var h [3]packet.NodeID
	for i := 0; i < 3; i++ {
		sw[i] = g.AddSwitch(fmt.Sprintf("s%d", i))
	}
	for i := 0; i < 3; i++ {
		h[i] = g.AddHost(fmt.Sprintf("h%d", i))
		g.Connect(h[i], sw[i], rate, delay)
	}
	for i := 0; i < 3; i++ {
		g.Connect(sw[i], sw[(i+1)%3], rate, delay)
	}

	s := sim.New()
	n := fabric.New(s, g, fabric.DefaultConfig())
	// Deliberately cyclic routing: every flow from h[i] targets the host
	// two hops clockwise, always forwarded clockwise — so every inter-
	// switch link carries two flows' worth of transit traffic and the
	// buffer dependencies form a loop.
	n.Route = func(at packet.NodeID, pkt *packet.Packet) *fabric.Port {
		for i := 0; i < 3; i++ {
			if at == sw[i] {
				if pkt.Dst == h[i] {
					return n.PortToward(at, pkt.Dst)
				}
				return n.PortToward(at, sw[(i+1)%3])
			}
		}
		panic("unroutable")
	}
	// Tiny PFC thresholds make the cycle close quickly.
	pfc.Install(n, pfc.Config{Xoff: 20 * units.KB, Xon: 18 * units.KB, Headroom: 20 * units.KB})

	mgr := host.Install(n, host.Config{})
	var flows []*host.Flow
	for i := 0; i < 3; i++ {
		f := mgr.AddFlow(h[i], h[(i+2)%3], 2*units.MB, 0, host.FixedRate(rate))
		flows = append(flows, f)
	}

	s.RunUntil(50 * units.Millisecond)

	done := 0
	for i, f := range flows {
		fmt.Printf("flow h%d -> %s: done=%v delivered=%v\n",
			i, g.Name(f.Dst), f.Done, f.BytesRxed())
		if f.Done {
			done++
		}
	}
	rep := n.Stranded()
	fmt.Printf("\nstranded: %v across %d ports (%d flow-control blocked)\n",
		rep.Bytes, len(rep.Ports), rep.Blocked)
	if rep.Deadlocked() {
		fmt.Println("DEADLOCK: every stranded port is waiting on PAUSE —")
		fmt.Println("a cyclic buffer dependency, the failure mode that makes")
		fmt.Println("up-down (loop-free) routing mandatory in lossless fabrics.")
	} else if done == len(flows) {
		fmt.Println("no deadlock (routing was loop-free)")
	}
}
