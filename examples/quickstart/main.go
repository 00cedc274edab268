// Quickstart: build a tiny lossless Ethernet by hand, attach a TCD
// detector to the bottleneck port, run an incast, and watch the ternary
// state machine move through undetermined and congestion states.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"github.com/tcdnet/tcd/internal/core"
	"github.com/tcdnet/tcd/internal/fabric"
	"github.com/tcdnet/tcd/internal/host"
	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/pfc"
	"github.com/tcdnet/tcd/internal/routing"
	"github.com/tcdnet/tcd/internal/sim"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

func main() {
	// 1. Topology: two senders, one receiver, one switch, 40G links.
	g := topo.New()
	sw := g.AddSwitch("sw")
	a := g.AddHost("a")
	b := g.AddHost("b")
	r := g.AddHost("r")
	rate := 40 * units.Gbps
	for _, h := range []packet.NodeID{a, b, r} {
		g.Connect(h, sw, rate, units.Microsecond)
	}

	// 2. Dataplane: event scheduler, fabric, shortest-path routing, PFC.
	sched := sim.New()
	net := fabric.New(sched, g, fabric.DefaultConfig())
	routing.BuildShortestPath(g).Attach(net, routing.FirstPath())
	pfc.Install(net, pfc.Config{Xoff: 50 * units.KB, Xon: 48 * units.KB, Headroom: 50 * units.KB})

	// 3. TCD on the bottleneck egress (switch -> r), parameterized from
	// the paper's analytic model (Eqn 3).
	bottleneck := net.PortToward(sw, r)
	params := core.CEEParams(1000, rate, units.Microsecond)
	det := core.NewTCD(core.TCDConfig{
		MaxTon:     core.MaxTonCEE(params, core.RecommendedEps),
		CongThresh: 30 * units.KB,
		LowThresh:  5 * units.KB,
	})
	det.RecordTransitions = true
	bottleneck.AttachDetector(0, det)
	fmt.Printf("max(Ton) from the ON-OFF model: %v\n\n", det.Config().MaxTon)

	// 4. Endpoints and traffic: a 2:1 incast of 400 KB each.
	mgr := host.Install(net, host.Config{})
	fa := mgr.AddFlow(a, r, 400*units.KB, 0, host.FixedRate(rate))
	fb := mgr.AddFlow(b, r, 400*units.KB, 0, host.FixedRate(rate))

	// 5. Watch the detector while the run progresses.
	for t := units.Time(0); t <= 300*units.Microsecond; t += 30 * units.Microsecond {
		t := t
		sched.At(t, func() {
			fmt.Printf("t=%-8v state=%-14v queue=%-8v paused=%v\n",
				t, det.State(), bottleneck.TotalQueueBytes(), bottleneck.Blocked(0))
		})
	}
	sched.Run()

	fmt.Println("\ntransitions:")
	for _, tr := range det.Transitions {
		fmt.Printf("  %-10v %v -> %v\n", tr.At, tr.From, tr.To)
	}
	fmt.Printf("\nflow a: done=%v fct=%v ce=%d ue=%d\n", fa.Done, fa.FCT, fa.CEPackets(), fa.UEPackets())
	fmt.Printf("flow b: done=%v fct=%v ce=%d ue=%d\n", fb.Done, fb.FCT, fb.CEPackets(), fb.UEPackets())
	fmt.Printf("bottleneck marked: CE=%d UE=%d\n", bottleneck.MarkedCE, bottleneck.MarkedUE)
}
