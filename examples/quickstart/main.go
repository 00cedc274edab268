// Quickstart: build a tiny lossless Ethernet by hand, attach a TCD
// detector (built through the root package, github.com/tcdnet/tcd) to
// the bottleneck port, run a 2:1 incast, and watch the ternary state
// machine go from non-congestion to congestion while the queue builds
// and back once the flows finish. The bottleneck feeds a host, which
// never pauses it, so no packet here is marked undetermined (UE); fig12
// and fig13 show that state.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"os"

	"github.com/tcdnet/tcd"
	"github.com/tcdnet/tcd/internal/fabric"
	"github.com/tcdnet/tcd/internal/host"
	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/pfc"
	"github.com/tcdnet/tcd/internal/routing"
	"github.com/tcdnet/tcd/internal/sim"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

func main() { run(os.Stdout) }

// outcome is what one run leaves behind.
type outcome struct {
	det        *tcd.Detector
	flows      [2]*host.Flow
	bottleneck *fabric.Port
}

// run builds the network, runs the incast to completion and prints what
// the detector saw to w.
func run(w io.Writer) outcome {
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
	params := tcd.CEEParams(packet.MTU, rate, units.Microsecond)
	det := tcd.New(tcd.Config{
		MaxTon:     tcd.MaxTonCEE(params, tcd.RecommendedEps),
		CongThresh: 30 * units.KB,
		LowThresh:  5 * units.KB,
	})
	det.RecordTransitions()
	bottleneck.AttachDetector(0, det)
	fmt.Fprintf(w, "max(Ton) from the ON-OFF model: %v\n\n", det.Config().MaxTon)

	// 4. Endpoints and traffic: a 2:1 incast of 400 KB each.
	mgr := host.Install(net, host.Config{})
	o := outcome{det: det, bottleneck: bottleneck}
	o.flows[0] = mgr.AddFlow(a, r, 400*units.KB, 0, host.FixedRate(rate))
	o.flows[1] = mgr.AddFlow(b, r, 400*units.KB, 0, host.FixedRate(rate))

	// 5. Watch the detector while the run progresses.
	for t := units.Time(0); t <= 300*units.Microsecond; t += 30 * units.Microsecond {
		sched.At(t, func() {
			fmt.Fprintf(w, "t=%-8v state=%-14v queue=%v\n", t, det.State(), bottleneck.TotalQueueBytes())
		})
	}
	sched.Run()

	fmt.Fprintln(w, "\ntransitions:")
	for _, tr := range det.Transitions() {
		fmt.Fprintf(w, "  %-10v %v -> %v\n", tr.At, tr.From, tr.To)
	}
	fmt.Fprintln(w)
	for i, f := range o.flows {
		fmt.Fprintf(w, "flow %c: done=%v fct=%v ce=%d ue=%d\n", 'a'+i, f.Done, f.FCT, f.CEPackets(), f.UEPackets())
	}
	fmt.Fprintf(w, "bottleneck marked: CE=%d UE=%d\n", bottleneck.MarkedCE, bottleneck.MarkedUE)
	return o
}
