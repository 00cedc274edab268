package exp

import (
	"fmt"

	"github.com/tcdnet/tcd/internal/core"
	"github.com/tcdnet/tcd/internal/fabric"
	"github.com/tcdnet/tcd/internal/host"
	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/pfc"
	"github.com/tcdnet/tcd/internal/routing"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

// MultiPrioConfig parameterizes the §4.5 validation: with strict-priority
// scheduling, high-priority traffic preempting a low-priority queue
// during RESUME stretches the observed OFF periods, but — as the paper
// argues — the deduced max(Ton) still upper-bounds the ON periods, so
// TCD's classification on the low priority is not disturbed.
type MultiPrioConfig struct {
	// HighLoad is the high-priority interference load (fraction of the
	// 40 Gbps line) crossing the observed port.
	HighLoad float64
	// Run is the header. The scenario builds its two-priority PFC fabric
	// by hand and draws no random numbers: only Horizon is read.
	Run
}

// DefaultMultiPrioConfig returns a 30% high-priority interference load.
func DefaultMultiPrioConfig() MultiPrioConfig {
	return MultiPrioConfig{HighLoad: 0.3, Run: Run{Horizon: 8 * units.Millisecond}}
}

// MultiPrio builds a two-priority chain: low-priority victim traffic
// (h0 -> r) shares a link with high-priority interference (hp -> r2),
// while low-priority bursts congest the last hop. The low-priority
// detector on the shared port must classify undetermined during the
// burst era and recover to non-congestion — never congestion — despite
// preemption jitter.
func MultiPrio(cfg MultiPrioConfig) *Result {
	res := NewResult("multiprio-sec4.5")
	rate := 40 * units.Gbps
	delay := units.Microsecond

	g := topo.New()
	sw0 := g.AddSwitch("sw0")
	sw1 := g.AddSwitch("sw1")
	h0 := g.AddHost("h0") // low-prio victim sender
	hc := g.AddHost("hc") // low-prio contributor (stuck at the root)
	hp := g.AddHost("hp") // high-prio interference sender
	r := g.AddHost("r")   // burst destination (low prio congestion root)
	r2 := g.AddHost("r2") // destination for victim and high-prio traffic
	g.Connect(h0, sw0, rate, delay)
	g.Connect(hc, sw0, rate, delay)
	g.Connect(hp, sw0, rate, delay)
	shared := g.Connect(sw0, sw1, rate, delay)
	g.Connect(r, sw1, rate, delay)
	g.Connect(r2, sw1, rate, delay)
	var bursters []packet.NodeID
	for i := 0; i < 8; i++ {
		b := g.AddHost(fmt.Sprintf("b%d", i))
		g.Connect(b, sw1, rate, delay)
		bursters = append(bursters, b)
	}

	s := newScheduler()
	fc := fabric.DefaultConfig()
	fc.Priorities = 2
	n := fabric.New(s, g, fc)
	routing.BuildShortestPath(g).Attach(n, routing.FirstPath())
	pfc.Install(n, pfc.Config{Xoff: 100 * units.KB, Xon: 98 * units.KB, Headroom: 100 * units.KB})

	// TCD on the shared port, low priority (priority 1; 0 is high).
	sharedPort := n.PortOn(sw0, shared)
	params := core.CEEParams(1000, rate, delay)
	det := core.NewTCD(core.TCDConfig{
		MaxTon:     core.MaxTonCEE(params, core.RecommendedEps),
		CongThresh: 200 * units.KB,
		LowThresh:  10 * units.KB,
	})
	det.RecordTransitions = true
	sharedPort.AttachDetector(1, det)

	mgr := host.Install(n, host.DefaultConfig())
	big := 1000 * units.MB

	lowVictim := mgr.AddFlow(h0, r2, big, 0, host.FixedRate(10*units.Gbps))
	mgr.SetPriority(lowVictim, 1)
	// The contributor crosses the shared port into the congested root;
	// its packets pile up at sw1 and trigger the prio-1 PAUSE that makes
	// the shared port ON-OFF.
	contributor := mgr.AddFlow(hc, r, big, 0, host.FixedRate(15*units.Gbps))
	mgr.SetPriority(contributor, 1)
	hpRate := units.Rate(cfg.HighLoad * float64(rate))
	hiFlow := mgr.AddFlow(hp, r2, big, 0, host.FixedRate(hpRate))
	mgr.SetPriority(hiFlow, 0)

	// Low-priority bursts into r for ~3 ms.
	burstStart := 200 * units.Microsecond
	for round := 0; round < 12; round++ {
		at := burstStart + units.Time(round)*units.TxTime(8*64*units.KB, rate)
		for _, b := range bursters {
			f := mgr.AddFlow(b, r, 64*units.KB, at, host.FixedRate(rate))
			mgr.SetPriority(f, 1)
		}
	}

	s.RunUntil(cfg.Horizon)

	res.Scalars["victim_ue"] = float64(lowVictim.UEPackets())
	res.Scalars["victim_ce"] = float64(lowVictim.CEPackets())
	res.Scalars["low_prio_pause_us"] = sharedPort.PauseTime.Micros()
	res.Scalars["final_state"] = float64(det.State())
	res.Scalars["time_undetermined_us"] = det.TimeIn(core.Undetermined).Micros()
	res.Scalars["time_congestion_us"] = det.TimeIn(core.Congestion).Micros()
	res.Scalars["hi_pkts"] = float64(hiFlow.PktsRxed())
	for _, tr := range det.Transitions {
		res.AddNote("shared port prio1 %v: %v -> %v", tr.At, tr.From, tr.To)
	}
	return res
}
