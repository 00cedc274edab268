package exp

import (
	"fmt"

	"github.com/tcdnet/tcd/internal/fabric"
	"github.com/tcdnet/tcd/internal/host"
	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/rng"
	"github.com/tcdnet/tcd/internal/routing"
	"github.com/tcdnet/tcd/internal/stats"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
	"github.com/tcdnet/tcd/internal/workload"
)

// FatTreeConfig parameterizes the realistic-workload experiments:
// Fig 16 (DCQCN±TCD, Hadoop/WebSearch), Fig 17(b) (IB CC±TCD, MPI/IO)
// and Fig 19 (TIMELY±TCD).
type FatTreeConfig struct {
	// Run is the header; generation uses the first half of its horizon so
	// most flows can complete.
	Run
	Det DetectorKind
	CC  CCKind
	// K is the fat-tree arity (paper: 10 for CEE runs, 16 for IB).
	K int
	// Workload selects the flow-size CDF ("hadoop", "websearch",
	// "mpiio").
	Workload string
	// Load is the average access-link load (0.6 in the paper).
	Load float64
	// MaxFlows caps generation (the paper runs 40k/80k; benches less).
	MaxFlows int
	// Trace, if non-empty, replays these flows instead of generating a
	// workload (see workload.ReadTrace).
	Trace []workload.Flow
	// eagerRoutes routes from BuildShortestPath's BFS columns instead of
	// the fat-tree's structural rows: the reference side of the
	// differential test. Route decisions are identical either way.
	eagerRoutes bool
}

// DefaultFatTreeConfig returns a laptop-scale run (k=6, 4000 flows, 40 ms);
// cmd/tcdsim -full raises K, MaxFlows and Horizon to paper scale.
func DefaultFatTreeConfig(kind FabricKind, det DetectorKind, cc CCKind, wl string) FatTreeConfig {
	return FatTreeConfig{
		Run:      Run{Kind: kind, Horizon: 40 * units.Millisecond},
		Det:      det,
		CC:       cc,
		K:        6,
		Workload: wl,
		Load:     0.6,
		MaxFlows: 4000,
	}
}

// FatTreeOutcome carries the FCT-slowdown distributions of one run.
type FatTreeOutcome struct {
	Res *Result
	// Slowdowns groups FCT slowdown by flow size.
	Slowdowns *stats.Breakdown
	// Overall aggregates every completed flow.
	Overall stats.Dist
	// MeanMCTus is the mean completion time (the Fig 17 metric).
	MeanMCTus float64
	Completed int
	Generated int
}

// FatTree runs one realistic-workload simulation.
func FatTree(cfg FatTreeConfig) *FatTreeOutcome {
	rate := 40 * units.Gbps
	delay := 4 * units.Microsecond
	ft := topo.NewFatTree(cfg.K, rate, delay)

	// Routing per the paper: ECMP on CEE, static D-mod-k on InfiniBand.
	sel := routing.ECMP(cfg.Seed + 9)
	if cfg.Kind == IB {
		sel = routing.DModK()
	}
	hostCfg := host.DefaultConfig()
	hostCfg.AckEveryPacket = cfg.CC.NeedsAcks()
	rc := RigConfig{
		Run:      cfg.Run,
		Topo:     ft.Topology,
		Det:      cfg.Det,
		HostCfg:  hostCfg,
		Selector: sel,
	}
	if !cfg.eagerRoutes {
		rc.RouteRows = routing.FatTreeColumns(ft)
	}
	rig := NewRig(rc)
	res := NewResult(fmt.Sprintf("fattree-k%d-%s-%s-%s-%s", cfg.K, cfg.Kind, cfg.Det, cfg.CC, cfg.Workload))

	r := rng.New(cfg.Seed + 31)
	var flows []workload.Flow
	if cfg.Trace != nil {
		flows = cfg.Trace
	} else {
		flows = generateWorkload(cfg, ft, r)
	}

	type meta struct {
		flow     *host.Flow
		baseline units.Time
	}
	mtu := rig.Mgr.Config().MTU
	metas := make([]meta, 0, len(flows))
	for _, wf := range flows {
		hops := rig.Routes.PathLen(wf.Src, wf.Dst)
		f := rig.Mgr.AddFlow(wf.Src, wf.Dst, wf.Size, wf.Start, rig.NewCC(cfg.CC, rate))
		metas = append(metas, meta{flow: f, baseline: host.IdealFCT(wf.Size, mtu, rate, hops, delay)})
	}

	rig.Run(cfg.Horizon)

	out := &FatTreeOutcome{
		Res:       res,
		Slowdowns: stats.NewBreakdown(50*units.KB, 100*units.KB, 500*units.KB, units.MB),
		Generated: len(metas),
	}
	var mcts []float64
	for _, m := range metas {
		if !m.flow.Done {
			continue
		}
		out.Completed++
		sd := m.flow.Slowdown(m.baseline)
		out.Slowdowns.Add(m.flow.Size, sd)
		out.Overall.Add(sd)
		mcts = append(mcts, m.flow.FCT.Micros())
	}
	out.MeanMCTus = stats.Mean(mcts)
	// Fabric telemetry: how much hop-by-hop flow control and marking the
	// run actually exercised, and the losslessness assertion (buffer
	// violations must be zero).
	var pauseTime units.Time
	var ce, ue uint64
	for _, p := range rig.Net.Ports() {
		pauseTime += p.PauseTime
		ce += p.MarkedCE
		ue += p.MarkedUE
	}
	var violations uint64
	for _, m := range fabric.Meters[fabric.RxMeter](rig.Net) {
		violations += m.Violations()
	}
	res.Scalars["total_pause_ms"] = pauseTime.Millis()
	res.Scalars["marked_ce"] = float64(ce)
	res.Scalars["marked_ue"] = float64(ue)
	res.Scalars["buffer_violations"] = float64(violations)
	res.Scalars["generated"] = float64(out.Generated)
	res.Scalars["completed"] = float64(out.Completed)
	res.Scalars["slowdown_p50"] = out.Overall.P(0.5)
	res.Scalars["slowdown_p95"] = out.Overall.P(0.95)
	res.Scalars["slowdown_p99"] = out.Overall.P(0.99)
	res.Scalars["mean_mct_us"] = out.MeanMCTus
	// Route-table memory: what the structural table holds versus what
	// eager BFS columns would have cost (cmd/tcdsim -topo-stats surfaces
	// the same numbers without running a workload).
	res.Scalars["route_table_bytes"] = float64(rig.Routes.LiveBytes())
	res.Scalars["route_table_eager_est_bytes"] = float64(rig.Routes.EagerBytesEstimate())
	if rig.Inj.Armed > 0 {
		rig.faultScalars(res)
	}
	res.Tables = append(res.Tables, out.Slowdowns.Table("FCT slowdown by size"))
	rig.AttachTelemetry(res)
	return out
}

// generateWorkload produces the configured traffic for a fat-tree run.
func generateWorkload(cfg FatTreeConfig, ft *topo.FatTree, r *rng.Source) []workload.Flow {
	rate := 40 * units.Gbps
	switch cfg.Workload {
	case "websearch":
		return workload.Poisson(r, workload.PoissonConfig{
			Hosts:      ft.HostList,
			CDF:        workload.WebSearch(),
			Load:       cfg.Load,
			AccessRate: rate,
			Horizon:    cfg.Horizon / 2,
			MaxFlows:   cfg.MaxFlows,
		})
	case "mpiio":
		// §5.2.2: per rack (edge switch) some hosts are I/O servers; 25%
		// of nodes are I/O clients; 10% of messages are I/O.
		var servers []packet.NodeID
		for p := range ft.Edges {
			for e := range ft.Edges[p] {
				half := ft.K / 2
				// One server per edge group (scaled from "four per rack"
				// at k=16, keeping the server fraction comparable).
				servers = append(servers, ft.HostList[p*half*half+e*half])
			}
		}
		return workload.MPIIO(r, workload.MPIIOConfig{
			Hosts:        ft.HostList,
			IOServers:    servers,
			IOClientFrac: 0.25,
			Messages:     cfg.MaxFlows,
			IOFrac:       0.1,
			Horizon:      cfg.Horizon / 2,
		})
	default: // hadoop
		return workload.Poisson(r, workload.PoissonConfig{
			Hosts:      ft.HostList,
			CDF:        workload.Hadoop(),
			Load:       cfg.Load,
			AccessRate: rate,
			Horizon:    cfg.Horizon / 2,
			MaxFlows:   cfg.MaxFlows,
		})
	}
}

// FatTreeComparison runs stock vs TCD controllers on the same workload
// and reports the paper's headline ratios (Fig 16/17(b)/19).
func FatTreeComparison(base FatTreeConfig, stockCC, tcdCC CCKind) (*Result, *FatTreeOutcome, *FatTreeOutcome) {
	sCfg := base
	sCfg.Det = DetBaseline
	sCfg.CC = stockCC
	tCfg := base
	tCfg.Det = DetTCD
	tCfg.CC = tcdCC
	s := FatTree(sCfg)
	t := FatTree(tCfg)
	res := NewResult(fmt.Sprintf("fattree-compare-%s-vs-%s-%s", stockCC, tcdCC, base.Workload))
	res.Scalars["stock_p50"] = s.Overall.P(0.5)
	res.Scalars["tcd_p50"] = t.Overall.P(0.5)
	res.Scalars["stock_p99"] = s.Overall.P(0.99)
	res.Scalars["tcd_p99"] = t.Overall.P(0.99)
	if t.Overall.P(0.5) > 0 {
		res.Scalars["p50_improvement"] = s.Overall.P(0.5) / t.Overall.P(0.5)
	}
	if t.Overall.P(0.99) > 0 {
		res.Scalars["p99_improvement"] = s.Overall.P(0.99) / t.Overall.P(0.99)
	}
	if t.MeanMCTus > 0 {
		res.Scalars["mct_improvement"] = s.MeanMCTus / t.MeanMCTus
	}
	// Surface the route-table footprint on the comparison result too:
	// cmd/tcdsim discards the per-side results, and at hyperscale (k=32+)
	// the table memory is part of what the run demonstrates.
	for _, key := range []string{"route_table_bytes", "route_table_eager_est_bytes"} {
		res.Scalars[key] = t.Res.Scalars[key]
	}
	// Same for fault telemetry (present only when a schedule was armed):
	// both sides run the identical schedule, so the TCD side stands in.
	for _, key := range []string{"fault_actions_armed", "fault_drops", "fault_dropped_kb", "spoofed_ce", "forged_ctrl"} {
		if v, ok := t.Res.Scalars[key]; ok {
			res.Scalars[key] = v
		}
	}
	res.Tables = append(res.Tables,
		s.Slowdowns.Table("stock slowdown"),
		t.Slowdowns.Table("tcd slowdown"))
	return res, s, t
}
