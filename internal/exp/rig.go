package exp

import (
	"fmt"

	"github.com/tcdnet/tcd/internal/cbfc"
	"github.com/tcdnet/tcd/internal/cc"
	"github.com/tcdnet/tcd/internal/core"
	"github.com/tcdnet/tcd/internal/fabric"
	"github.com/tcdnet/tcd/internal/fault"
	"github.com/tcdnet/tcd/internal/host"
	"github.com/tcdnet/tcd/internal/obs"
	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/pfc"
	"github.com/tcdnet/tcd/internal/rng"
	"github.com/tcdnet/tcd/internal/routing"
	"github.com/tcdnet/tcd/internal/sim"
	"github.com/tcdnet/tcd/internal/slab"
	"github.com/tcdnet/tcd/internal/stats"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

// FabricKind selects the lossless technology under test.
type FabricKind int

const (
	// CEE is Converged Enhanced Ethernet: PFC + ECN/TCD + DCQCN/TIMELY.
	CEE FabricKind = iota
	// IB is InfiniBand: CBFC + FECN/TCD + IB CC.
	IB
)

func (f FabricKind) String() string {
	if f == CEE {
		return "cee"
	}
	return "ib"
}

// ParseFabric is the inverse of FabricKind.String.
func ParseFabric(s string) (FabricKind, error) {
	for _, f := range []FabricKind{CEE, IB} {
		if f.String() == s {
			return f, nil
		}
	}
	return 0, fmt.Errorf("exp: unknown fabric %q (want cee or ib)", s)
}

// DetectorKind selects the congestion-detection mechanism on switches.
type DetectorKind int

const (
	// DetNone installs no detector.
	DetNone DetectorKind = iota
	// DetBaseline is ECN/RED on CEE and FECN on IB.
	DetBaseline
	// DetTCD is the paper's ternary detector.
	DetTCD
	// DetTCDAdaptive is the §6 design alternative: max(Ton) predicted
	// from the history of observed ON periods instead of the model.
	DetTCDAdaptive
	// DetNPECN is PCN's Non-PAUSE ECN (related work §7): RED marking
	// suppressed on pause-tainted packets.
	DetNPECN
	numDetectorKinds
)

func (d DetectorKind) String() string {
	switch d {
	case DetBaseline:
		return "baseline"
	case DetTCD:
		return "tcd"
	case DetTCDAdaptive:
		return "tcd-adaptive"
	case DetNPECN:
		return "np-ecn"
	}
	return "none"
}

// ParseDet is the inverse of DetectorKind.String.
func ParseDet(s string) (DetectorKind, error) {
	for d := DetNone; d < numDetectorKinds; d++ {
		if d.String() == s {
			return d, nil
		}
	}
	return 0, fmt.Errorf("exp: unknown det %q", s)
}

// CCKind selects the end-to-end congestion control for workload flows.
type CCKind int

const (
	// CCFixed paces at a fixed rate and ignores feedback.
	CCFixed CCKind = iota
	// CCDCQCN and CCDCQCNTCD are stock and ternary DCQCN.
	CCDCQCN
	CCDCQCNTCD
	// CCTIMELY and CCTIMELYTCD are stock and ternary TIMELY.
	CCTIMELY
	CCTIMELYTCD
	// CCIBCC and CCIBCCTCD are stock and ternary IB CC.
	CCIBCC
	CCIBCCTCD
	numCCKinds
)

func (c CCKind) String() string {
	switch c {
	case CCDCQCN:
		return "dcqcn"
	case CCDCQCNTCD:
		return "dcqcn+tcd"
	case CCTIMELY:
		return "timely"
	case CCTIMELYTCD:
		return "timely+tcd"
	case CCIBCC:
		return "ibcc"
	case CCIBCCTCD:
		return "ibcc+tcd"
	}
	return "fixed"
}

// ParseCC is the inverse of CCKind.String.
func ParseCC(s string) (CCKind, error) {
	for c := CCFixed; c < numCCKinds; c++ {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("exp: unknown cc %q", s)
}

// NeedsAcks reports whether the controller requires per-packet ACKs.
func (c CCKind) NeedsAcks() bool { return c == CCTIMELY || c == CCTIMELYTCD }

// StockCC is the fabric's stock congestion control: DCQCN on CEE, IB CC
// on InfiniBand.
func (f FabricKind) StockCC() CCKind {
	if f == CEE {
		return CCDCQCN
	}
	return CCIBCC
}

// DetectorParams carries the per-scenario overrides of the TCD model.
// Everything else a detector is built from is fixed: the baselines use
// core.DefaultREDConfig / core.DefaultFECNConfig, the TCD state thresholds
// are tcdThresholds, and max(Ton) is sized by packet.MTU.
type DetectorParams struct {
	// Eps is the TCD congestion-degree parameter (§4.2; zero means
	// core.RecommendedEps).
	Eps float64
	// XoffGap overrides the B1-B0 term of the CEE max(Ton) model (zero =
	// 2 MTU); the DPDK testbed ran Xoff-Xon = 30 KB.
	XoffGap units.ByteSize
	// Tau overrides the response-time term (zero = 2*MTU/C + 2*t_p);
	// the DPDK testbed measured ~20 us of software delay.
	Tau units.Time
	// TrendSlack overrides the TCD queue-growth tolerance (zero keeps
	// the detector default of 4 KB; the ablation sets 1 B to show why
	// the tolerance exists).
	TrendSlack units.ByteSize
}

// tcdThresholds are TCD's state thresholds on a fabric: congestion above
// the fabric's own marking threshold (RED's Kmax on CEE, the FECN
// threshold on IB), back to non-congestion at or below 10 KB.
func tcdThresholds(kind FabricKind) (cong, low units.ByteSize) {
	if kind == CEE {
		return core.DefaultREDConfig().Kmax, 10 * units.KB
	}
	return core.DefaultFECNConfig().Thresh, 10 * units.KB
}

// Rig is a ready-to-run simulated network: topology, fabric, flow
// control, detectors and endpoints.
type Rig struct {
	Sched *sim.Scheduler
	Net   *fabric.Network
	Mgr   *host.Manager
	Topo  *topo.Topology
	Rnd   *rng.Source

	Kind FabricKind
	Det  DetectorKind
	Par  DetectorParams
	// Routes is the shortest-path table (hop counts, FCT baselines).
	Routes *routing.Table
	// CBFCCfg holds the installed CBFC parameters (IB rigs).
	CBFCCfg cbfc.Config
	// PFCCfg holds the installed PFC parameters (CEE rigs).
	PFCCfg pfc.Config
	// Obs holds the observability hooks this rig was wired with.
	Obs obs.Config
	// Inj is the injector that armed the header's fault schedule (never
	// nil; Armed is 0 on a fault-free run).
	Inj *fault.Injector
	// queueWin is the telemetry_queue_win series (nil without telemetry).
	queueWin *stats.Series

	slabs rigSlabs
	// tcdCfgs holds the one configuration record every TCD detector of
	// equal parameters shares.
	tcdCfgs core.TCDConfigs
	// fixed holds one shared controller per constant line rate.
	fixed []host.RateController
}

// rigSlabs hands out a rig's per-port detectors and per-flow
// controllers, a chunk at a time, so their number does not set the
// allocation count.
type rigSlabs struct {
	tcd      slab.Of[core.TCD]
	adaptive slab.Of[core.AdaptiveTCD]
	red      slab.Of[core.RED]
	fecn     slab.Of[core.FECN]
	npecn    slab.Of[core.NPECN]
	dcqcn    slab.Of[cc.DCQCN]
	timely   slab.Of[cc.TIMELY]
	ibcc     slab.Of[cc.IBCC]
}

// RigConfig assembles a rig over an arbitrary topology.
type RigConfig struct {
	// Run is the header of the simulation the rig is built for. NewRig
	// reads Kind, Seed, Obs (threaded through every layer of the rig),
	// Faults (armed once the rig is built, before any flow is added) and,
	// for the telemetry queue series alone, Horizon; the horizon the
	// simulation runs to is the caller's to pass to Rig.Run.
	Run
	Topo     *topo.Topology
	Det      DetectorKind
	Par      DetectorParams
	HostCfg  host.Config
	Selector routing.Selector
	// Arch selects the switch architecture (output-queued by default;
	// InputQueuedVoQ reproduces the paper's IB switch organization).
	Arch fabric.Arch
	// Priorities is the number of traffic classes per port (0 means 1).
	Priorities int
	// PFC / CBFC override the flow-control defaults when non-zero.
	PFC  pfc.Config
	CBFC cbfc.Config
	// CtrlJitter adds per-control-frame delay jitter (testbed runs).
	CtrlJitter func() units.Time
	// RecordTransitions turns on TCD transition logging (small rigs).
	RecordTransitions bool
	// RouteRows, when non-nil, routes the rig from this structural row
	// source (fat-tree and leaf–spine builders provide one) instead of
	// eager BFS columns. Route decisions are identical either way
	// (property-tested), so traces do not depend on it — only memory
	// and set-up time do.
	RouteRows routing.RowSource
}

// newScheduler builds the scheduler of every simulation in this package.
// It is a variable only so that the two-scheduler identity test can run
// the whole registry on sim.NewHeapOnly; nothing else assigns it.
var newScheduler = sim.New

// InputError is a run input that passed static validation but does not
// fit the rig it was given to: a fault schedule naming a link the
// topology lacks, or a priority the fabric does not have. NewRig panics
// with one; the places that recover runs (tcdsim and sweep) report it as
// bad input, without a stack.
type InputError struct{ Err error }

func (e *InputError) Error() string { return "exp: " + e.Err.Error() }

// NewRig wires everything together. It panics with an *InputError if
// cfg.Faults does not fit the topology.
func NewRig(cfg RigConfig) *Rig {
	if cfg.Selector == nil {
		cfg.Selector = routing.FirstPath()
	}
	// Telemetry sits in front of the raw recorder: every emission point
	// sees one Recorder, the telemetry folds the event into its bounded
	// histograms and forwards to the ring/spill sink (if any).
	if cfg.Obs.Telemetry != nil {
		cfg.Obs.Rec = cfg.Obs.Telemetry.Chain(cfg.Obs.Rec)
	}
	r := &Rig{
		Sched: newScheduler(),
		Topo:  cfg.Topo,
		Rnd:   rng.New(cfg.Seed + 1),
		Kind:  cfg.Kind,
		Det:   cfg.Det,
		Par:   cfg.Par,
		Obs:   cfg.Obs,
	}
	cfg.Obs.Attach(r.Sched)
	fc := fabric.DefaultConfig()
	fc.CtrlJitter = cfg.CtrlJitter
	fc.Arch = cfg.Arch
	fc.Rec = cfg.Obs.Rec
	fc.Priorities = max(cfg.Priorities, 1)
	r.Net = fabric.New(r.Sched, cfg.Topo, fc)
	if cfg.RouteRows != nil {
		r.Routes = routing.NewStructural(cfg.Topo, cfg.RouteRows)
	} else {
		r.Routes = routing.BuildShortestPath(cfg.Topo)
	}
	r.Routes.Attach(r.Net, cfg.Selector)

	switch cfg.Kind {
	case CEE:
		r.PFCCfg = cfg.PFC
		if r.PFCCfg == (pfc.Config{}) {
			r.PFCCfg = pfc.DefaultConfig()
		}
		pfc.Install(r.Net, r.PFCCfg)
	case IB:
		r.CBFCCfg = cfg.CBFC
		if r.CBFCCfg == (cbfc.Config{}) {
			r.CBFCCfg = cbfc.DefaultConfig()
		}
		cbfc.Install(r.Net, r.CBFCCfg)
	}

	r.attachDetectors(cfg.RecordTransitions)

	r.Mgr = host.Install(r.Net, cfg.HostCfg)
	r.Mgr.Rec = cfg.Obs.Rec
	if cfg.Obs.Telemetry != nil {
		r.attachQueueSampler(cfg.Obs.Telemetry, cfg.Horizon)
	}
	var err error
	if r.Inj, err = fault.Inject(r.Net, cfg.Faults); err != nil {
		panic(&InputError{err})
	}
	return r
}

// queueWinEvery is the grid telemetry_queue_win starts on.
const queueWinEvery = 100 * units.Microsecond

// attachQueueSampler starts the telemetry queue-depth observers: a
// self-rescheduling tick that folds every port's queue occupancy into
// the bounded histogram at a fixed interval, and a tracer column of the
// fabric-wide mean over the whole run (telemetry_queue_win), bounded by
// stats.SeriesCap like every other series. Both only read simulator
// state, so enabling telemetry cannot perturb the simulation — golden
// outputs stay byte-identical with it on or off.
func (r *Rig) attachQueueSampler(tel *obs.Telemetry, horizon units.Time) {
	ports := r.Net.Ports()
	var tick func()
	tick = func() {
		for _, p := range ports {
			tel.QueueDepth.Observe(int64(p.TotalQueueBytes()))
		}
		r.Sched.After(obs.QueueSampleEvery, tick)
	}
	r.Sched.After(obs.QueueSampleEvery, tick)

	tr := stats.NewTracer(r.Sched, queueWinEvery, horizon)
	r.queueWin = tr.Add("telemetry fabric-wide mean queue (bytes)", func() float64 {
		var sum units.ByteSize
		for _, p := range ports {
			sum += p.TotalQueueBytes()
		}
		return float64(sum) / float64(len(ports))
	})
	tr.Start()
}

// AttachTelemetry hands the run's streaming histograms and queue series
// to the result (no-op when telemetry is off, keeping default outputs
// byte-identical).
func (r *Rig) AttachTelemetry(res *Result) {
	if r.Obs.Telemetry == nil {
		return
	}
	res.Hists = r.Obs.Telemetry.Hists()
	res.Series["telemetry_queue_win"] = r.queueWin
}

// attachDetectors installs the configured detector on every switch
// egress port (all priorities).
func (r *Rig) attachDetectors(record bool) {
	if r.Det == DetNone {
		return
	}
	nPrio := r.Net.Config().Priorities
	for _, p := range r.Net.Ports() {
		if r.Topo.Nodes[p.Node()].Kind != topo.Switch {
			continue
		}
		for prio := 0; prio < nPrio; prio++ {
			p.AttachDetector(uint8(prio), r.newDetector(p, uint8(prio), record))
		}
	}
}

// traceTCD points a TCD's state-change events at the rig's recorder. With
// no recorder the label is never read, so it is not formatted either (a
// Sprintf per port, 6144 ports at k=16).
func (r *Rig) traceTCD(d *core.TCD, p *fabric.Port) {
	if r.Obs.Rec != nil {
		d.Trace(r.Obs.Rec, p.Label())
	}
}

func (r *Rig) newDetector(p *fabric.Port, prio uint8, record bool) fabric.Detector {
	switch r.Det {
	case DetBaseline:
		if r.Kind == CEE {
			d := r.slabs.red.New()
			d.Init(core.DefaultREDConfig(), r.Rnd.Uint64())
			return d
		}
		var gate core.CreditGate
		if g, ok := p.Gate().(*cbfc.Gate); ok {
			gate = g
		}
		d := r.slabs.fecn.New()
		d.Init(core.DefaultFECNConfig(), gate, prio)
		return d
	case DetTCD:
		d := r.slabs.tcd.New()
		d.Init(r.tcdCfgs.Intern(r.TCDConfigFor(p)))
		if record {
			d.RecordTransitions()
		}
		r.traceTCD(d, p)
		return d
	case DetTCDAdaptive:
		a := r.slabs.adaptive.New()
		a.Init(r.tcdCfgs.Intern(r.TCDConfigFor(p)))
		r.traceTCD(a.Inner(), p)
		return a
	case DetNPECN:
		d := r.slabs.npecn.New()
		d.Init(core.DefaultREDConfig(), r.Rnd.Uint64())
		return d
	}
	return nil
}

// TCDConfigFor derives the TCD parameters for one port from the analytic
// model: Eqn (3) max(Ton) on CEE, sized by the MTU the hosts frame by,
// and the credit period bound on IB.
func (r *Rig) TCDConfigFor(p *fabric.Port) core.TCDConfig {
	var maxTon units.Time
	if r.Kind == CEE {
		params := core.CEEParams(packet.MTU, p.Rate, p.Delay)
		if r.Par.XoffGap != 0 {
			params.B1MinusB0 = r.Par.XoffGap
		}
		if r.Par.Tau != 0 {
			params.Tau = r.Par.Tau
		}
		eps := r.Par.Eps
		if eps == 0 {
			eps = core.RecommendedEps
		}
		maxTon = core.MaxTonCEE(params, eps)
	} else {
		maxTon = core.MaxTonIB(r.CBFCCfg.Tc)
	}
	cong, low := tcdThresholds(r.Kind)
	return core.TCDConfig{MaxTon: maxTon, CongThresh: cong, LowThresh: low, TrendSlack: r.Par.TrendSlack}
}

// NewCC builds a per-flow rate controller.
func (r *Rig) NewCC(kind CCKind, line units.Rate) host.RateController {
	switch kind {
	case CCDCQCN, CCDCQCNTCD:
		cfg := cc.DefaultDCQCNConfig(line)
		if kind == CCDCQCNTCD {
			cfg = cc.TCDDCQCNConfig(line)
		}
		d := r.slabs.dcqcn.New()
		d.Init(r.Sched, cfg)
		return d
	case CCTIMELY, CCTIMELYTCD:
		t := r.slabs.timely.New()
		t.Init(line, kind == CCTIMELYTCD)
		return t
	case CCIBCC, CCIBCCTCD:
		c := r.slabs.ibcc.New()
		c.Init(r.Sched, line, kind == CCIBCCTCD)
		return c
	}
	return r.fixedRate(line)
}

// fixedRate returns the constant-rate controller for line. FixedRate is
// stateless, so every flow at one rate shares one boxed value instead of
// boxing its own.
func (r *Rig) fixedRate(line units.Rate) host.RateController {
	for _, c := range r.fixed {
		if c.(host.FixedRate) == host.FixedRate(line) {
			return c
		}
	}
	c := host.RateController(host.FixedRate(line))
	r.fixed = append(r.fixed, c)
	return c
}

// TCDAt returns the TCD detector of a port (priority 0), panicking if the
// rig does not run TCD — experiment wiring errors should be loud.
func (r *Rig) TCDAt(p *fabric.Port) *core.TCD {
	d, ok := p.DetectorAt(0).(*core.TCD)
	if !ok {
		panic(fmt.Sprintf("exp: port %s has no TCD detector", p.Name()))
	}
	return d
}

// Run drives the simulation to the horizon, populates the metrics
// registry (if one was configured) from the run's counters, then audits
// the network-wide invariants (checkInvariants). It is the one place a
// simulation ends: a violation panics, and the front-ends that recover
// runs (tcdsim and sweep) fail that run with the message.
func (r *Rig) Run(horizon units.Time) {
	r.Sched.RunUntil(horizon)
	if r.Obs.Metrics != nil {
		r.SnapshotMetrics(r.Obs.Metrics)
		if r.Obs.Telemetry != nil {
			r.Obs.Telemetry.FoldInto(r.Obs.Metrics)
		}
	}
	if err := checkInvariants(r); err != nil {
		panic("exp: " + err.Error())
	}
}

// SnapshotMetrics folds the ad-hoc counters scattered over ports, flow
// -control meters and the scheduler into a labeled registry — the
// uniform export path that gradually replaces reading exported struct
// fields directly.
func (r *Rig) SnapshotMetrics(reg *obs.Registry) {
	reg.Counter("sched_events").Add(int64(r.Sched.Processed()))
	reg.Gauge("sched_sim_time_us").Set(r.Sched.Now().Micros())
	reg.Gauge("sched_pending_events").Set(float64(r.Sched.Pending()))
	// How events reached the band: flushed bucket cohorts and direct
	// inserts; the rest of sched_events were singletons off the wheel.
	bs := r.Sched.BandStats()
	reg.Counter("sched_cohorts").Add(int64(bs.Cohorts))
	reg.Counter("sched_cohort_events").Add(int64(bs.CohortEvents))
	reg.Gauge("sched_cohort_max").Set(float64(bs.CohortMax))
	reg.Counter("sched_band_inserts").Add(int64(bs.Inserts))
	violations, maxOcc := "pfc_violations", "pfc_max_occupancy_bytes"
	if r.Kind == IB {
		violations, maxOcc = "cbfc_violations", "cbfc_max_occupancy_bytes"
	}
	for _, p := range r.Net.Ports() {
		lbl := p.Name()
		reg.Counter("port_tx_bytes", "port", lbl).Add(int64(p.TxBytes))
		reg.Counter("port_tx_packets", "port", lbl).Add(int64(p.TxPackets))
		reg.Counter("port_tx_data_bytes", "port", lbl).Add(int64(p.TxDataBytes))
		reg.Counter("port_marked_ce", "port", lbl).Add(int64(p.MarkedCE))
		reg.Counter("port_marked_ue", "port", lbl).Add(int64(p.MarkedUE))
		reg.Counter("port_ctrl_sent", "port", lbl).Add(int64(p.CtrlSent))
		reg.Gauge("port_pause_time_us", "port", lbl).Set(p.PauseTime.Micros())
		reg.Gauge("port_queue_bytes", "port", lbl).Set(float64(p.TotalQueueBytes()))
		if m := p.Meter(); m != nil {
			reg.Counter(violations, "port", lbl).Add(int64(m.Violations()))
			reg.Gauge(maxOcc, "port", lbl).Set(float64(m.MaxOccupancy()))
			switch m := m.(type) {
			case *pfc.Meter:
				reg.Counter("pfc_pauses_sent", "port", lbl).Add(int64(m.PausesSent))
				reg.Counter("pfc_resumes_sent", "port", lbl).Add(int64(m.ResumesSent))
			case *cbfc.Meter:
				reg.Counter("cbfc_updates_sent", "port", lbl).Add(int64(m.UpdatesSent))
			}
		}
		var tcd *core.TCD
		switch d := p.DetectorAt(0).(type) {
		case *core.TCD:
			tcd = d
		case interface{ Inner() *core.TCD }:
			tcd = d.Inner()
		}
		if tcd != nil {
			reg.Gauge("tcd_state", "port", lbl).Set(float64(tcd.State()))
			reg.Gauge("tcd_time_undetermined_us", "port", lbl).Set(tcd.TimeIn(core.Undetermined).Micros())
			reg.Gauge("tcd_time_congestion_us", "port", lbl).Set(tcd.TimeIn(core.Congestion).Micros())
		}
	}
	for _, f := range r.Mgr.Flows() {
		flow := fmt.Sprintf("%d", f.ID)
		reg.Counter("flow_rx_bytes", "flow", flow).Add(int64(f.BytesRxed()))
		reg.Counter("flow_ce_packets", "flow", flow).Add(int64(f.CEPackets()))
		reg.Counter("flow_ue_packets", "flow", flow).Add(int64(f.UEPackets()))
		if f.Done {
			reg.Gauge("flow_fct_us", "flow", flow).Set(f.FCT.Micros())
		}
	}
}

// Fig2Rig is the Figure-2 scenario rig with its observed ports.
type Fig2Rig struct {
	*Rig
	F2 *topo.Fig2
	// P0 is S1's NIC egress; P1 = T0->L0; P2 = L0->T2; P3 = T2->R1.
	P0, P1, P2, P3 *fabric.Port
}

// NewFig2Rig builds the §3.1 scenario network and a rig on it; rc.Topo is
// the builder's to set.
func NewFig2Rig(tcfg topo.Fig2Config, rc RigConfig) *Fig2Rig {
	f2 := topo.NewFig2(tcfg)
	rc.Topo = f2.Topology
	r := NewRig(rc)
	return &Fig2Rig{
		Rig: r,
		F2:  f2,
		P0:  r.Net.HostPort(f2.S1),
		P1:  r.Net.PortOn(f2.T0, f2.LinkT0L0),
		P2:  r.Net.PortOn(f2.L0, f2.LinkL0T2),
		P3:  r.Net.PortOn(f2.T2, f2.LinkT2R1),
	}
}

// AddF1 starts F1 of §3.1: long-lived, S1 -> R1 at line rate, on the
// fabric's stock congestion control.
func (fr *Fig2Rig) AddF1() *host.Flow {
	return fr.Mgr.AddFlow(fr.F2.S1, fr.F2.R1, 10*1000*units.MB, 0, fr.NewCC(fr.Kind.StockCC(), 40*units.Gbps))
}

// LaunchBursts starts the §3.1 concurrent bursts: every A host sends a
// size-byte burst to R1 in each round, rounds spaced gap apart. The
// bursts are smaller than the BDP, so end-to-end congestion control
// cannot regulate them (§3.1.1) — they run at line rate.
func (fr *Fig2Rig) LaunchBursts(start units.Time, size units.ByteSize, rounds int, gap units.Time) []*host.Flow {
	var flows []*host.Flow
	for round := 0; round < rounds; round++ {
		at := start + units.Time(round)*gap
		for _, a := range fr.F2.A {
			line := fr.Net.HostPort(a).Rate
			flows = append(flows, fr.Mgr.AddFlow(a, fr.F2.R1, size, at, fr.fixedRate(line)))
		}
	}
	return flows
}

// PortIDs used in traces.
var portLabels = []string{"P0", "P1", "P2", "P3"}

// ObservedPorts returns the four labelled ports.
func (fr *Fig2Rig) ObservedPorts() []*fabric.Port {
	return []*fabric.Port{fr.P0, fr.P1, fr.P2, fr.P3}
}

// PortLabel names an observed port.
func PortLabel(i int) string { return portLabels[i] }

// MarkedFraction reports the fraction of a flow's received packets
// carrying the given mark.
func MarkedFraction(f *host.Flow, ce bool) float64 {
	if f.PktsRxed() == 0 {
		return 0
	}
	if ce {
		return float64(f.CEPackets()) / float64(f.PktsRxed())
	}
	return float64(f.UEPackets()) / float64(f.PktsRxed())
}
