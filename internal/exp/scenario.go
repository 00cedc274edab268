package exp

import (
	"fmt"
	"slices"
	"strings"

	"github.com/tcdnet/tcd/internal/fabric"
	"github.com/tcdnet/tcd/internal/fault"
	"github.com/tcdnet/tcd/internal/obs"
	"github.com/tcdnet/tcd/internal/oracle"
	"github.com/tcdnet/tcd/internal/units"
)

// Params is the one parameter shape every front-end resolves into: the
// CLI parses its flags into it, the sweep engine overlays a grid cell on
// it, the daemon fills it from a JobSpec. A zero field means "the
// scenario's default".
type Params struct {
	Fabric FabricKind
	// Det and CC pick one entry of the scenario's menu. The zero values
	// (DetNone, CCFixed — in no menu) mean unset: a comparison scenario
	// then runs its whole menu, any other scenario its default.
	Det DetectorKind
	CC  CCKind
	// Seed feeds the run's private random streams.
	Seed uint64
	// Horizon, when set, wins over the Full preset and the scenario's
	// default horizon.
	Horizon units.Time
	// Faults is armed against each run of a scenario that accepts one.
	Faults *fault.Spec
	// Obs wires tracing, metrics and progress into the scenarios that
	// take it (Scenario.Obs).
	Obs obs.Config

	// The CLI scale axes; JobSpec has no field for any of them.
	Full     bool   // paper-scale preset: FullHorizon, fat-tree k and flows
	K        int    // fat-tree arity override
	Flows    int    // fat-tree flow-count override
	Workload string // fat-tree flow-size CDF, from Scenario.Workloads
	Arch     string // switch architecture, from Scenario.Archs
	// Battery is the loaded attack battery (nil = the committed default).
	Battery *Battery
}

// Run is the header every simulation shares: the fabric it runs on, the
// seed of its private random streams, where it ends, and what is wired
// into and armed against its rig. Scenario.Run resolves Params into one;
// every scenario config and RigConfig embed it, so whatever has to reach
// every rig is declared here once.
type Run struct {
	// Kind selects CEE (PFC + ECN/TCD) or IB (CBFC + FECN/TCD).
	Kind FabricKind
	// Seed feeds the run's random streams.
	Seed uint64
	// Horizon ends the run. Zero, in a header a front-end resolved, means
	// the scenario's default (see over).
	Horizon units.Time
	// Obs wires event tracing, metrics, telemetry and progress reporting
	// into the rig (all off by default).
	Obs obs.Config
	// Faults is the fault schedule (benign and adversarial kinds) armed
	// against the rig. Nil or empty arms nothing: the run stays
	// byte-identical to one built without the injector.
	Faults *fault.Spec
}

// over lays h, the header a front-end resolved, over a scenario's default
// header: an unset horizon keeps the scenario's, everything else is h's.
func (h Run) over(def Run) Run {
	if h.Horizon == 0 {
		h.Horizon = def.Horizon
	}
	return h
}

// obsUse says how much of Params.Obs reaches a scenario's rigs.
type obsUse int

const (
	// obsNone: the scenario runs unobserved.
	obsNone obsUse = iota
	// obsProgress: several simulations run back to back, so only the
	// progress ticker is kept (shared sinks would interleave the runs).
	obsProgress
	// obsAll: one simulation, wired with everything.
	obsAll
)

// Scenario is one row of the evaluation's cross product: its name, the
// axes it consumes with their menus and defaults, and how to run it.
// Scenarios is the only place a scenario is wired; `tcdsim -list`,
// `/v1/exps`, JobSpec validation and every dispatch read it.
type Scenario struct {
	Name, Desc string
	// Dets is the detector menu (nil: the scenario fixes its detectors
	// and takes no det). DefaultDet is what an unset det selects.
	Dets       []DetectorKind
	DefaultDet DetectorKind
	// CCs and DefaultCC mirror Dets for congestion control.
	CCs       []CCKind
	DefaultCC CCKind
	// Compare marks a comparison scenario: an unset det/cc runs the whole
	// menu, one result per entry, instead of the default alone.
	Compare bool
	// Faults reports whether the scenario arms Params.Faults.
	Faults bool
	// Obs is how much of Params.Obs the scenario's rigs are wired with.
	Obs obsUse
	// Archs and Workloads are the menus of Params.Arch and
	// Params.Workload; the first entry is the default. Nil: not consumed.
	Archs     []string
	Workloads []string
	// FatTree: the scenario consumes the fat-tree scale axes K and
	// Flows. Battery: it consumes Params.Battery.
	FatTree bool
	Battery bool
	// FullHorizon is the horizon Params.Full selects (0: none).
	FullHorizon units.Time

	// run executes one cell: the resolved header, and p for the axes
	// beyond it (det, cc, arch, scale).
	run func(h Run, p Params) []*Result
}

// ServiceAddressable reports whether a JobSpec can say everything that
// sizes a run of sc. It is derived from the declared axes, never listed:
// the fat-tree scale axes (k, flows, route cap, workload) and the battery
// file have no JobSpec field, so the daemon's admission limits (MaxRuns,
// MaxHorizonUs) could not bound a run they size. Archs does not block: it
// toggles a variant of a fixed-size run, and the daemon serves the
// default architecture.
func (sc *Scenario) ServiceAddressable() bool {
	return !sc.FatTree && !sc.Battery && len(sc.Workloads) == 0
}

// HasDet reports whether d is on the scenario's detector menu.
func (sc *Scenario) HasDet(d DetectorKind) bool { return slices.Contains(sc.Dets, d) }

// HasCC reports whether c is on the scenario's congestion-control menu.
func (sc *Scenario) HasCC(c CCKind) bool { return slices.Contains(sc.CCs, c) }

// Check reports the first set parameter that lies outside the menu sc
// declares for its axis. An axis sc does not consume is not checked (the
// CLI passes every flag to every scenario).
func (sc *Scenario) Check(p Params) error {
	if p.Det != DetNone && !sc.HasDet(p.Det) {
		return fmt.Errorf("exp: %s does not support det %q (menu: %s)", sc.Name, p.Det, join(sc.Dets))
	}
	if p.CC != CCFixed && !sc.HasCC(p.CC) {
		return fmt.Errorf("exp: %s does not support cc %q (menu: %s)", sc.Name, p.CC, join(sc.CCs))
	}
	for _, a := range []struct {
		axis, v string
		menu    []string
	}{{"workload", p.Workload, sc.Workloads}, {"arch", p.Arch, sc.Archs}} {
		if a.v != "" && len(a.menu) > 0 && !slices.Contains(a.menu, a.v) {
			return fmt.Errorf("exp: %s has no %s %q (menu: %s)", sc.Name, a.axis, a.v, strings.Join(a.menu, ", "))
		}
	}
	return nil
}

// join renders a det/cc menu for messages and listings.
func join[T fmt.Stringer](menu []T) string {
	names := make([]string, len(menu))
	for i, m := range menu {
		names[i] = m.String()
	}
	return strings.Join(names, ", ")
}

// Axes renders the accepted values of every axis sc consumes ("" when it
// consumes none) for `tcdsim -list`.
func (sc *Scenario) Axes() string {
	var parts []string
	if len(sc.Dets) > 0 {
		parts = append(parts, fmt.Sprintf("det: %s (default %s)", join(sc.Dets), sc.unset(sc.DefaultDet.String())))
	}
	if len(sc.CCs) > 0 {
		parts = append(parts, fmt.Sprintf("cc: %s (default %s)", join(sc.CCs), sc.unset(sc.DefaultCC.String())))
	}
	if sc.Faults {
		parts = append(parts, "faults")
	}
	if len(sc.Archs) > 0 {
		parts = append(parts, "arch: "+strings.Join(sc.Archs, ", "))
	}
	if len(sc.Workloads) > 0 {
		parts = append(parts, "workload: "+strings.Join(sc.Workloads, ", "))
	}
	if sc.FatTree {
		parts = append(parts, "k, flows")
	}
	if sc.Battery {
		parts = append(parts, "battery")
	}
	if sc.FullHorizon > 0 {
		parts = append(parts, fmt.Sprintf("full: %v", sc.FullHorizon))
	}
	return strings.Join(parts, "; ")
}

// unset names what an unset det/cc runs: the whole menu for a comparison
// scenario, def otherwise.
func (sc *Scenario) unset(def string) string {
	if sc.Compare {
		return "all"
	}
	return def
}

// Run executes the scenario. It is the one place the axis rules live:
// the header is resolved once (see header); an unset Workload selects the
// menu's first entry; an unset Det/CC selects the default, or every menu
// entry of a comparison scenario. Front-ends validate with Check first,
// so a parameter outside its menu here is a front-end bug and panics.
func (sc *Scenario) Run(p Params) []*Result {
	if err := sc.Check(p); err != nil {
		panic(err)
	}
	h := sc.header(p)
	if p.Workload == "" && len(sc.Workloads) > 0 {
		p.Workload = sc.Workloads[0]
	}
	dets := pick(p.Det, DetNone, sc.DefaultDet, sc.Dets, sc.Compare)
	ccs := pick(p.CC, CCFixed, sc.DefaultCC, sc.CCs, sc.Compare)
	var out []*Result
	for _, p.Det = range dets {
		for _, p.CC = range ccs {
			out = append(out, sc.run(h, p)...)
		}
	}
	return out
}

// header resolves what every simulation of the run shares. The horizon
// is an explicit one, else the Full preset, else 0 — the scenario's own
// default, which Run.over keeps. Obs and Faults carry only what the
// scenario declares it takes.
func (sc *Scenario) header(p Params) Run {
	h := Run{Kind: p.Fabric, Seed: p.Seed, Horizon: p.Horizon}
	if h.Horizon == 0 && p.Full {
		h.Horizon = sc.FullHorizon
	}
	switch sc.Obs {
	case obsAll:
		h.Obs = p.Obs
	case obsProgress:
		h.Obs = obs.Config{ProgressEvery: p.Obs.ProgressEvery, ProgressOut: p.Obs.ProgressOut}
	}
	if sc.Faults {
		h.Faults = p.Faults
	}
	return h
}

// pick resolves one menu axis: the set value, else the whole menu of a
// comparison scenario, else the default.
func pick[T comparable](set, unset, def T, menu []T, compare bool) []T {
	switch {
	case set != unset:
		return []T{set}
	case compare && len(menu) > 0:
		return menu
	}
	return []T{def}
}

// Lookup returns the scenario called name, or nil.
func Lookup(name string) *Scenario { return byName[name] }

var byName = func() map[string]*Scenario {
	m := make(map[string]*Scenario, len(Scenarios))
	for _, sc := range Scenarios {
		m[sc.Name] = sc
	}
	return m
}()

var (
	observeDets = []DetectorKind{DetBaseline, DetTCD, DetTCDAdaptive, DetNPECN}
	archMenu    = []string{"oq", "voq"}
	workloads   = []string{"hadoop", "websearch", "mpiio"}
)

// Scenarios is the registry, in the paper's order. It is built once at
// package init and immutable afterwards; front-ends read it concurrently.
var Scenarios = []*Scenario{
	{Name: "fig3", Desc: "single congestion point, baseline detectors (ECN/FECN)",
		Dets: observeDets, DefaultDet: DetBaseline, Faults: true, Obs: obsAll, Archs: archMenu, run: observeRun(false)},
	{Name: "fig4", Desc: "multiple congestion points, baseline detectors",
		Dets: observeDets, DefaultDet: DetBaseline, Faults: true, Obs: obsAll, Archs: archMenu, run: observeRun(true)},
	{Name: "fig8", Desc: "conceptual ON-OFF model surface Ton(eps, Rd)",
		run: func(Run, Params) []*Result { return []*Result{Fig8(), Section43Table()} }},
	{Name: "fig11", Desc: "testbed marking staircase (UE/CE fractions over time)",
		FullHorizon: 400 * units.Millisecond,
		run: func(h Run, p Params) []*Result {
			cfg := DefaultTestbedConfig(h.Kind)
			cfg.Run = h.over(cfg.Run)
			if p.Full {
				cfg.Bin = 20 * units.Millisecond
			}
			return []*Result{Testbed(cfg)}
		}},
	{Name: "fig12", Desc: "single congestion point with TCD (und -> non-congestion)",
		Dets: observeDets, DefaultDet: DetTCD, Faults: true, Obs: obsAll, Archs: archMenu, run: observeRun(false)},
	{Name: "fig13", Desc: "multiple congestion points with TCD (und -> congestion)",
		Dets: observeDets, DefaultDet: DetTCD, Faults: true, Obs: obsAll, Archs: archMenu, run: observeRun(true)},
	{Name: "table3", Desc: "victim flows marked CE under ECN/FECN/TCD",
		FullHorizon: 120 * units.Millisecond,
		run: func(h Run, _ Params) []*Result {
			res, _ := Table3(h.Horizon, h.Seed)
			return []*Result{res}
		}},
	{Name: "fig14", Desc: "sensitivity of the TCD parameter eps",
		FullHorizon: 60 * units.Millisecond,
		run: func(h Run, _ Params) []*Result {
			res, _ := Fig14(h)
			return []*Result{res}
		}},
	{Name: "fig15", Desc: "DCQCN vs DCQCN+TCD: victim FCT and burst-size sweep",
		FullHorizon: 100 * units.Millisecond, run: victimPairRun(CCDCQCN, CCDCQCNTCD)},
	{Name: "fig16", Desc: "fat-tree FCT slowdown: DCQCN vs DCQCN+TCD",
		Faults: true, Obs: obsProgress, Workloads: workloads, FatTree: true, FullHorizon: 100 * units.Millisecond,
		run: func(h Run, p Params) []*Result {
			return []*Result{fatTreeCompare(h, p, CEE, CCDCQCN, CCDCQCNTCD, p.Workload, 10, 40000)}
		}},
	{Name: "fig17", Desc: "IB CC vs IB CC+TCD: victim MCT and MPI/IO fat-tree",
		Faults: true, Obs: obsProgress, FatTree: true, FullHorizon: 100 * units.Millisecond,
		run: func(h Run, p Params) []*Result {
			// The victim leg takes the seed and the horizon only: the fault
			// schedule names fat-tree ports.
			r1, _, _ := VictimFCT(Run{Kind: IB, Seed: h.Seed, Horizon: h.Horizon}, CCIBCC, CCIBCCTCD)
			return []*Result{r1, fatTreeCompare(h, p, IB, CCIBCC, CCIBCCTCD, "mpiio", 16, 80000)}
		}},
	{Name: "fig18", Desc: "TIMELY vs TIMELY+TCD: victim FCT and burst-size sweep",
		FullHorizon: 100 * units.Millisecond, run: victimPairRun(CCTIMELY, CCTIMELYTCD)},
	{Name: "fig19", Desc: "fat-tree FCT slowdown: TIMELY vs TIMELY+TCD",
		Faults: true, Obs: obsProgress, Workloads: workloads, FatTree: true, FullHorizon: 100 * units.Millisecond,
		run: func(h Run, p Params) []*Result {
			return []*Result{fatTreeCompare(h, p, CEE, CCTIMELY, CCTIMELYTCD, p.Workload, 10, 40000)}
		}},
	{Name: "multiprio", Desc: "§4.5: strict-priority preemption does not disturb TCD",
		run: func(h Run, _ Params) []*Result {
			cfg := DefaultMultiPrioConfig()
			cfg.Run = h.over(cfg.Run)
			return []*Result{MultiPrio(cfg)}
		}},
	{Name: "ablation", Desc: "design-choice ablations: detectors, notification rules, trend slack",
		run: func(h Run, _ Params) []*Result {
			victim := h.over(Run{Horizon: 20 * units.Millisecond})
			// The switch-architecture leg runs its fixed 8 ms whatever the
			// override says.
			arch := h
			arch.Horizon = 8 * units.Millisecond
			return []*Result{
				AblationDetectors(victim),
				AblationNotification(victim),
				AblationTrendSlack(victim),
				AblationSwitchArch(arch),
			}
		}},
	{Name: "victim-under-flap", Desc: "victim flow during a flapping link: stock detector vs TCD",
		Dets: []DetectorKind{DetBaseline, DetTCD}, DefaultDet: DetBaseline, Compare: true, Faults: true, Obs: obsProgress,
		run: func(h Run, p Params) []*Result {
			cfg := DefaultVictimFlapConfig(h.Kind, p.Det)
			cfg.Run = h.over(cfg.Run)
			return []*Result{VictimUnderFlap(cfg)}
		}},
	{Name: "deadlock-unit", Desc: "3-switch ring PFC/CBFC deadlock with initial-trigger attribution",
		Obs: obsAll,
		run: func(h Run, _ Params) []*Result {
			cfg := DefaultDeadlockUnitConfig(h.Kind)
			cfg.Run = h.over(cfg.Run)
			return []*Result{DeadlockUnit(cfg)}
		}},
	{Name: "fig20", Desc: "fairness of the TCD rate-adjustment rules",
		CCs: []CCKind{CCDCQCNTCD, CCTIMELYTCD}, DefaultCC: CCDCQCNTCD, Compare: true, Faults: true,
		FullHorizon: 400 * units.Millisecond,
		run: func(h Run, p Params) []*Result {
			cfg := DefaultFairnessConfig(h.Kind, p.CC)
			cfg.Run = h.over(cfg.Run)
			return []*Result{Fairness(cfg)}
		}},
	{Name: "adversarial", Desc: "attack battery scored against the ground-truth oracle (both fabrics)",
		Battery: true,
		run: func(_ Run, p Params) []*Result {
			_, results := AdversarialReport(p)
			return results
		}},
}

// observeRun wires the §3.1 observation scenarios (fig3/4/12/13).
func observeRun(multi bool) func(Run, Params) []*Result {
	return func(h Run, p Params) []*Result {
		cfg := DefaultObserveConfig(h.Kind, p.Det, multi)
		cfg.Run = h.over(cfg.Run)
		if p.Arch == "voq" {
			cfg.Arch = fabric.InputQueuedVoQ
		}
		return []*Result{Observe(cfg)}
	}
}

// victimPairRun wires fig15/fig18: victim FCT under a stock controller
// versus its TCD variant, then the burst-size sweep, both on CEE.
func victimPairRun(stock, tcd CCKind) func(Run, Params) []*Result {
	return func(h Run, _ Params) []*Result {
		h.Kind = CEE
		r1, _, _ := VictimFCT(h, stock, tcd)
		sizes := []units.ByteSize{32 * units.KB, 64 * units.KB, 128 * units.KB, 250 * units.KB, 500 * units.KB}
		r2, _ := VictimBurstSweep(h, stock, tcd, sizes)
		return []*Result{r1, r2}
	}
}

// fatTreeCompare wires the stock-vs-TCD fat-tree runs of fig16/17/19 on
// fabric kind: DefaultFatTreeConfig's laptop scale, the paper's k and flow
// count under Full, with the explicit K/Flows overrides on top.
func fatTreeCompare(h Run, p Params, kind FabricKind, stock, tcd CCKind, wl string, fullK, fullFlows int) *Result {
	h.Kind = kind
	cfg := DefaultFatTreeConfig(kind, DetBaseline, stock, wl)
	cfg.Run = h.over(cfg.Run)
	if p.Full {
		cfg.K, cfg.MaxFlows = fullK, fullFlows
	}
	if p.K > 0 {
		cfg.K = p.K
	}
	if p.Flows > 0 {
		cfg.MaxFlows = p.Flows
	}
	res, _, _ := FatTreeComparison(cfg, stock, tcd)
	return res
}

// AdversarialReport runs the attack battery over seeds Seed and Seed+1
// and returns the oracle report beside the per-cell results; the
// "adversarial" scenario keeps only the results.
func AdversarialReport(p Params) (*oracle.Report, []*Result) {
	b := p.Battery
	if b == nil {
		b = DefaultBattery()
	}
	opt := BatteryOptions{Seeds: []uint64{p.Seed, p.Seed + 1}}
	if out := p.Obs.ProgressOut; out != nil {
		opt.OnDone = func(res *Result) { fmt.Fprintf(out, "adversarial: %s done\n", res.Name) }
	}
	return RunAdversarialBattery(b, opt)
}
