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
	// Obs wires tracing, metrics and progress into single-simulation
	// scenarios; scenarios that run several simulations back to back keep
	// only the progress ticker (shared sinks would interleave the runs).
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

	run func(Params) []*Result
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
// an explicit Horizon wins over the Full preset, which wins over the
// scenario default; an unset Workload selects the menu's first entry;
// an unset Det/CC selects the default, or every menu entry of a
// comparison scenario. Front-ends validate with Check first, so a
// parameter outside its menu here is a front-end bug and panics.
func (sc *Scenario) Run(p Params) []*Result {
	if err := sc.Check(p); err != nil {
		panic(err)
	}
	p.Horizon = sc.horizon(p)
	if p.Workload == "" && len(sc.Workloads) > 0 {
		p.Workload = sc.Workloads[0]
	}
	dets := pick(p.Det, DetNone, sc.DefaultDet, sc.Dets, sc.Compare)
	ccs := pick(p.CC, CCFixed, sc.DefaultCC, sc.CCs, sc.Compare)
	var out []*Result
	for _, p.Det = range dets {
		for _, p.CC = range ccs {
			out = append(out, sc.run(p)...)
		}
	}
	return out
}

// horizon resolves the override in one place: an explicit horizon, else
// the Full preset, else 0 — the scenario's own default.
func (sc *Scenario) horizon(p Params) units.Time {
	if p.Horizon == 0 && p.Full {
		return sc.FullHorizon
	}
	return p.Horizon
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
		Dets: observeDets, DefaultDet: DetBaseline, Faults: true, Archs: archMenu, run: observeRun(false)},
	{Name: "fig4", Desc: "multiple congestion points, baseline detectors",
		Dets: observeDets, DefaultDet: DetBaseline, Faults: true, Archs: archMenu, run: observeRun(true)},
	{Name: "fig8", Desc: "conceptual ON-OFF model surface Ton(eps, Rd)",
		run: func(Params) []*Result { return []*Result{Fig8(), Section43Table()} }},
	{Name: "fig11", Desc: "testbed marking staircase (UE/CE fractions over time)",
		FullHorizon: 400 * units.Millisecond,
		run: func(p Params) []*Result {
			cfg := DefaultTestbedConfig(p.Fabric)
			cfg.Seed = p.Seed
			setHorizon(&cfg.Horizon, p)
			if p.Full {
				cfg.Bin = 20 * units.Millisecond
			}
			return []*Result{Testbed(cfg)}
		}},
	{Name: "fig12", Desc: "single congestion point with TCD (und -> non-congestion)",
		Dets: observeDets, DefaultDet: DetTCD, Faults: true, Archs: archMenu, run: observeRun(false)},
	{Name: "fig13", Desc: "multiple congestion points with TCD (und -> congestion)",
		Dets: observeDets, DefaultDet: DetTCD, Faults: true, Archs: archMenu, run: observeRun(true)},
	{Name: "table3", Desc: "victim flows marked CE under ECN/FECN/TCD",
		FullHorizon: 120 * units.Millisecond,
		run: func(p Params) []*Result {
			res, _ := Table3(p.Horizon, p.Seed)
			return []*Result{res}
		}},
	{Name: "fig14", Desc: "sensitivity of the TCD parameter eps",
		FullHorizon: 60 * units.Millisecond,
		run: func(p Params) []*Result {
			res, _ := Fig14(p.Fabric, p.Horizon, p.Seed)
			return []*Result{res}
		}},
	{Name: "fig15", Desc: "DCQCN vs DCQCN+TCD: victim FCT and burst-size sweep",
		FullHorizon: 100 * units.Millisecond, run: victimPairRun(CCDCQCN, CCDCQCNTCD)},
	{Name: "fig16", Desc: "fat-tree FCT slowdown: DCQCN vs DCQCN+TCD",
		Faults: true, Workloads: workloads, FatTree: true, FullHorizon: 100 * units.Millisecond,
		run: func(p Params) []*Result {
			return []*Result{fatTreeCompare(p, CEE, CCDCQCN, CCDCQCNTCD, p.Workload, 10, 40000)}
		}},
	{Name: "fig17", Desc: "IB CC vs IB CC+TCD: victim MCT and MPI/IO fat-tree",
		Faults: true, FatTree: true, FullHorizon: 100 * units.Millisecond,
		run: func(p Params) []*Result {
			r1, _, _ := VictimFCT(IB, CCIBCC, CCIBCCTCD, p.Horizon, p.Seed)
			return []*Result{r1, fatTreeCompare(p, IB, CCIBCC, CCIBCCTCD, "mpiio", 16, 80000)}
		}},
	{Name: "fig18", Desc: "TIMELY vs TIMELY+TCD: victim FCT and burst-size sweep",
		FullHorizon: 100 * units.Millisecond, run: victimPairRun(CCTIMELY, CCTIMELYTCD)},
	{Name: "fig19", Desc: "fat-tree FCT slowdown: TIMELY vs TIMELY+TCD",
		Faults: true, Workloads: workloads, FatTree: true, FullHorizon: 100 * units.Millisecond,
		run: func(p Params) []*Result {
			return []*Result{fatTreeCompare(p, CEE, CCTIMELY, CCTIMELYTCD, p.Workload, 10, 40000)}
		}},
	{Name: "multiprio", Desc: "§4.5: strict-priority preemption does not disturb TCD",
		run: func(p Params) []*Result {
			cfg := DefaultMultiPrioConfig()
			cfg.Seed = p.Seed
			setHorizon(&cfg.Horizon, p)
			return []*Result{MultiPrio(cfg)}
		}},
	{Name: "ablation", Desc: "design-choice ablations: detectors, notification rules, trend slack",
		run: func(p Params) []*Result {
			h := 20 * units.Millisecond
			setHorizon(&h, p)
			return []*Result{
				AblationDetectors(p.Fabric, h, p.Seed),
				AblationNotification(h, p.Seed),
				AblationTrendSlack(h, p.Seed),
				AblationSwitchArch(8*units.Millisecond, p.Seed),
			}
		}},
	{Name: "victim-under-flap", Desc: "victim flow during a flapping link: stock detector vs TCD",
		Dets: []DetectorKind{DetBaseline, DetTCD}, DefaultDet: DetBaseline, Compare: true, Faults: true,
		run: func(p Params) []*Result {
			cfg := DefaultVictimFlapConfig(p.Fabric, p.Det)
			cfg.Seed = p.Seed
			cfg.Faults = p.Faults
			cfg.Obs = progressOnly(p.Obs)
			setHorizon(&cfg.Horizon, p)
			return []*Result{VictimUnderFlap(cfg)}
		}},
	{Name: "deadlock-unit", Desc: "3-switch ring PFC/CBFC deadlock with initial-trigger attribution",
		run: func(p Params) []*Result {
			cfg := DefaultDeadlockUnitConfig(p.Fabric)
			cfg.Seed = p.Seed
			cfg.Obs = p.Obs
			setHorizon(&cfg.Horizon, p)
			return []*Result{DeadlockUnit(cfg)}
		}},
	{Name: "fig20", Desc: "fairness of the TCD rate-adjustment rules",
		CCs: []CCKind{CCDCQCNTCD, CCTIMELYTCD}, DefaultCC: CCDCQCNTCD, Compare: true, Faults: true,
		FullHorizon: 400 * units.Millisecond,
		run: func(p Params) []*Result {
			cfg := DefaultFairnessConfig(p.Fabric, p.CC)
			cfg.Seed = p.Seed
			cfg.Faults = p.Faults
			setHorizon(&cfg.Horizon, p)
			return []*Result{Fairness(cfg)}
		}},
	{Name: "adversarial", Desc: "attack battery scored against the ground-truth oracle (both fabrics)",
		Battery: true,
		run: func(p Params) []*Result {
			_, results := AdversarialReport(p)
			return results
		}},
}

// setHorizon applies the resolved override, keeping the config's own
// default when there is none.
func setHorizon(dst *units.Time, p Params) {
	if p.Horizon > 0 {
		*dst = p.Horizon
	}
}

// progressOnly strips the trace/metrics sinks, keeping the progress
// ticker, for scenarios that run several simulations back to back.
func progressOnly(o obs.Config) obs.Config {
	return obs.Config{ProgressEvery: o.ProgressEvery, ProgressOut: o.ProgressOut}
}

// observeRun wires the §3.1 observation scenarios (fig3/4/12/13).
func observeRun(multi bool) func(Params) []*Result {
	return func(p Params) []*Result {
		cfg := DefaultObserveConfig(p.Fabric, p.Det, multi)
		cfg.Seed = p.Seed
		cfg.Obs = p.Obs
		cfg.Faults = p.Faults
		if p.Arch == "voq" {
			cfg.Arch = fabric.InputQueuedVoQ
		}
		setHorizon(&cfg.Horizon, p)
		return []*Result{Observe(cfg)}
	}
}

// victimPairRun wires fig15/fig18: victim FCT under a stock controller
// versus its TCD variant, then the burst-size sweep.
func victimPairRun(stock, tcd CCKind) func(Params) []*Result {
	return func(p Params) []*Result {
		r1, _, _ := VictimFCT(CEE, stock, tcd, p.Horizon, p.Seed)
		sizes := []units.ByteSize{32 * units.KB, 64 * units.KB, 128 * units.KB, 250 * units.KB, 500 * units.KB}
		r2, _ := VictimBurstSweep(CEE, stock, tcd, sizes, p.Horizon, p.Seed)
		return []*Result{r1, r2}
	}
}

// fatTreeCompare wires the stock-vs-TCD fat-tree runs of fig16/17/19 at
// laptop scale (k=6, 4000 flows), at the paper's k and flow count under
// Full, with the explicit K/Flows overrides on top.
func fatTreeCompare(p Params, kind FabricKind, stock, tcd CCKind, wl string, fullK, fullFlows int) *Result {
	cfg := DefaultFatTreeConfig(kind, DetBaseline, stock, wl)
	cfg.Seed = p.Seed
	cfg.Obs = progressOnly(p.Obs)
	cfg.K, cfg.MaxFlows = 6, 4000
	if p.Full {
		cfg.K, cfg.MaxFlows = fullK, fullFlows
	}
	if p.K > 0 {
		cfg.K = p.K
	}
	if p.Flows > 0 {
		cfg.MaxFlows = p.Flows
	}
	cfg.Faults = p.Faults
	setHorizon(&cfg.Horizon, p)
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
