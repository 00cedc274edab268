// Adversarial experiments: a committed battery of attack scenarios run
// across fabrics and detectors, scored against the oracle's ground truth.
//
// Each scenario is a (topology, workload, fault schedule) triple built
// from the injector's adversarial primitives:
//
//   - pause-storm: a compromised NIC floods a fig2 egress with forged
//     Xoff trains. The stormed port and the chain behind it become true
//     victims; RED-style detectors read the standing queues as roots
//     (the measured misdetection), TCD's pause-aware state machine does
//     not. On IB the forged frames are protocol no-ops — the scenario
//     doubles as the cross-fabric contrast.
//   - spoof-mark: a compromised switch port forges CE marks on transit
//     packets with no queue behind them. Ground truth stays idle and the
//     per-port scoreboard stays clean (forged marks are accounted
//     separately by the fabric); the damage lands on the spoofed flow's
//     congestion control, which the run's goodput scalar shows.
//   - camouflage: micro pause trains hold a genuinely burst-congested
//     root just below TCD's sustained-ON criterion. The oracle strips
//     the manufactured OFF time via the injector's duty-cycle record, so
//     truth still says root — and the scenario documents the attack that
//     fools TCD while queue-threshold baselines keep marking.
//   - route-loop: runtime route rewrites close a cyclic buffer
//     dependency on a 3-switch ring under shortest-path routing — the
//     deadlock-by-routing-loop attack. Cycle membership (the WaitCycles
//     Tarjan scan) is the victim ground truth.
//
// Every run is a plain single-threaded simulation; the battery loops are
// deterministic, so the oracle report is byte-identical across repeats
// and across serial-vs-parallel sweeps (asserted in tests).

package exp

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"github.com/tcdnet/tcd/internal/fault"
	"github.com/tcdnet/tcd/internal/host"
	"github.com/tcdnet/tcd/internal/obs"
	"github.com/tcdnet/tcd/internal/oracle"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

//go:embed testdata/adversarial/battery.json
var defaultBatteryJSON []byte

// AttackScenario is one cell of the adversarial battery.
type AttackScenario struct {
	// Name labels the scenario in results and the oracle report.
	Name string `json:"name"`
	// Topo selects the network: "fig2" (the paper's §3.1 network) or
	// "ring3" (3-switch ring, tiny flow-control buffers, shortest-path
	// routing — the substrate the route-loop attack closes).
	Topo string `json:"topo"`
	// Traffic selects the workload: "light" (one congestion-controlled
	// line-rate flow, fig2), "bursts" (the flow plus §3.1 A-host bursts
	// making P3 a true root, fig2), or "ring" (line-rate two-hop flows,
	// ring3).
	Traffic string `json:"traffic"`
	// HorizonUs ends the run.
	HorizonUs float64 `json:"horizon_us"`
	// Faults is the attack schedule.
	Faults fault.Spec `json:"faults"`
}

// Horizon converts the scenario horizon to simulator time.
func (s AttackScenario) Horizon() units.Time {
	return units.Time(math.Round(s.HorizonUs * float64(units.Microsecond)))
}

// Battery is a set of attack scenarios.
type Battery struct {
	Scenarios []AttackScenario `json:"scenarios"`
}

// ParseBattery decodes and validates a battery spec.
func ParseBattery(data []byte) (*Battery, error) {
	var b Battery
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("adversarial: parsing battery: %w", err)
	}
	if len(b.Scenarios) == 0 {
		return nil, fmt.Errorf("adversarial: battery has no scenarios")
	}
	seen := make(map[string]bool, len(b.Scenarios))
	for i, sc := range b.Scenarios {
		if sc.Name == "" {
			return nil, fmt.Errorf("adversarial: scenario %d has no name", i)
		}
		if seen[sc.Name] {
			return nil, fmt.Errorf("adversarial: duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		switch sc.Topo {
		case "fig2", "ring3":
		default:
			return nil, fmt.Errorf("adversarial: scenario %q: unknown topo %q", sc.Name, sc.Topo)
		}
		switch sc.Traffic {
		case "light", "bursts", "ring":
		default:
			return nil, fmt.Errorf("adversarial: scenario %q: unknown traffic %q", sc.Name, sc.Traffic)
		}
		if (sc.Topo == "ring3") != (sc.Traffic == "ring") {
			return nil, fmt.Errorf("adversarial: scenario %q: traffic %q does not fit topo %q",
				sc.Name, sc.Traffic, sc.Topo)
		}
		if !(sc.HorizonUs > 0) || math.IsInf(sc.HorizonUs, 0) {
			return nil, fmt.Errorf("adversarial: scenario %q: horizon_us must be a positive finite number", sc.Name)
		}
		if err := sc.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("adversarial: scenario %q: %w", sc.Name, err)
		}
	}
	return &b, nil
}

// LoadBattery reads and validates a battery spec from a file.
func LoadBattery(path string) (*Battery, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("adversarial: %w", err)
	}
	return ParseBattery(data)
}

// DefaultBattery returns the committed battery the CI golden gate runs.
func DefaultBattery() *Battery {
	b, err := ParseBattery(defaultBatteryJSON)
	if err != nil {
		panic("exp: embedded battery is invalid: " + err.Error())
	}
	return b
}

// AdversarialConfig parameterizes one scored battery cell. Of the header
// the caller sets Kind, Seed and Obs; the horizon and the fault schedule
// are the scenario's.
type AdversarialConfig struct {
	Run
	Scenario AttackScenario
	Det      DetectorKind
}

// Adversarial runs one attack scenario under one fabric and detector and
// scores the detector against the oracle's ground truth. The Result
// carries the score as scalars (so sweeps fold it through Aggregate);
// the oracle.Run feeds BuildReport.
func Adversarial(cfg AdversarialConfig) (*Result, oracle.Run) {
	cfg.Horizon, cfg.Faults = cfg.Scenario.Horizon(), &cfg.Scenario.Faults
	var (
		rig  *Rig
		f2   *Fig2Rig
		ring *topo.Ring
	)
	switch cfg.Scenario.Topo {
	case "fig2":
		f2 = NewFig2Rig(topo.Fig2Config{}, RigConfig{Run: cfg.Run, Det: cfg.Det})
		rig = f2.Rig
	case "ring3":
		rig, ring = newRing3Rig(cfg.Run, cfg.Det)
	default:
		panic("exp: unknown adversarial topo " + cfg.Scenario.Topo)
	}
	res := NewResult(fmt.Sprintf("adversarial-%s-%s-%s", cfg.Scenario.Name, cfg.Kind, cfg.Det))

	smp := oracle.Attach(rig.Net, oracle.Config{
		// RootThresh sits well below both fabrics' marking thresholds
		// (200 KB CEE / 50 KB IB) so camouflaged roots stay truth-roots.
		RootThresh:    40 * units.KB,
		IdleThresh:    10 * units.KB,
		VictimOffFrac: 0.25,
		Duty:          rig.Inj.CamouflageDuty,
	})

	line := 40 * units.Gbps
	var f1 *host.Flow
	switch cfg.Scenario.Traffic {
	case "light", "bursts":
		f1 = f2.AddF1()
		if cfg.Scenario.Traffic == "bursts" {
			f2.LaunchBursts(200*units.Microsecond, 64*units.KB, 6, units.TxTime(15*64*units.KB, line))
		}
	case "ring":
		for i := 0; i < 3; i++ {
			rig.Mgr.AddFlow(ring.Hosts[i], ring.Hosts[(i+2)%3], 2*units.MB, 0, host.FixedRate(line))
		}
	}

	rig.Run(cfg.Horizon)
	score := smp.Finish(cfg.Horizon)

	res.Scalars["oracle_windows"] = float64(score.Windows)
	res.Scalars["oracle_accuracy"] = score.Accuracy
	res.Scalars["oracle_misdetect"] = score.MisdetectLikelihood
	res.Scalars["oracle_ttd_us"] = score.TTDUs
	classes := []string{"idle", "root", "victim"}
	for t, tn := range classes {
		for v, vn := range classes {
			res.Scalars["oracle_conf_"+tn+"_"+vn] = float64(score.Confusion[t][v])
		}
		res.Scalars["oracle_prec_"+tn] = score.Precision[t]
		res.Scalars["oracle_rec_"+tn] = score.Recall[t]
	}
	// Every cell carries the same keys (sweeps fold them across cells), so
	// the attack counters are emitted even when zero.
	res.Scalars["fault_actions_armed"] = float64(rig.Inj.Armed)
	res.Scalars["fault_drops"] = float64(rig.Net.FaultDrops)
	spoofed, forged := rig.attackTotals()
	res.Scalars["spoofed_ce"] = float64(spoofed)
	res.Scalars["forged_ctrl"] = float64(forged)
	if f1 != nil {
		res.Scalars["f1_goodput_gbps"] = float64(units.RateOf(f1.BytesRxed(), cfg.Horizon)) / 1e9
	}
	rig.AttachTelemetry(res)

	return res, oracle.Run{
		Scenario: cfg.Scenario.Name,
		Fabric:   cfg.Kind.String(),
		Detector: cfg.Det.String(),
		Seed:     int64(cfg.Seed),
		Score:    score,
	}
}

// BatteryOptions shapes a full battery sweep. Zero-value axes default to
// both fabrics, the three scored detectors (baseline, TCD, NP-ECN), and
// seeds 1–2 — the committed golden configuration.
type BatteryOptions struct {
	Fabrics []FabricKind
	Dets    []DetectorKind
	Seeds   []uint64
	Obs     obs.Config
	// OnDone, if non-nil, is called after each cell (progress lines).
	OnDone func(res *Result)
}

// RunAdversarialBattery runs every (scenario, fabric, detector, seed)
// cell of the battery in deterministic order and returns the oracle
// report plus the per-cell Results (for sweep-style aggregation).
func RunAdversarialBattery(b *Battery, opt BatteryOptions) (*oracle.Report, []*Result) {
	if len(opt.Fabrics) == 0 {
		opt.Fabrics = []FabricKind{CEE, IB}
	}
	if len(opt.Dets) == 0 {
		opt.Dets = []DetectorKind{DetBaseline, DetTCD, DetNPECN}
	}
	if len(opt.Seeds) == 0 {
		opt.Seeds = []uint64{1, 2}
	}
	var (
		runs    []oracle.Run
		results []*Result
	)
	for _, sc := range b.Scenarios {
		for _, k := range opt.Fabrics {
			for _, d := range opt.Dets {
				for _, s := range opt.Seeds {
					res, run := Adversarial(AdversarialConfig{
						Run: Run{Kind: k, Seed: s, Obs: opt.Obs}, Scenario: sc, Det: d,
					})
					results = append(results, res)
					runs = append(runs, run)
					if opt.OnDone != nil {
						opt.OnDone(res)
					}
				}
			}
		}
	}
	return oracle.BuildReport(runs), results
}
