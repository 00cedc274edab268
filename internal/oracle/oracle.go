// Package oracle derives per-port, per-window ground truth for congestion
// classification — root / victim / idle — from the fabric's own state,
// and scores detector verdicts against it.
//
// The oracle is the referee the paper's evaluation lacks a formal name
// for: detectors see only local queue signals, but the simulator knows
// where every byte is, which ports sit on a pause-wait cycle, and which
// symptoms the adversarial injector manufactured. Ground truth for a
// switch egress port over one window is derived by rule, in order:
//
//  1. Victim if the port is on a pause-wait cycle (the WaitCycles Tarjan
//     scan) with traffic queued: every cycle member waits on buffer only
//     its own progress could free, the defining victim condition.
//  2. Victim if the port spent at least victimOffFrac of the window
//     blocked by flow control while holding more than idleThresh queued —
//     after subtracting any camouflage duty cycle the injector armed
//     against it (manufactured pause time must not manufacture truth).
//  3. Root if more than rootThresh is queued: congestion originating
//     here, not inherited from downstream. rootThresh sits well below
//     detector marking thresholds on purpose, so a camouflaged root —
//     held just under its marking point by the attack — is still truth-
//     root while the detector under test is being fooled.
//  4. Idle otherwise.
//
// The detector's verdict for the same window is read off the port's own
// mark counters: fresh CE marks claim root, else fresh UE marks claim
// victim, else idle. Spoofed CE marks are accounted separately by the
// fabric (Port.SpoofedCE) and never reach these counters, so a spoofing
// attacker degrades flows, not the scoreboard's honesty.
//
// Everything here is deterministic: the sampler is a self-rescheduling
// simulator event reading state already produced, scores are integer
// confusion counts plus IEEE-exact ratios, and reports sort runs before
// comparing — the same battery and seeds produce byte-identical JSON.
package oracle

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"github.com/tcdnet/tcd/internal/fabric"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

// Class is the ternary ground-truth (and verdict) label.
type Class uint8

const (
	// ClassIdle: no meaningful congestion at the port.
	ClassIdle Class = iota
	// ClassRoot: congestion originates at the port.
	ClassRoot
	// ClassVictim: the port is congested only because downstream
	// backpressure stops it from draining.
	ClassVictim

	numClasses
)

func (c Class) String() string {
	switch c {
	case ClassIdle:
		return "idle"
	case ClassRoot:
		return "root"
	case ClassVictim:
		return "victim"
	}
	return "unknown"
}

// The truth rules' constants (see the package comment).
const (
	// window is the scoring granularity.
	window = 50 * units.Microsecond
	// rootThresh: queue occupancy above this is truth-root (unless a
	// victim rule fired first). It sits well below both fabrics' marking
	// thresholds (200 KB CEE / 50 KB IB), so camouflaged roots stay
	// visible to truth.
	rootThresh = 40 * units.KB
	// idleThresh: occupancy at or below this never leaves idle.
	idleThresh = 10 * units.KB
	// victimOffFrac: fraction of the window spent blocked by flow control
	// above which a non-empty port is truth-victim.
	victimOffFrac = 0.25
)

// Sampler scores one run: attached before the run starts, it wakes every
// window, derives truth for every switch egress port, reads the verdict
// deltas, and accumulates the confusion matrix. It only reads simulator
// state, so attaching it cannot perturb the run.
type Sampler struct {
	net   *fabric.Network
	ports []*fabric.Port
	// duty, if non-nil, reports the camouflage pause duty cycle the
	// injector armed against a port (fault.Injector.CamouflageDuty); it
	// is subtracted from the port's observed OFF fraction.
	duty func(*fabric.Port) float64

	prevCE, prevUE []uint64
	prevOff        []units.Time
	// onset/claimAt track time-to-detect per port: when truth first went
	// root, and when the detector first agreed (units.Forever = never).
	onset, claimAt []units.Time

	conf [numClasses][numClasses]int // [truth][verdict]
}

// Attach builds a sampler over net's switch-owned egress ports and
// schedules its first tick one window from now. duty, if non-nil, is the
// injector's camouflage duty cycle per port.
func Attach(net *fabric.Network, duty func(*fabric.Port) float64) *Sampler {
	s := &Sampler{net: net, duty: duty}
	for _, p := range net.Ports() {
		if net.Topo.Nodes[p.Node()].Kind != topo.Switch {
			continue
		}
		s.ports = append(s.ports, p)
	}
	n := len(s.ports)
	s.prevCE = make([]uint64, n)
	s.prevUE = make([]uint64, n)
	s.prevOff = make([]units.Time, n)
	s.onset = make([]units.Time, n)
	s.claimAt = make([]units.Time, n)
	for i := range s.onset {
		s.onset[i] = units.Forever
		s.claimAt[i] = units.Forever
	}
	var tick func()
	tick = func() {
		s.tick()
		net.Sched.After(window, tick)
	}
	net.Sched.After(window, tick)
	return s
}

func (s *Sampler) tick() {
	now := s.net.Sched.Now()
	var inCycle map[*fabric.Port]bool
	if cycles := s.net.WaitCycles(); len(cycles) > 0 {
		inCycle = make(map[*fabric.Port]bool)
		for _, cyc := range cycles {
			for _, p := range cyc {
				inCycle[p] = true
			}
		}
	}
	for i, p := range s.ports {
		q := p.TotalQueueBytes()
		off := p.OffTime(now)
		offFrac := float64(off-s.prevOff[i]) / float64(window)
		s.prevOff[i] = off
		if s.duty != nil {
			offFrac -= s.duty(p)
		}
		truth := ClassIdle
		switch {
		case inCycle[p] && q > 0:
			truth = ClassVictim
		case offFrac >= victimOffFrac && q > idleThresh:
			truth = ClassVictim
		case q > rootThresh:
			truth = ClassRoot
		}
		dCE := p.MarkedCE - s.prevCE[i]
		dUE := p.MarkedUE - s.prevUE[i]
		s.prevCE[i] = p.MarkedCE
		s.prevUE[i] = p.MarkedUE
		verdict := ClassIdle
		if dCE > 0 {
			verdict = ClassRoot
		} else if dUE > 0 {
			verdict = ClassVictim
		}
		s.conf[truth][verdict]++
		if truth == ClassRoot {
			if s.onset[i] == units.Forever {
				s.onset[i] = now
			}
			if verdict == ClassRoot && s.claimAt[i] == units.Forever {
				s.claimAt[i] = now
			}
		}
	}
}

// Score is the outcome of scoring one detector over one run. All fields
// derive from integer counts by IEEE-exact arithmetic, so identical runs
// produce identical scores bit for bit.
type Score struct {
	// Windows is the number of (port, window) observations.
	Windows int `json:"windows"`
	// Confusion[truth][verdict] in idle/root/victim order.
	Confusion [numClasses][numClasses]int `json:"confusion"`
	// Accuracy is the diagonal fraction.
	Accuracy float64 `json:"accuracy"`
	// Precision/Recall per class, idle/root/victim order (0 when the
	// class never occurred / was never claimed).
	Precision [numClasses]float64 `json:"precision"`
	Recall    [numClasses]float64 `json:"recall"`
	// MisdetectLikelihood is P(verdict root | truth victim) — the
	// paper's misdetection: punishing a victim as the culprit.
	MisdetectLikelihood float64 `json:"misdetect_likelihood"`
	// TTDUs is the mean time-to-detect in microseconds over ports that
	// ever became truth-root: detector's first root claim minus truth
	// onset, with ports never detected charged to the horizon. -1 when
	// no port was ever truth-root.
	TTDUs float64 `json:"ttd_us"`
}

// Finish closes the sampler at the run's horizon and computes the score.
func (s *Sampler) Finish(horizon units.Time) Score {
	sc := Score{Confusion: s.conf}
	total, diag := 0, 0
	var rowSum, colSum [numClasses]int
	for t := 0; t < int(numClasses); t++ {
		for v := 0; v < int(numClasses); v++ {
			n := s.conf[t][v]
			total += n
			rowSum[t] += n
			colSum[v] += n
			if t == v {
				diag += n
			}
		}
	}
	sc.Windows = total
	if total > 0 {
		sc.Accuracy = float64(diag) / float64(total)
	}
	for c := 0; c < int(numClasses); c++ {
		if colSum[c] > 0 {
			sc.Precision[c] = float64(s.conf[c][c]) / float64(colSum[c])
		}
		if rowSum[c] > 0 {
			sc.Recall[c] = float64(s.conf[c][c]) / float64(rowSum[c])
		}
	}
	if v := rowSum[ClassVictim]; v > 0 {
		sc.MisdetectLikelihood = float64(s.conf[ClassVictim][ClassRoot]) / float64(v)
	}
	var ttdSum float64
	roots := 0
	for i := range s.onset {
		if s.onset[i] == units.Forever {
			continue
		}
		roots++
		end := s.claimAt[i]
		if end == units.Forever {
			end = horizon
		}
		ttdSum += float64(end-s.onset[i]) / float64(units.Microsecond)
	}
	if roots > 0 {
		sc.TTDUs = ttdSum / float64(roots)
	} else {
		sc.TTDUs = -1
	}
	return sc
}

// Run is one scored (scenario, fabric, detector, seed) cell of a battery.
type Run struct {
	Scenario string `json:"scenario"`
	Fabric   string `json:"fabric"`
	Detector string `json:"detector"`
	Seed     int64  `json:"seed"`
	Score    Score  `json:"score"`
}

// Aggregate is a detector's battery-wide summary.
type Aggregate struct {
	Runs          int     `json:"runs"`
	MeanAccuracy  float64 `json:"mean_accuracy"`
	MeanMisdetect float64 `json:"mean_misdetect"`
}

// Report is the deterministic battery scoreboard: every run, per-detector
// aggregates, and the contradictions the cross-checks surfaced.
type Report struct {
	Runs []Run `json:"runs"`
	// PerDetector aggregates over the whole battery (encoding/json
	// sorts the keys, keeping the report deterministic).
	PerDetector map[string]Aggregate `json:"per_detector"`
	// Contradictions lists cross-seed and cross-fabric inconsistencies:
	// a detector whose score swings with the seed or fabric beyond
	// tolerance is reporting noise, not classification.
	Contradictions []string `json:"contradictions"`
}

// Tolerances for the contradiction checks: accuracy across seeds of the
// same (scenario, fabric, detector) cell may differ by at most
// seedAccuracyTol; misdetection likelihood across fabrics of the same
// (scenario, detector) by at most fabricMisdetectTol. The seed bound is
// tight — seeds perturb arrival jitter, not attack structure — while the
// fabric bound is loose: PFC and CBFC legitimately disagree about what a
// forged pause even does.
const (
	seedAccuracyTol    = 0.25
	fabricMisdetectTol = 0.75
)

// BuildReport sorts the runs, aggregates per detector, and runs the
// contradiction checks.
func BuildReport(runs []Run) *Report {
	sorted := make([]Run, len(runs))
	copy(sorted, runs)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Scenario != b.Scenario {
			return a.Scenario < b.Scenario
		}
		if a.Fabric != b.Fabric {
			return a.Fabric < b.Fabric
		}
		if a.Detector != b.Detector {
			return a.Detector < b.Detector
		}
		return a.Seed < b.Seed
	})
	r := &Report{Runs: sorted, PerDetector: map[string]Aggregate{}}
	for _, run := range sorted {
		agg := r.PerDetector[run.Detector]
		agg.Runs++
		agg.MeanAccuracy += run.Score.Accuracy
		agg.MeanMisdetect += run.Score.MisdetectLikelihood
		r.PerDetector[run.Detector] = agg
	}
	for det, agg := range r.PerDetector {
		agg.MeanAccuracy /= float64(agg.Runs)
		agg.MeanMisdetect /= float64(agg.Runs)
		r.PerDetector[det] = agg
	}
	// Cross-seed: group by (scenario, fabric, detector), compare
	// accuracy extremes. The slice is sorted, so groups are contiguous
	// and the emitted order is deterministic.
	for i := 0; i < len(sorted); {
		j := i
		lo, hi := sorted[i].Score.Accuracy, sorted[i].Score.Accuracy
		for j < len(sorted) && sorted[j].Scenario == sorted[i].Scenario &&
			sorted[j].Fabric == sorted[i].Fabric && sorted[j].Detector == sorted[i].Detector {
			a := sorted[j].Score.Accuracy
			if a < lo {
				lo = a
			}
			if a > hi {
				hi = a
			}
			j++
		}
		if hi-lo > seedAccuracyTol {
			r.Contradictions = append(r.Contradictions, fmt.Sprintf(
				"%s/%s/%s: accuracy swings %.3f..%.3f across seeds (tol %.2f)",
				sorted[i].Scenario, sorted[i].Fabric, sorted[i].Detector, lo, hi, seedAccuracyTol))
		}
		i = j
	}
	// Cross-fabric: group by (scenario, detector), compare mean
	// misdetection likelihood between fabrics.
	type sdKey struct{ scenario, detector string }
	type fabAcc struct {
		sum map[string]float64
		n   map[string]int
	}
	bySD := map[sdKey]*fabAcc{}
	var order []sdKey
	for _, run := range sorted {
		k := sdKey{run.Scenario, run.Detector}
		acc, ok := bySD[k]
		if !ok {
			acc = &fabAcc{sum: map[string]float64{}, n: map[string]int{}}
			bySD[k] = acc
			order = append(order, k)
		}
		acc.sum[run.Fabric] += run.Score.MisdetectLikelihood
		acc.n[run.Fabric]++
	}
	for _, k := range order {
		acc := bySD[k]
		fabrics := make([]string, 0, len(acc.sum))
		for f := range acc.sum {
			fabrics = append(fabrics, f)
		}
		sort.Strings(fabrics)
		for a := 0; a < len(fabrics); a++ {
			for b := a + 1; b < len(fabrics); b++ {
				ma := acc.sum[fabrics[a]] / float64(acc.n[fabrics[a]])
				mb := acc.sum[fabrics[b]] / float64(acc.n[fabrics[b]])
				d := ma - mb
				if d < 0 {
					d = -d
				}
				if d > fabricMisdetectTol {
					r.Contradictions = append(r.Contradictions, fmt.Sprintf(
						"%s/%s: misdetect likelihood diverges %s=%.3f vs %s=%.3f (tol %.2f)",
						k.scenario, k.detector, fabrics[a], ma, fabrics[b], mb, fabricMisdetectTol))
				}
			}
		}
	}
	return r
}

// Marshal renders the report's canonical encoding: indented, sorted map
// keys (encoding/json), trailing newline — byte-identical across runs.
func (r *Report) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteJSON writes the canonical report encoding to path.
func (r *Report) WriteJSON(path string) error {
	data, err := r.Marshal()
	if err != nil {
		return fmt.Errorf("oracle: encoding report: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	return nil
}
