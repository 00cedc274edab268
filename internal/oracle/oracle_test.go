package oracle

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"github.com/tcdnet/tcd/internal/fabric"
	"github.com/tcdnet/tcd/internal/sim"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

// TestScoreMath checks Finish's derived statistics against a hand-built
// confusion matrix and TTD ledger.
func TestScoreMath(t *testing.T) {
	s := &Sampler{
		// [truth][verdict], idle/root/victim order.
		conf: [numClasses][numClasses]int{
			{8, 1, 1}, // idle: 8 right, 1 claimed root, 1 claimed victim
			{2, 6, 2}, // root
			{1, 3, 6}, // victim: 3 punished as root
		},
		onset:   []units.Time{0, 100, units.Forever},
		claimAt: []units.Time{50, units.Forever, units.Forever},
	}
	sc := s.Finish(1000)
	if sc.Windows != 30 {
		t.Errorf("windows = %d, want 30", sc.Windows)
	}
	if want := 20.0 / 30.0; sc.Accuracy != want {
		t.Errorf("accuracy = %v, want %v", sc.Accuracy, want)
	}
	// Precision reads columns, recall reads rows.
	if want := 6.0 / 10.0; sc.Precision[ClassRoot] != want {
		t.Errorf("precision[root] = %v, want %v", sc.Precision[ClassRoot], want)
	}
	if want := 6.0 / 10.0; sc.Recall[ClassRoot] != want {
		t.Errorf("recall[root] = %v, want %v", sc.Recall[ClassRoot], want)
	}
	if want := 6.0 / 9.0; sc.Precision[ClassVictim] != want {
		t.Errorf("precision[victim] = %v, want %v", sc.Precision[ClassVictim], want)
	}
	if want := 3.0 / 10.0; sc.MisdetectLikelihood != want {
		t.Errorf("misdetect = %v, want %v", sc.MisdetectLikelihood, want)
	}
	// Port 0 detected after 50, port 1 never detected (charged the
	// horizon: 1000-100=900), port 2 never truth-root (excluded).
	wantTTD := (50.0 + 900.0) / 2 / float64(units.Microsecond)
	if math.Abs(sc.TTDUs-wantTTD) > 1e-12 {
		t.Errorf("ttd_us = %v, want %v", sc.TTDUs, wantTTD)
	}
}

// TestScoreEmpty: a sampler that never ticked scores zero without NaNs.
func TestScoreEmpty(t *testing.T) {
	sc := (&Sampler{}).Finish(1000)
	if sc.Windows != 0 || sc.Accuracy != 0 || sc.MisdetectLikelihood != 0 {
		t.Errorf("empty score not zero: %+v", sc)
	}
	if sc.TTDUs != -1 {
		t.Errorf("ttd_us = %v, want -1 when no port was truth-root", sc.TTDUs)
	}
}

// TestIdleFabricScoresIdle grades a fabric whose truth is known by
// construction: with no traffic nothing is ever queued or paused, so every
// window of every switch egress port is truth-idle, and with no marks
// every verdict is idle too.
func TestIdleFabricScoresIdle(t *testing.T) {
	g := topo.New()
	a, b := g.AddHost("a"), g.AddHost("b")
	s0, s1 := g.AddSwitch("s0"), g.AddSwitch("s1")
	g.Connect(a, s0, 40*units.Gbps, units.Microsecond)
	g.Connect(s0, s1, 40*units.Gbps, units.Microsecond)
	g.Connect(s1, b, 40*units.Gbps, units.Microsecond)
	sched := sim.New()
	smp := Attach(fabric.New(sched, g, fabric.DefaultConfig()), nil)
	const horizon = units.Millisecond
	sched.RunUntil(horizon)
	sc := smp.Finish(horizon)

	// s0 and s1 own two egress ports each.
	want := int(horizon/window) * 4
	if sc.Windows != want || sc.Confusion[ClassIdle][ClassIdle] != want {
		t.Errorf("windows %d, idle/idle %d; want both %d", sc.Windows, sc.Confusion[ClassIdle][ClassIdle], want)
	}
	if sc.Accuracy != 1 || sc.MisdetectLikelihood != 0 || sc.TTDUs != -1 {
		t.Errorf("accuracy %v, misdetect %v, ttd %v; want 1, 0, -1", sc.Accuracy, sc.MisdetectLikelihood, sc.TTDUs)
	}
}

func run(scenario, fabric, det string, seed int64, acc, mis float64) Run {
	return Run{Scenario: scenario, Fabric: fabric, Detector: det, Seed: seed,
		Score: Score{Accuracy: acc, MisdetectLikelihood: mis}}
}

// TestBuildReportAggregates checks sorting and per-detector means.
func TestBuildReportAggregates(t *testing.T) {
	rep := BuildReport([]Run{
		run("b", "ib", "tcd", 2, 0.9, 0.0),
		run("a", "cee", "tcd", 1, 0.7, 0.2),
		run("a", "cee", "baseline", 1, 0.5, 0.4),
	})
	if got := rep.Runs[0]; got.Scenario != "a" || got.Detector != "baseline" {
		t.Errorf("runs not sorted: first is %+v", got)
	}
	agg := rep.PerDetector["tcd"]
	if agg.Runs != 2 || agg.MeanAccuracy != 0.8 || agg.MeanMisdetect != 0.1 {
		t.Errorf("tcd aggregate = %+v, want {2 0.8 0.1}", agg)
	}
	if len(rep.Contradictions) != 0 {
		t.Errorf("unexpected contradictions: %v", rep.Contradictions)
	}
}

// TestBuildReportContradictions triggers both cross-checks.
func TestBuildReportContradictions(t *testing.T) {
	rep := BuildReport([]Run{
		// Cross-seed: accuracy swings 0.2..0.9 > seedAccuracyTol.
		run("storm", "cee", "tcd", 1, 0.9, 0.0),
		run("storm", "cee", "tcd", 2, 0.2, 0.0),
		// Cross-fabric: misdetect 0.9 vs 0.0 > fabricMisdetectTol.
		run("storm", "cee", "baseline", 1, 0.8, 0.9),
		run("storm", "ib", "baseline", 1, 0.8, 0.0),
	})
	if len(rep.Contradictions) != 2 {
		t.Fatalf("got %d contradictions, want 2: %v", len(rep.Contradictions), rep.Contradictions)
	}
	if !strings.Contains(rep.Contradictions[0], "across seeds") {
		t.Errorf("first contradiction is not the cross-seed check: %q", rep.Contradictions[0])
	}
	if !strings.Contains(rep.Contradictions[1], "diverges") {
		t.Errorf("second contradiction is not the cross-fabric check: %q", rep.Contradictions[1])
	}
}

// TestMarshalDeterminism: building the same report from shuffled input
// yields byte-identical JSON.
func TestMarshalDeterminism(t *testing.T) {
	runs := []Run{
		run("b", "ib", "tcd", 2, 0.9, 0.0),
		run("a", "cee", "tcd", 1, 0.7, 0.2),
		run("a", "cee", "baseline", 1, 0.5, 0.4),
	}
	shuffled := []Run{runs[2], runs[0], runs[1]}
	a, err := BuildReport(runs).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildReport(shuffled).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("report encoding depends on input order:\n%s\nvs\n%s", a, b)
	}
	if a[len(a)-1] != '\n' {
		t.Errorf("canonical encoding missing trailing newline")
	}
}
