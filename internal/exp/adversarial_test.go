package exp_test

// Adversarial battery gates. The committed battery (testdata/adversarial/
// battery.json) runs across both fabrics and all three scored detectors;
// the oracle report is byte-gated against testdata/golden/adversarial.json
// and the TCD-vs-baseline advantage is a scored regression gate, not a
// prose claim. Determinism is asserted three ways: repeat-run report
// identity, serial-vs-parallel sweep result identity, and Aggregate fold
// identity over the same cells.
//
// Regenerate the oracle-score fixture intentionally with:
//
//	go test ./internal/exp -run TestAdversarialGolden -update-adversarial

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/tcdnet/tcd/internal/exp"
	"github.com/tcdnet/tcd/internal/exp/sweep"
	"github.com/tcdnet/tcd/internal/oracle"
)

var updateAdversarial = flag.Bool("update-adversarial", false,
	"rewrite the golden oracle report in testdata/golden/adversarial.json")

// batteryOnce runs the default battery exactly once per test binary; the
// gates below all read the same report.
var batteryOnce = sync.OnceValues(func() (*oracle.Report, []*exp.Result) {
	return exp.RunAdversarialBattery(exp.DefaultBattery(), exp.BatteryOptions{})
})

// TestAdversarialGolden byte-gates the full default-battery oracle report
// against the committed fixture.
func TestAdversarialGolden(t *testing.T) {
	rep, _ := batteryOnce()
	got, err := rep.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	path := filepath.Join("testdata", "golden", "adversarial.json")
	if *updateAdversarial {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update-adversarial to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("oracle report differs from committed golden: %s", firstDiffT(got, want))
	}
}

// TestAdversarialRepeatDeterminism re-runs the battery from scratch and
// requires the second report to be byte-identical to the first.
func TestAdversarialRepeatDeterminism(t *testing.T) {
	first, _ := batteryOnce()
	a, err := first.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	again, _ := exp.RunAdversarialBattery(exp.DefaultBattery(), exp.BatteryOptions{})
	b, err := again.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("repeat battery run diverged: %s", firstDiffT(b, a))
	}
}

// batterySweep expands the default battery into a sweep grid and runs it
// through the sweep engine with the given worker count.
func batterySweep(t *testing.T, parallel int) []*sweep.RunResult {
	t.Helper()
	b := exp.DefaultBattery()
	byName := make(map[string]exp.AttackScenario, len(b.Scenarios))
	names := make([]string, 0, len(b.Scenarios))
	for _, sc := range b.Scenarios {
		byName[sc.Name] = sc
		names = append(names, sc.Name)
	}
	grid := sweep.Grid{
		Exps:    names,
		Fabrics: []exp.FabricKind{exp.CEE, exp.IB},
		Dets:    []exp.DetectorKind{exp.DetBaseline, exp.DetTCD, exp.DetNPECN},
		Seeds:   sweep.Seq(1, 2),
	}
	fn := func(s sweep.Spec) []*exp.Result {
		res, _ := exp.Adversarial(exp.AdversarialConfig{
			Run: exp.Run{Kind: s.Fabric, Seed: s.Seed}, Scenario: byName[s.Exp], Det: s.Det,
		})
		return []*exp.Result{res}
	}
	return sweep.Run(context.Background(), grid.Specs(), fn, sweep.Options{Parallel: parallel})
}

// marshalResults renders run results (or aggregates) for byte comparison.
func marshalResults(t *testing.T, rs []*exp.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range rs {
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestAdversarialSweepParallelIdentity runs the battery grid serially and
// on a worker pool and requires per-run results and the Aggregate fold to
// be byte-identical — the oracle scalars survive sweep folding untouched
// by scheduling order.
func TestAdversarialSweepParallelIdentity(t *testing.T) {
	serial := batterySweep(t, 1)
	parallel := batterySweep(t, 8)
	if len(serial) != len(parallel) {
		t.Fatalf("run count: serial=%d parallel=%d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("run %s failed: serial=%v parallel=%v",
				serial[i].Spec, serial[i].Err, parallel[i].Err)
		}
		a := marshalResults(t, serial[i].Results)
		b := marshalResults(t, parallel[i].Results)
		if !bytes.Equal(a, b) {
			t.Fatalf("run %s differs serial-vs-parallel: %s", serial[i].Spec, firstDiffT(b, a))
		}
	}
	aggA := marshalResults(t, sweep.Aggregate(serial))
	aggB := marshalResults(t, sweep.Aggregate(parallel))
	if !bytes.Equal(aggA, aggB) {
		t.Errorf("Aggregate fold differs serial-vs-parallel: %s", firstDiffT(aggB, aggA))
	}
	if !strings.Contains(string(aggA), "oracle_accuracy") ||
		!strings.Contains(string(aggA), "oracle_misdetect") {
		t.Errorf("aggregate is missing folded oracle scalars")
	}
}

// TestAdversarialTCDAdvantage is the scored regression gate: under the
// committed battery TCD must beat the RED/FECN baseline on both mean
// accuracy and mean misdetection likelihood, with the baseline's
// misdetection substantial (it punishes storm victims as roots).
func TestAdversarialTCDAdvantage(t *testing.T) {
	rep, _ := batteryOnce()
	for _, det := range []string{"baseline", "tcd", "np-ecn"} {
		if _, ok := rep.PerDetector[det]; !ok {
			t.Fatalf("report has no aggregate for detector %q", det)
		}
	}
	tcd, base := rep.PerDetector["tcd"], rep.PerDetector["baseline"]
	if tcd.MeanAccuracy <= base.MeanAccuracy {
		t.Errorf("TCD mean accuracy %.4f not above baseline %.4f", tcd.MeanAccuracy, base.MeanAccuracy)
	}
	if tcd.MeanMisdetect >= base.MeanMisdetect {
		t.Errorf("TCD mean misdetect %.4f not below baseline %.4f", tcd.MeanMisdetect, base.MeanMisdetect)
	}
	if base.MeanMisdetect < 0.05 {
		t.Errorf("baseline mean misdetect %.4f too small — the storm scenario stopped biting", base.MeanMisdetect)
	}
	if len(rep.Contradictions) != 0 {
		t.Errorf("unexpected contradictions: %v", rep.Contradictions)
	}

	// Per-scenario shape checks on the raw runs.
	for _, run := range rep.Runs {
		switch {
		case run.Scenario == "pause-storm" && run.Fabric == "ib":
			// Forged PFC frames are protocol no-ops under credit flow
			// control: nothing happens, every detector scores perfectly.
			if run.Score.Accuracy != 1 {
				t.Errorf("pause-storm/ib/%s/seed=%d: accuracy %.4f, want 1 (forged Xoff must be a no-op on IB)",
					run.Detector, run.Seed, run.Score.Accuracy)
			}
		case run.Scenario == "pause-storm" && run.Fabric == "cee" && run.Detector == "baseline":
			if run.Score.MisdetectLikelihood < 0.5 {
				t.Errorf("pause-storm/cee/baseline/seed=%d: misdetect %.4f, want >= 0.5 (RED should punish storm victims)",
					run.Seed, run.Score.MisdetectLikelihood)
			}
		case run.Scenario == "pause-storm" && run.Fabric == "cee" && run.Detector == "tcd":
			if run.Score.MisdetectLikelihood != 0 {
				t.Errorf("pause-storm/cee/tcd/seed=%d: misdetect %.4f, want 0 (TCD must not punish storm victims)",
					run.Seed, run.Score.MisdetectLikelihood)
			}
		case run.Scenario == "spoof-mark":
			// Forged CE marks bypass the port scoreboard entirely: the
			// per-port verdicts stay honest even while the spoofed flow's
			// congestion control is being strangled.
			if run.Score.Accuracy != 1 {
				t.Errorf("spoof-mark/%s/%s/seed=%d: accuracy %.4f, want 1 (spoofed marks must not reach the scoreboard)",
					run.Fabric, run.Detector, run.Seed, run.Score.Accuracy)
			}
		case run.Scenario == "camouflage" && run.Fabric == "cee" && run.Detector == "tcd":
			// The documented attack that fools TCD: the camouflaged root
			// is held below the sustained-ON criterion, so TCD's recall of
			// truth-root windows collapses while the baseline keeps marking.
			if run.Score.Recall[1] > 0.2 {
				t.Errorf("camouflage/cee/tcd/seed=%d: root recall %.4f, want <= 0.2 (camouflage should fool TCD)",
					run.Seed, run.Score.Recall[1])
			}
		}
	}

	// Attack side effects actually landed.
	_, results := batteryOnce()
	sums := map[string]float64{}
	for _, r := range results {
		for _, k := range []string{"spoofed_ce", "forged_ctrl", "fault_actions_armed"} {
			sums[k] += r.Scalars[k]
		}
	}
	for k, v := range sums {
		if v <= 0 {
			t.Errorf("battery-wide %s = %g, want > 0", k, v)
		}
	}
}

// TestParseBatteryValidation is the table gate on battery specs.
func TestParseBatteryValidation(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string // substring of the error; "" means valid
	}{
		{"valid minimal", `{"scenarios":[{"name":"a","topo":"fig2","traffic":"light","horizon_us":100,
			"faults":{"events":[{"kind":"spoof-mark","port":"L0->T2","at_us":10,"prob":0.5}]}}]}`, ""},
		{"empty battery", `{"scenarios":[]}`, "no scenarios"},
		{"unknown field", `{"scenarios":[],"extra":1}`, "unknown field"},
		{"missing name", `{"scenarios":[{"topo":"fig2","traffic":"light","horizon_us":100}]}`, "no name"},
		{"duplicate name", `{"scenarios":[
			{"name":"a","topo":"fig2","traffic":"light","horizon_us":100},
			{"name":"a","topo":"fig2","traffic":"light","horizon_us":100}]}`, "duplicate scenario"},
		{"bad topo", `{"scenarios":[{"name":"a","topo":"mesh","traffic":"light","horizon_us":100}]}`, "unknown topo"},
		{"bad traffic", `{"scenarios":[{"name":"a","topo":"fig2","traffic":"storm","horizon_us":100}]}`, "unknown traffic"},
		{"ring traffic on fig2", `{"scenarios":[{"name":"a","topo":"fig2","traffic":"ring","horizon_us":100}]}`, "does not fit"},
		{"zero horizon", `{"scenarios":[{"name":"a","topo":"fig2","traffic":"light","horizon_us":0}]}`, "horizon_us"},
		{"invalid faults", `{"scenarios":[{"name":"a","topo":"fig2","traffic":"light","horizon_us":100,
			"faults":{"events":[{"kind":"pause-storm","port":"T2->R1","at_us":-10,"period_us":40,"until_us":90}]}}]}`, "negative"},
		{"unknown fault kind", `{"scenarios":[{"name":"a","topo":"fig2","traffic":"light","horizon_us":100,
			"faults":{"events":[{"kind":"emp-burst","port":"T2->R1","at_us":10}]}}]}`, "unknown kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := exp.ParseBattery([]byte(tc.json))
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// firstDiffT is firstDiff for the external test package.
func firstDiffT(got, want []byte) string {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	i := 0
	for i < n && got[i] == want[i] {
		i++
	}
	if i == n && len(got) == len(want) {
		return "equal"
	}
	lo := i - 40
	if lo < 0 {
		lo = 0
	}
	excerpt := func(b []byte) string {
		hi := i + 40
		if hi > len(b) {
			hi = len(b)
		}
		if lo >= len(b) {
			return "<EOF>"
		}
		return string(b[lo:hi])
	}
	return fmt.Sprintf("byte %d (got %d bytes, want %d):\n  got:  …%s…\n  want: …%s…",
		i, len(got), len(want), excerpt(got), excerpt(want))
}
