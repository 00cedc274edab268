package exp

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/tcdnet/tcd/internal/obs"
	"github.com/tcdnet/tcd/internal/units"
)

// The golden-trace gate: reduced-scale fig3, fig12, table3 and
// deadlock-unit (both fabrics) runs whose Result JSON and (table3 apart)
// JSONL event traces are committed under testdata/golden and compared
// byte-for-byte on every test run. Scheduler or hot-path rewrites that
// reorder same-timestamp events, perturb the clock, or change any emitted
// value fail here with the first differing byte — the trace diff catches
// reorderings long before they surface in a scalar.
//
// Regenerate intentionally with:
//
//	go test ./internal/exp -run TestGoldenTraces -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden trace fixtures in testdata/golden")

// goldenObserve runs one observation scenario at golden scale and
// returns its Result JSON and JSONL event trace.
func goldenObserve(t *testing.T, det DetectorKind) (result, trace []byte) {
	t.Helper()
	cfg := DefaultObserveConfig(CEE, det, false)
	cfg.Seed = 1
	cfg.Horizon = 2 * units.Millisecond
	ring := obs.NewRing(0)
	cfg.Obs = obs.Config{Rec: ring}
	return goldenBytes(t, Observe(cfg), ring)
}

// goldenBytes encodes a run's Result JSON and its recorded JSONL trace.
func goldenBytes(t *testing.T, res *Result, ring *obs.Ring) (result, trace []byte) {
	t.Helper()
	var rb, tb bytes.Buffer
	if err := res.WriteJSON(&rb); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := ring.WriteJSONL(&tb); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return rb.Bytes(), tb.Bytes()
}

// goldenDeadlockUnit runs deadlock-unit for 1 ms on one fabric: the only
// cross-commit pin on the wait-cycle detector's report (detection time,
// trigger attribution, scan count, the pfc.deadlock / cbfc.stall event).
func goldenDeadlockUnit(t *testing.T, kind FabricKind) (result, trace []byte) {
	t.Helper()
	cfg := DefaultDeadlockUnitConfig(kind)
	cfg.Seed = 1
	cfg.Horizon = units.Millisecond
	ring := obs.NewRing(0)
	cfg.Obs = obs.Config{Rec: ring}
	return goldenBytes(t, DeadlockUnit(cfg), ring)
}

// TestGoldenTraces regenerates the golden scenarios and diffs every
// artifact against the committed fixture.
func TestGoldenTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs take a few seconds")
	}
	artifacts := make(map[string][]byte)

	fig3Res, fig3Trace := goldenObserve(t, DetBaseline)
	artifacts["fig3.json"] = fig3Res
	artifacts["fig3.trace.jsonl"] = fig3Trace

	fig12Res, fig12Trace := goldenObserve(t, DetTCD)
	artifacts["fig12.json"] = fig12Res
	artifacts["fig12.trace.jsonl"] = fig12Trace

	t3, _ := Table3(1500*units.Microsecond, 1)
	var t3b bytes.Buffer
	if err := t3.WriteJSON(&t3b); err != nil {
		t.Fatalf("table3 WriteJSON: %v", err)
	}
	artifacts["table3.json"] = t3b.Bytes()

	for _, kind := range []FabricKind{CEE, IB} {
		res, trace := goldenDeadlockUnit(t, kind)
		artifacts["deadlock-unit-"+kind.String()+".json"] = res
		artifacts["deadlock-unit-"+kind.String()+".trace.jsonl"] = trace
	}

	dir := filepath.Join("testdata", "golden")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range artifacts {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s (%d bytes)", name, len(data))
		}
		return
	}
	for name, data := range artifacts {
		want, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("missing golden %s (run with -update-golden to create): %v", name, err)
		}
		if !bytes.Equal(data, want) {
			t.Errorf("%s differs from committed golden: %s", name, firstDiff(data, want))
		}
	}
}

// firstDiff locates the first differing byte and returns a short context
// excerpt from both sides.
func firstDiff(got, want []byte) string {
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
