package exp

import (
	"bytes"
	"strings"
	"testing"

	"github.com/tcdnet/tcd/internal/obs"
	"github.com/tcdnet/tcd/internal/units"
)

// traceObserve runs a short fig12-style scenario with an event ring and a
// metrics registry attached and returns their serialized exports.
func traceObserve(t *testing.T, seed uint64) (trace, metrics []byte) {
	t.Helper()
	cfg := DefaultObserveConfig(CEE, DetTCD, false)
	cfg.Seed = seed
	cfg.Horizon = 2 * units.Millisecond
	ring := obs.NewRing(0)
	cfg.Obs = obs.Config{Rec: ring, Metrics: obs.NewRegistry()}
	Observe(cfg)
	var mb bytes.Buffer
	if err := cfg.Obs.Metrics.WriteJSON(&mb); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return jsonl(t, ring.Events()), mb.Bytes()
}

// TestTraceDeterministic asserts the headline reproducibility property:
// two same-seed runs export byte-identical event traces and metrics.
func TestTraceDeterministic(t *testing.T) {
	tr1, m1 := traceObserve(t, 1)
	tr2, m2 := traceObserve(t, 1)
	if len(tr1) == 0 {
		t.Fatal("trace is empty")
	}
	if !bytes.Equal(tr1, tr2) {
		t.Error("same-seed traces differ")
	}
	if !bytes.Equal(m1, m2) {
		t.Error("same-seed metrics differ")
	}
}

// TestTraceContainsCoreKinds asserts the fig12 trace carries the event
// families the issue calls out: PFC pause/resume, CE and UE marks, and
// TCD ternary transitions.
func TestTraceContainsCoreKinds(t *testing.T) {
	tr, m := traceObserve(t, 1)
	text := string(tr)
	for _, kind := range []string{
		`"kind":"pfc.paused"`, `"kind":"pfc.resumed"`,
		`"kind":"mark.ce"`, `"kind":"mark.ue"`,
		`"kind":"tcd.state"`, `"kind":"cnp"`, `"kind":"cc.rate"`,
	} {
		if !strings.Contains(text, kind) {
			t.Errorf("trace missing %s", kind)
		}
	}
	for _, metric := range []string{"port_tx_bytes", "pfc_pauses_sent", "tcd_state", "sched_events"} {
		if !strings.Contains(string(m), metric) {
			t.Errorf("metrics missing %s", metric)
		}
	}
}

// TestResultWriteJSON checks the -json export shape on a real result.
func TestResultWriteJSON(t *testing.T) {
	cfg := DefaultObserveConfig(CEE, DetBaseline, false)
	cfg.Seed = 1
	cfg.Horizon = units.Millisecond
	res := Observe(cfg)
	var b1, b2 bytes.Buffer
	if err := res.WriteJSON(&b1); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := res.WriteJSON(&b2); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("WriteJSON is not deterministic")
	}
	for _, want := range []string{`"name": "observe-cee-baseline-singlecp"`, `"scalars"`, `"series"`, `"time_us"`} {
		if !strings.Contains(b1.String(), want) {
			t.Errorf("JSON missing %s", want)
		}
	}
}
