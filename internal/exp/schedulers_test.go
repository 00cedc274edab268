package exp

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/tcdnet/tcd/internal/obs"
	"github.com/tcdnet/tcd/internal/sim"
	"github.com/tcdnet/tcd/internal/units"
)

// TestScenariosIdenticalOnBothSchedulers runs every registered scenario
// at a reduced horizon once on the hybrid scheduler (timing wheel + sorted
// band run) and once on the heap-only reference, and requires the same
// Result JSON and — for the scenarios that record — the same JSONL event
// trace, byte for byte. The three goldens pin three scenarios to committed
// bytes; this pins all of them to the reference scheduler, so a
// same-timestamp reordering on any path a scenario takes (CBFC, fat-tree
// rigs, the fault injector, the attack battery) fails here.
//
// The hybrid side's Result JSON is also held, by SHA-256, to the committed
// testdata/golden/scenarios.sha256: the cross-commit pin on the scenarios
// no golden fixture covers (-update-golden rewrites it). Every result
// encoded along the way is also held to referenceWriteJSON.
func TestScenariosIdenticalOnBothSchedulers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole registry twice")
	}
	battery := *DefaultBattery()
	battery.Scenarios = battery.Scenarios[:1]
	defer func() { newScheduler = sim.New }()
	traced := 0
	var sums strings.Builder

	// run executes sc on the scheduler mk builds and returns the Result
	// JSON and the JSONL trace. Every result is also encoded by the
	// reflective reference and must come out the same bytes.
	run := func(t *testing.T, sc *Scenario, p Params, mk func() *sim.Scheduler) (result, trace []byte) {
		newScheduler = mk
		ring := obs.NewRing(0)
		p.Obs.Rec = ring
		res := sc.Run(p)
		var rb, ref bytes.Buffer
		if err := WriteResultsJSON(&rb, res); err != nil {
			t.Fatal(err)
		}
		if err := referenceWriteResultsJSON(&ref, res); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rb.Bytes(), ref.Bytes()) {
			t.Errorf("result differs from the reference encoder's: %s", firstDiff(rb.Bytes(), ref.Bytes()))
		}
		return rb.Bytes(), jsonl(t, ring.Events())
	}
	for i, sc := range Scenarios {
		// Alternate fabrics down the table so PFC and CBFC rigs both run.
		fab := []FabricKind{CEE, IB}[i%2]
		t.Run(sc.Name+"/"+fab.String(), func(t *testing.T) {
			p := Params{Fabric: fab, Seed: 3, Horizon: units.Millisecond, K: 4, Flows: 200}
			if sc.Battery {
				p.Battery = &battery
			}
			hybridRes, hybridTrace := run(t, sc, p, sim.New)
			fmt.Fprintf(&sums, "%x  %s/%s\n", sha256.Sum256(hybridRes), sc.Name, fab)
			heapRes, heapTrace := run(t, sc, p, sim.NewHeapOnly)
			if !bytes.Equal(hybridRes, heapRes) {
				t.Errorf("results differ between schedulers: %s", firstDiff(hybridRes, heapRes))
			}
			if !bytes.Equal(hybridTrace, heapTrace) {
				t.Errorf("traces differ between schedulers: %s", firstDiff(hybridTrace, heapTrace))
			}
			if len(hybridTrace) > 0 {
				traced++
			}
		})
	}
	// With telemetry on a result carries hists and telemetry_queue_win, a
	// series on its own time column; no pin covers that shape, so it is
	// held to the reference encoder only.
	t.Run("fig3-telemetry/cee", func(t *testing.T) {
		p := Params{Fabric: CEE, Seed: 3, Horizon: units.Millisecond, Obs: obs.Config{Telemetry: obs.NewTelemetry(nil)}}
		res, _ := run(t, Lookup("fig3"), p, sim.New)
		for _, want := range []string{`"hists": {`, `"telemetry_queue_win": {`} {
			if !bytes.Contains(res, []byte(want)) {
				t.Errorf("telemetry result has no %s", want)
			}
		}
	})
	if traced == 0 {
		t.Error("no scenario recorded a trace; the trace comparison checked nothing")
	}
	pin := filepath.Join("testdata", "golden", "scenarios.sha256")
	if *updateGolden {
		if err := os.WriteFile(pin, []byte(sums.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(pin)
	if err != nil {
		t.Fatalf("missing %s (run with -update-golden to create): %v", pin, err)
	}
	if sums.String() != string(want) {
		t.Errorf("scenario results moved since %s was committed:\n got:\n%swant:\n%s", pin, sums.String(), want)
	}
}
