package exp

import (
	"bytes"
	"testing"

	"github.com/tcdnet/tcd/internal/fault"
	"github.com/tcdnet/tcd/internal/obs"
	"github.com/tcdnet/tcd/internal/units"
)

// flapSpec is the schedule the fault tests share: one flapping link plus
// a lossy control channel on the P2 egress.
func flapSpec() *fault.Spec {
	return &fault.Spec{Events: []fault.Event{
		{Kind: "flap", Link: "R0-T2", AtUs: 500, PeriodUs: 1000, DownUs: 400, UntilUs: 3500},
		{Kind: "ctrl-loss", Port: "T2->L0", AtUs: 800, Prob: 0.2, UntilUs: 2500},
	}}
}

func captureObserve(t *testing.T, kind FabricKind, faults *fault.Spec) ([]obs.Event, *Result) {
	t.Helper()
	const capacity = 1 << 19
	ring := obs.NewRing(capacity)
	cfg := DefaultObserveConfig(kind, DetTCD, false)
	cfg.Horizon = 4 * units.Millisecond
	cfg.BurstRounds = 4
	cfg.Seed = 11
	cfg.Obs.Rec = ring
	cfg.Faults = faults
	res := Observe(cfg)
	events := ring.Events()
	if len(events) == capacity {
		t.Fatalf("trace ring full at %d events, so it may have overwritten some; raise the capacity", capacity)
	}
	return events, res
}

// TestFaultFreePrefixMatchesGolden pins the injector's composability
// guarantee: with a fault schedule armed, every trace event strictly
// before the first injection is identical — same order, same payload —
// to the fault-free golden run.
func TestFaultFreePrefixMatchesGolden(t *testing.T) {
	for _, kind := range []FabricKind{CEE, IB} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			golden, _ := captureObserve(t, kind, nil)
			faulted, _ := captureObserve(t, kind, flapSpec())
			first := 500 * units.Microsecond // earliest event in flapSpec
			i := 0
			for i < len(golden) && i < len(faulted) && golden[i].At < first && faulted[i].At < first {
				if golden[i] != faulted[i] {
					t.Fatalf("event %d diverged before the first injection at %v:\n  golden:  %+v\n  faulted: %+v",
						i, first, golden[i], faulted[i])
				}
				i++
			}
			if i == 0 {
				t.Fatal("no trace events before the first injection; the prefix check checked nothing")
			}
			t.Logf("%d events identical before first injection", i)
		})
	}
}

// TestEmptyScheduleIsInert pins the stronger guarantee the goldens rely
// on: arming an empty (or nil) schedule leaves the whole trace — not
// just a prefix — byte-identical.
func TestEmptyFaultScheduleIsInert(t *testing.T) {
	golden, goldenRes := captureObserve(t, CEE, nil)
	empty, emptyRes := captureObserve(t, CEE, &fault.Spec{})
	if len(golden) != len(empty) {
		t.Fatalf("event counts differ: %d without injector, %d with empty schedule", len(golden), len(empty))
	}
	for i := range golden {
		if golden[i] != empty[i] {
			t.Fatalf("event %d differs under an empty schedule:\n  %+v\n  %+v", i, golden[i], empty[i])
		}
	}
	var a, b bytes.Buffer
	if err := goldenRes.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := emptyRes.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("result JSON differs under an empty fault schedule")
	}
}

// TestVictimUnderFlapClassification is the experiment's headline claim:
// during failure-induced backpressure, stock marking (ECN/FECN) blames
// the victim flow while TCD marks it undetermined.
func TestVictimUnderFlapClassification(t *testing.T) {
	for _, kind := range []FabricKind{CEE, IB} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			// The flap ends at 8 ms; the last millisecond is the recovery.
			h := Run{Kind: kind, Seed: 3, Horizon: flapUntil + units.Millisecond}
			stock := VictimUnderFlap(h, DetBaseline)
			ternary := VictimUnderFlap(h, DetTCD)

			for _, res := range []*Result{stock, ternary} {
				if res.Scalars["fault_drops"] == 0 {
					t.Fatalf("%s: flap destroyed no frames; the fault never bit", res.Name)
				}
				if res.Scalars["p2_pause_us"] == 0 {
					t.Fatalf("%s: no pause time at P2; backpressure never spread", res.Name)
				}
			}
			if stock.Scalars["f1_ce"] == 0 {
				t.Fatalf("stock marking should blame the victim: f1_ce = 0 (%v)", stock.Scalars)
			}
			if ternary.Scalars["f1_ue"] == 0 {
				t.Fatalf("TCD should mark the victim undetermined: f1_ue = 0 (%v)", ternary.Scalars)
			}
			sf, tf := stock.Scalars["f1_ce_frac"], ternary.Scalars["f1_ce_frac"]
			if tf >= sf/2 {
				t.Fatalf("TCD should cut the victim's CE fraction: stock %.4f vs tcd %.4f", sf, tf)
			}
		})
	}
}

// TestDeadlockUnitDetects drives the ring into its wait cycle and
// requires the detector to find it — with the right cycle size — within
// bounded sim time, for both the PFC and the CBFC flavor.
func TestDeadlockUnitDetects(t *testing.T) {
	for _, kind := range []FabricKind{CEE, IB} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			res := DeadlockUnit(Run{Kind: kind, Seed: 5})
			if res.Scalars["deadlocked"] != 1 {
				t.Fatalf("no wait cycle detected within the default horizon: %v", res.Scalars)
			}
			if at := res.Scalars["detected_at_us"]; at > 2000 {
				t.Fatalf("detection took %v us; the cycle forms within tens of microseconds", at)
			}
			if n := res.Scalars["cycle_ports"]; n != 3 {
				t.Fatalf("expected the 3 inter-switch egress ports in the cycle, got %v", n)
			}
			if res.Scalars["flows_done"] != 0 {
				t.Fatal("flows completed through a deadlocked ring")
			}
			if res.Scalars["stranded_kb"] == 0 {
				t.Fatal("no stranded bytes reported on a deadlocked ring")
			}
			if len(res.Notes) == 0 {
				t.Fatal("no attribution note (cycle members + initial trigger)")
			}
		})
	}
}

// TestDeterministicTraceWithFaults is the determinism regression: the
// same spec and seed must produce byte-identical JSONL traces and result
// JSON across repeated runs, for one CEE and one IB scenario with faults
// armed. CI runs this under -race.
func TestDeterministicTraceWithFaults(t *testing.T) {
	for _, kind := range []FabricKind{CEE, IB} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			var prevTrace, prevRes []byte
			for run := 0; run < 3; run++ {
				ring := obs.NewRing(1 << 19)
				cfg := DefaultObserveConfig(kind, DetTCD, false)
				cfg.Horizon = 3 * units.Millisecond
				cfg.BurstRounds = 4
				cfg.Seed = 42
				cfg.Obs.Rec = ring
				cfg.Faults = flapSpec()
				res := Observe(cfg)

				trace := jsonl(t, ring.Events())
				var rj bytes.Buffer
				if err := res.WriteJSON(&rj); err != nil {
					t.Fatal(err)
				}
				if run == 0 {
					prevTrace, prevRes = trace, rj.Bytes()
					continue
				}
				if !bytes.Equal(prevTrace, trace) {
					t.Fatalf("run %d: JSONL trace differs from run 0", run)
				}
				if !bytes.Equal(prevRes, rj.Bytes()) {
					t.Fatalf("run %d: result JSON differs from run 0", run)
				}
			}
		})
	}
}
