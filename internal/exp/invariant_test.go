package exp

import (
	"os"
	"testing"

	"github.com/tcdnet/tcd/internal/host"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

// TestMain flips the strict invariant audit on for the whole test
// binary: every experiment any exp test runs is re-checked for payload
// conservation, credit sanity, buffer bounds, pause liveness and
// scheduler-heap consistency after its horizon.
func TestMain(m *testing.M) {
	StrictInvariants = true
	os.Exit(m.Run())
}

// TestInvariantsAcrossScenarios drives the checker explicitly over the
// four corners of the rig space (CEE/IB x baseline/TCD) rather than
// relying on whichever experiments other tests happen to run.
func TestInvariantsAcrossScenarios(t *testing.T) {
	for _, kind := range []FabricKind{CEE, IB} {
		for _, det := range []DetectorKind{DetBaseline, DetTCD} {
			kind, det := kind, det
			t.Run(kind.String()+"-"+det.String(), func(t *testing.T) {
				cfg := DefaultObserveConfig(kind, det, false)
				cfg.Horizon = 2 * units.Millisecond
				cfg.BurstRounds = 4
				cfg.Seed = 7
				rig := NewFig2Rig(topo.Fig2Config{}, RigConfig{Run: cfg.Run, Det: cfg.Det})
				rig.Mgr.AddFlow(rig.F2.S1, rig.F2.R1, 10*units.MB, 0, rig.NewCC(kind.StockCC(), 40*units.Gbps))
				rig.LaunchBursts(200*units.Microsecond, cfg.BurstBytes, cfg.BurstRounds, cfg.BurstGap)
				rig.Mgr.AddFlow(rig.F2.S0, rig.F2.R0, units.MB, 400*units.Microsecond, host.FixedRate(5*units.Gbps))
				rig.Sched.RunUntil(cfg.Horizon)
				if err := CheckInvariants(rig.Rig); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestInvariantCheckerCatchesLeaks corrupts the fault-drop ledger and
// expects the conservation check to fire — a checker that cannot fail
// proves nothing.
func TestInvariantCheckerCatchesLeaks(t *testing.T) {
	rig := NewFig2Rig(topo.Fig2Config{}, RigConfig{Run: Run{Kind: CEE, Seed: 1}, Det: DetBaseline})
	f := rig.Mgr.AddFlow(rig.F2.S1, rig.F2.R1, units.MB, 0, host.FixedRate(40*units.Gbps))
	rig.Sched.RunUntil(units.Millisecond)
	if err := CheckInvariants(rig.Rig); err != nil {
		t.Fatalf("clean run should satisfy invariants: %v", err)
	}
	// Forge a receiver-side leak: a kilobyte delivered out of thin air.
	rig.Mgr.AdjustRx(f, units.KB)
	if err := CheckInvariants(rig.Rig); err == nil {
		t.Fatal("conservation check did not notice a forged 1 KB surplus")
	}
	rig.Mgr.AdjustRx(f, -units.KB)
	if err := CheckInvariants(rig.Rig); err != nil {
		t.Fatalf("invariants should hold again after undoing the forgery: %v", err)
	}
}
