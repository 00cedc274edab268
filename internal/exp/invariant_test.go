package exp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"

	"github.com/tcdnet/tcd/internal/host"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

// TestInvariantsAcrossScenarios drives the audit of Rig.Run over the
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
				rig.LaunchBursts(200*units.Microsecond, observeBurstBytes, cfg.BurstRounds, observeBurstGap)
				rig.Mgr.AddFlow(rig.F2.S0, rig.F2.R0, units.MB, 400*units.Microsecond, host.FixedRate(5*units.Gbps))
				rig.Run(cfg.Horizon)
			})
		}
	}
}

// TestInvariantCheckerCatchesLeaks forges the receive ledger and expects
// the conservation check to fire — a checker that cannot fail proves
// nothing.
func TestInvariantCheckerCatchesLeaks(t *testing.T) {
	rig := NewFig2Rig(topo.Fig2Config{}, RigConfig{Run: Run{Kind: CEE, Seed: 1}, Det: DetBaseline})
	f := rig.Mgr.AddFlow(rig.F2.S1, rig.F2.R1, units.MB, 0, host.FixedRate(40*units.Gbps))
	rig.Run(units.Millisecond)
	if err := checkInvariants(rig.Rig); err != nil {
		t.Fatalf("clean run should satisfy invariants: %v", err)
	}
	// Forge a receiver-side leak: a kilobyte delivered out of thin air.
	rig.Mgr.AdjustRx(f, units.KB)
	if err := checkInvariants(rig.Rig); err == nil {
		t.Fatal("conservation check did not notice a forged 1 KB surplus")
	}
	rig.Mgr.AdjustRx(f, -units.KB)
	if err := checkInvariants(rig.Rig); err != nil {
		t.Fatalf("invariants should hold again after undoing the forgery: %v", err)
	}
}

// TestRigRunEndsEverySimulation keeps Rig.Run the only place a
// simulation in this package ends, so none skips the audit: it parses
// the package's non-test files and fails on any RunUntil call outside
// Rig.Run.
func TestRigRunEndsEverySimulation(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if fn, ok := n.(*ast.FuncDecl); ok && fn.Recv != nil && fn.Name.Name == "Run" && types.ExprString(fn.Recv.List[0].Type) == "*Rig" {
				return false
			}
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "RunUntil" {
				t.Errorf("%s: RunUntil outside Rig.Run; end the simulation with Rig.Run, which audits it",
					fset.Position(sel.Sel.Pos()))
			}
			return true
		})
	}
}
