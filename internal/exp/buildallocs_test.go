package exp

import (
	"testing"

	"github.com/tcdnet/tcd/internal/routing"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

// buildAllocs counts the allocations of building a rig on a fat-tree and
// adding flows to it. The topology is built beforehand; its builder has
// its own guard (topo.TestNewFatTreeAllocsFlat).
func buildAllocs(kind FabricKind, det DetectorKind, ccKind CCKind, ft *topo.FatTree, flows int) float64 {
	return testing.AllocsPerRun(2, func() {
		rig := NewRig(RigConfig{Run: Run{Kind: kind}, Topo: ft.Topology, Det: det, RouteRows: routing.FatTreeColumns(ft)})
		hosts := ft.HostList
		for i := 0; i < flows; i++ {
			rig.Mgr.AddFlow(hosts[i%len(hosts)], hosts[(i+1)%len(hosts)], units.MB, units.Time(i)*units.Microsecond, rig.NewCC(ccKind, 40*units.Gbps))
		}
	})
}

// buildAllocSlack is how far the build-plus-AddFlow allocation count may
// move between a k=4 and a k=8 fat-tree (96 and 768 ports) or between N
// and 2N flows. What moves it is slab chunks and the doubling of
// run-wide tables, a few dozen allocations; a heap object per port or
// per flow would move it by hundreds.
const buildAllocSlack = 64

// TestFatTreeBuildAllocsFlat holds a rig's allocation count to the bytes
// it needs, not to how many ports and flows it has: every per-port and
// per-flow record (ports, detectors of every kind, endpoints, flows,
// controllers) comes from a slab, and every callback is a static function
// with its owner as the argument, not a closure or method value per
// record.
func TestFatTreeBuildAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("-race changes allocation counts")
	}
	ft4 := topo.NewFatTree(4, 40*units.Gbps, 4*units.Microsecond)
	ft8 := topo.NewFatTree(8, 40*units.Gbps, 4*units.Microsecond)
	for _, c := range []struct {
		kind FabricKind
		det  DetectorKind
		cc   CCKind
	}{
		{CEE, DetTCD, CCDCQCNTCD}, {IB, DetTCD, CCIBCCTCD}, {CEE, DetTCDAdaptive, CCTIMELYTCD},
		{CEE, DetBaseline, CCDCQCN}, {IB, DetBaseline, CCIBCC}, {CEE, DetNPECN, CCTIMELY},
	} {
		const n = 500
		name := c.kind.String() + "/" + c.det.String() + "/" + c.cc.String()
		k4, k8 := buildAllocs(c.kind, c.det, c.cc, ft4, n), buildAllocs(c.kind, c.det, c.cc, ft8, n)
		k8x2 := buildAllocs(c.kind, c.det, c.cc, ft8, 2*n)
		t.Logf("%s: k=4 %.0f, k=8 %.0f, k=8 with %d flows %.0f allocations", name, k4, k8, 2*n, k8x2)
		if k8-k4 > buildAllocSlack {
			t.Errorf("%s: k=8 takes %.0f allocations more than k=4, want at most %d", name, k8-k4, buildAllocSlack)
		}
		if k8x2-k8 > buildAllocSlack {
			t.Errorf("%s: %d flows take %.0f allocations more than %d, want at most %d", name, 2*n, k8x2-k8, n, buildAllocSlack)
		}
	}
}
