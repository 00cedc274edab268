package exp

import (
	"runtime"
	"testing"
	"unsafe"

	"github.com/tcdnet/tcd/internal/cbfc"
	"github.com/tcdnet/tcd/internal/core"
	"github.com/tcdnet/tcd/internal/fabric"
	"github.com/tcdnet/tcd/internal/pfc"
	"github.com/tcdnet/tcd/internal/routing"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

// portHeapBudget bounds a k=8 fat-tree rig's heap bytes per port: the
// whole rig (fabric, flow control, TCD detectors, routes, endpoints and
// the events armed at build) divided by its 768 ports. The rigs measure
// 553 B (CEE) and 722 B (IB, whose 768 armed FCCL timers hold scheduler
// slots); with per-priority slice headers, fault and recording state and
// a configuration copy on every per-port record they measured 884 and
// 1 171.
var portHeapBudget = map[FabricKind]int64{CEE: 600, IB: 780}

// TestPortFootprint holds the per-port records to their byte budgets and
// a whole rig to its heap bytes per port. A per-priority slice header, a
// fault hook or a configuration copy put back on a per-port record fails
// it; so does a per-port side allocation the sizes do not show.
func TestPortFootprint(t *testing.T) {
	sizes := []struct {
		name         string
		size, budget uintptr
	}{
		{"fabric.Port", unsafe.Sizeof(fabric.Port{}), 192},
		// Gate and meter plus one VL of the install's per-VL registers:
		// FCTBS, FCCL, starvation start, ABR, last reported ABR, and the
		// ingress occupancy.
		{"cbfc per port", unsafe.Sizeof(cbfc.Gate{}) + unsafe.Sizeof(cbfc.Meter{}) + 6*8, 128},
		// Gate and meter plus one priority of pause start, ingress
		// occupancy and the PAUSE-outstanding flag.
		{"pfc per switch port", unsafe.Sizeof(pfc.Gate{}) + unsafe.Sizeof(pfc.Meter{}) + 8 + 8 + 1, 96},
		{"core.TCD", unsafe.Sizeof(core.TCD{}), 112},
	}
	for _, s := range sizes {
		t.Logf("%s: %d B (budget %d)", s.name, s.size, s.budget)
		if s.size > s.budget {
			t.Errorf("%s is %d B, budget %d", s.name, s.size, s.budget)
		}
	}

	if raceEnabled {
		t.Skip("-race instruments the heap")
	}
	ft := topo.NewFatTree(8, 40*units.Gbps, 4*units.Microsecond)
	for _, kind := range []FabricKind{CEE, IB} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rig := NewRig(RigConfig{Run: Run{Kind: kind}, Topo: ft.Topology, Det: DetTCD, RouteRows: routing.FatTreeColumns(ft)})
		runtime.GC()
		runtime.ReadMemStats(&after)
		ports := len(rig.Net.Ports())
		perPort := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(ports)
		runtime.KeepAlive(rig)
		t.Logf("%s k=8 rig: %d B per port over %d ports", kind, perPort, ports)
		if perPort > portHeapBudget[kind] {
			t.Errorf("%s k=8 rig holds %d B per port, budget %d", kind, perPort, portHeapBudget[kind])
		}
	}
}
