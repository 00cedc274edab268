package exp

import (
	"bytes"
	"strings"
	"testing"

	"github.com/tcdnet/tcd/internal/obs"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
	"github.com/tcdnet/tcd/internal/workload"
)

// TestFatTreeStructuralMatchesEager is the routing axis of the
// determinism contract: the same k=6 rig (DefaultFatTreeConfig's arity)
// replaying the same trace emits the same events, byte for byte, and the
// same Result whether packets are routed from structural rows (what every
// fat-tree run uses) or from BuildShortestPath's BFS columns (what every
// golden uses). Only the route_* scalars, which report the table's own
// size, may differ.
func TestFatTreeStructuralMatchesEager(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  FatTreeConfig
	}{
		{"cee-ecmp", DefaultFatTreeConfig(CEE, DetTCD, CCDCQCNTCD, "hadoop")},
		{"ib-dmodk", DefaultFatTreeConfig(IB, DetTCD, CCIBCCTCD, "mpiio")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Seed = 3
			cfg.MaxFlows = 200
			cfg.Horizon = 10 * units.Millisecond
			cfg.Trace = fatTreeWorkload(cfg)

			run := func(eager bool) (trace, result []byte) {
				c := cfg
				c.eagerRoutes = eager
				ring := obs.NewRing(0)
				c.Obs = obs.Config{Rec: ring}
				res := FatTree(c).Res
				if _, ok := res.Scalars["route_table_bytes"]; !ok {
					t.Fatal("result carries no route_table_bytes")
				}
				for key := range res.Scalars {
					if strings.HasPrefix(key, "route_") {
						delete(res.Scalars, key)
					}
				}
				var rb bytes.Buffer
				if err := res.WriteJSON(&rb); err != nil {
					t.Fatalf("WriteJSON: %v", err)
				}
				return jsonl(t, ring.Events()), rb.Bytes()
			}
			rowsTrace, rowsRes := run(false)
			eagerTrace, eagerRes := run(true)
			if len(rowsTrace) == 0 {
				t.Fatal("trace is empty")
			}
			if !bytes.Equal(rowsTrace, eagerTrace) {
				t.Errorf("event traces differ: %d B structural, %d B eager", len(rowsTrace), len(eagerTrace))
			}
			if !bytes.Equal(rowsRes, eagerRes) {
				t.Errorf("results differ:\nstructural %s\neager      %s", rowsRes, eagerRes)
			}
		})
	}
}

// fatTreeWorkload returns the flows FatTree generates for cfg when it
// replays no trace.
func fatTreeWorkload(cfg FatTreeConfig) []workload.Flow {
	return generateWorkload(cfg, topo.NewFatTree(cfg.K, 40*units.Gbps, 4*units.Microsecond))
}
