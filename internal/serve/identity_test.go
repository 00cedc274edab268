package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"testing"

	"github.com/tcdnet/tcd/internal/exp"
	"github.com/tcdnet/tcd/internal/exp/sweep"
	"github.com/tcdnet/tcd/internal/units"
)

// TestFrontEndIdentity is the determinism contract over the whole
// registry: for every scenario, one spec gives the same bytes through a
// direct Run (the CLI's path), a serial sweep, a parallel sweep and the
// union of its shards; for every service-addressable scenario also
// through CatalogExec of the equivalent JobSpec, a daemon miss and a
// daemon hit. Scenarios the daemon cannot address must bounce at the
// parser. Short horizon, fat-trees at k=4 / 200 flows, a one-scenario
// battery: the contract is about dispatch, not scale.
func TestFrontEndIdentity(t *testing.T) {
	const (
		seed      = 3
		horizonUs = 500
		seeds     = 3
	)
	battery := *exp.DefaultBattery()
	battery.Scenarios = battery.Scenarios[:1]
	_, ts := newTestDaemon(t, Config{Workers: 2})

	for i, sc := range exp.Scenarios {
		sc := sc
		// Alternate fabrics down the table so both flow controls are
		// dispatched through every front-end.
		fab := []exp.FabricKind{exp.CEE, exp.IB}[i%2]
		t.Run(sc.Name+"/"+fab.String(), func(t *testing.T) {
			base := exp.Params{
				Horizon: horizonUs * units.Microsecond,
				K:       4, Flows: 200,
			}
			if sc.Battery {
				base.Battery = &battery
			}
			encode := func(results []*exp.Result) []byte {
				var buf bytes.Buffer
				if err := exp.WriteResultsJSON(&buf, results); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			direct := func(seed uint64, det exp.DetectorKind, cc exp.CCKind) []byte {
				p := base
				p.Fabric, p.Seed, p.Det, p.CC = fab, seed, det, cc
				return encode(sc.Run(p))
			}

			specs := sweep.Grid{
				Exps:    []string{sc.Name},
				Fabrics: []exp.FabricKind{fab},
				Seeds:   sweep.Seq(seed, seeds),
			}.Specs()
			fn := sweep.Scenario(sc, base)
			run := func(specs []sweep.Spec, workers int) [][]byte {
				out := make([][]byte, len(specs))
				for i, r := range sweep.Run(context.Background(), specs, fn, sweep.Options{Parallel: workers}) {
					if r.Err != nil {
						t.Fatalf("run %s: %v", r.Spec, r.Err)
					}
					out[i] = encode(r.Results)
				}
				return out
			}
			serial := run(specs, 1)
			parallel := run(specs, 2)
			union := make([][]byte, len(specs))
			for s := 0; s < 3; s++ {
				for j, b := range run(sweep.Shard(specs, s, 3), 1) {
					union[s+3*j] = b
				}
			}
			for i := range specs {
				if want := direct(specs[i].Seed, exp.DetNone, exp.CCFixed); !bytes.Equal(serial[i], want) {
					t.Errorf("%s: serial sweep differs from a direct Run", specs[i])
				}
				if !bytes.Equal(parallel[i], serial[i]) {
					t.Errorf("%s: parallel sweep differs from the serial sweep", specs[i])
				}
				if !bytes.Equal(union[i], serial[i]) {
					t.Errorf("%s: shard union differs from the serial sweep", specs[i])
				}
			}

			body := fmt.Sprintf(`{"exp":%q,"fabric":%q,"seed":%d,"horizon_us":%d}`, sc.Name, fab, seed, horizonUs)
			spec, err := ParseJobSpec([]byte(body))
			if !sc.ServiceAddressable() {
				if err == nil {
					t.Errorf("the daemon accepted %s, which a JobSpec cannot size", sc.Name)
				}
				return
			}
			if err != nil {
				t.Fatalf("minimal spec rejected: %v", err)
			}
			// The daemon resolves an unset det/cc to the default, where the
			// CLI runs a comparison scenario's whole menu.
			want := direct(seed, sc.DefaultDet, sc.DefaultCC)
			if !sc.Compare && !bytes.Equal(want, serial[0]) {
				t.Error("naming the default det/cc changed the bytes of a non-comparison scenario")
			}
			got, err := CatalogExec(context.Background(), spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Error("CatalogExec differs from a direct Run of the equivalent Params")
			}
			for _, cache := range []string{"miss", "hit"} {
				code, hdr, b := submitWait(t, ts.URL, body)
				if code != http.StatusOK || hdr.Get("X-Cache") != cache || hdr.Get("X-Spec-Hash") != spec.Hash() {
					t.Fatalf("submit: status %d, X-Cache %q (want %q), X-Spec-Hash %q", code, hdr.Get("X-Cache"), cache, hdr.Get("X-Spec-Hash"))
				}
				if !bytes.Equal(b, want) {
					t.Errorf("daemon %s differs from a direct Run", cache)
				}
			}
		})
	}
}
