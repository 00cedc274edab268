package serve

import (
	"bytes"
	"math"
	"testing"

	"github.com/tcdnet/tcd/internal/exp"
	"github.com/tcdnet/tcd/internal/units"
)

// FuzzParseJobSpec hammers the HTTP spec parser with arbitrary bytes.
// Invariants: never panic; any accepted spec canonicalizes idempotently
// (reparse of Canonical succeeds, yields the same bytes and hash),
// respects the documented bounds, so nothing absurd survives to the
// queue, and runs round(horizon_us × 10⁶) ps.
func FuzzParseJobSpec(f *testing.F) {
	seeds := []string{
		`{"exp":"fig3"}`,
		`{"exp":"fig3","fabric":"ib","seed":7,"runs":4,"horizon_us":100.5}`,
		`{"exp":"fig20","cc":"timely+tcd"}`,
		`{"exp":"victim-under-flap","det":"tcd","faults":{"events":[{"kind":"flap","at_us":5,"link":"s0-s1","period_us":20,"down_us":10,"until_us":200}]}}`,
		`{"exp":"table3","seed":18446744073709551615}`,
		`{"exp":"deadlock-unit","horizon_us":1e6}`,
		`{"seed":1,"fabric":"cee","exp":"fig12"}`,
		`{"exp":"fig3","horizon_us":-1}`,
		`{"exp":"fig3","runs":9999999}`,
		`{"exp":"fig3","faults":{"events":[]}}`,
		`{"exp":"fig3"`,
		`{"exp":"fig3"}{"exp":"fig4"}`,
		`[1,2,3]`,
		`null`,
		`{"exp":"fig3","horizon_us":1e309}`,
		`{"exp":"fig3","bogus":true}`,
		`{"exp":"fig11","horizon_us":1e-7}`,
		`{"exp":"fig3","horizon_us":1.001}`,
		`{"exp":"table3","seed":0}`,
		// Schedules that can never run, admitted before fault.Spec.Validate
		// held every rule that needs no topology.
		`{"exp":"fig3","faults":{"events":[{"kind":"flap","link":"R0-T2","at_us":500,"down_us":400,"until_us":3000}]}}`,
		`{"exp":"fig3","faults":{"events":[{"kind":"ctrl-loss","port":"T2->L0","at_us":800,"prob":5}]}}`,
		`{"exp":"fig3","faults":{"events":[{"kind":"link-down","at_us":10}]}}`,
		`{"exp":"fig3","faults":{"events":[{"kind":"pause-storm","link":"R0-T2","at_us":300,"period_us":40,"down_us":30,"until_us":900}]}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseJobSpec(data)
		if err != nil {
			return
		}
		// Accepted specs obey the bounds the parser promises.
		if spec.Runs < 1 || spec.Runs > MaxRuns {
			t.Fatalf("accepted runs %d outside [1,%d]", spec.Runs, MaxRuns)
		}
		if spec.HorizonUs < 0 || spec.HorizonUs > MaxHorizonUs {
			t.Fatalf("accepted horizon %g outside [0,%g]", spec.HorizonUs, float64(MaxHorizonUs))
		}
		if spec.HorizonUs > 0 && spec.Horizon() == 0 {
			t.Fatalf("accepted horizon %g, which rounds to the default horizon", spec.HorizonUs)
		}
		if want := units.Time(math.Round(spec.HorizonUs * 1e6)); spec.Horizon() != want || spec.params.Horizon != want {
			t.Fatalf("horizon_us %g runs %d ps (params %d), want %d", spec.HorizonUs, spec.Horizon(), spec.params.Horizon, want)
		}
		if spec.Seed == 0 {
			t.Fatal("accepted spec kept seed 0 (default not applied)")
		}
		if sc := exp.Lookup(spec.Exp); sc == nil || !sc.ServiceAddressable() {
			t.Fatalf("accepted exp %q, which the daemon cannot address", spec.Exp)
		}
		if spec.Faults != nil && len(spec.Faults.Events) > MaxFaultEvents {
			t.Fatalf("accepted %d fault events", len(spec.Faults.Events))
		}
		// Canonicalization is idempotent and hash-stable.
		canon := spec.Canonical()
		spec2, err := ParseJobSpec(canon)
		if err != nil {
			t.Fatalf("canonical bytes rejected: %v (canon %s)", err, canon)
		}
		if !bytes.Equal(canon, spec2.Canonical()) {
			t.Fatalf("canonicalization not idempotent:\n  %s\n  %s", canon, spec2.Canonical())
		}
		if spec.Hash() != spec2.Hash() {
			t.Fatal("hash unstable across canonical reparse")
		}
	})
}
