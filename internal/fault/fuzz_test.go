package fault

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// FuzzParseSpec throws arbitrary bytes at the schedule reader. Whatever it
// accepts must survive a re-marshal unchanged, stay within the schedule's
// action budget, and inject on the line rig with no error but a name or
// priority that rig lacks: every rule that needs no topology is checked
// when the schedule is read.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		// Admitted by the daemon before Validate held every rule.
		`{"events":[{"kind":"flap","link":"R0-T2","at_us":500,"down_us":400,"until_us":3000}]}`,
		`{"events":[{"kind":"ctrl-loss","port":"T2->L0","at_us":800,"prob":5}]}`,
		`{"events":[{"kind":"link-down","at_us":10}]}`,
		`{"events":[{"kind":"pause-storm","link":"R0-T2","at_us":300,"period_us":40,"down_us":30,"until_us":900}]}`,
		// Past the simulator's clock.
		`{"events":[{"kind":"link-down","link":"h0-s0","at_us":1e300}]}`,
		`{"events":[{"kind":"flap","link":"h0-s0","at_us":5,"period_us":1e300,"down_us":1,"until_us":50}]}`,
		`{"events":[{"kind":"ctrl-delay","port":"s0->h1","at_us":5,"delay_us":1e300}]}`,
		// Valid on the line rig.
		`{"events":[{"kind":"flap","link":"h0-s0","at_us":10,"period_us":10,"down_us":4,"until_us":45},
			{"kind":"pause-storm","port":"s0->h1","at_us":10,"period_us":10,"until_us":200,"prio":1}]}`,
	} {
		f.Add([]byte(s))
	}
	data, err := os.ReadFile("../exp/testdata/adversarial/battery.json")
	if err != nil {
		f.Fatal(err)
	}
	var battery struct {
		Scenarios []struct{ Faults json.RawMessage }
	}
	if err := json.Unmarshal(data, &battery); err != nil {
		f.Fatal(err)
	}
	for _, sc := range battery.Scenarios {
		f.Add([]byte(sc.Faults))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("error spans lines: %q", err)
			}
			return
		}
		again, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		spec2, err := ParseSpec(again)
		if err != nil {
			t.Fatalf("re-marshaled schedule rejected: %v\n%s", err, again)
		}
		if !slices.Equal(spec.Events, spec2.Events) {
			t.Fatalf("re-marshal changed the events:\n  %+v\n  %+v", spec.Events, spec2.Events)
		}
		var bound int64
		for _, ev := range spec.Events {
			n, err := ev.check()
			if err != nil {
				t.Fatalf("accepted event fails its own check: %v", err)
			}
			if n > maxActions-bound {
				t.Fatalf("accepted schedule may arm more than %d actions", maxActions)
			}
			bound += n
		}
		inj, err := Inject(newLine(t).net, spec)
		if err != nil {
			msg := err.Error()
			for _, resolution := range []string{"cannot resolve", "no link between", "out of range", "routing function"} {
				if strings.Contains(msg, resolution) {
					return
				}
			}
			t.Fatalf("Inject failed on more than a name or priority: %v", err)
		}
		if int64(inj.Armed) > bound {
			t.Fatalf("armed %d actions, bound %d", inj.Armed, bound)
		}
	})
}
