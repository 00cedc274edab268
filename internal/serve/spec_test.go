package serve

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/tcdnet/tcd/internal/units"
)

// mustParse parses or fails the test.
func mustParse(t *testing.T, body string) *JobSpec {
	t.Helper()
	s, err := ParseJobSpec([]byte(body))
	if err != nil {
		t.Fatalf("ParseJobSpec(%s): %v", body, err)
	}
	return s
}

// TestHashInsensitive: serializations that mean the same run must hash
// identically — field order, whitespace, explicit defaults, enum case.
func TestHashInsensitive(t *testing.T) {
	base := `{"exp":"fig3","fabric":"cee","seed":1}`
	want := mustParse(t, base).Hash()
	cases := []struct {
		name, body string
	}{
		{"field order", `{"seed":1,"fabric":"cee","exp":"fig3"}`},
		{"whitespace", "{\n  \"exp\": \"fig3\",\n  \"fabric\": \"cee\",\n  \"seed\": 1\n}"},
		{"omitted default fabric", `{"exp":"fig3","seed":1}`},
		{"omitted default seed", `{"exp":"fig3","fabric":"cee"}`},
		{"explicit zero seed", `{"exp":"fig3","fabric":"cee","seed":0}`},
		{"explicit default det", `{"exp":"fig3","fabric":"cee","seed":1,"det":"baseline"}`},
		{"explicit runs 1", `{"exp":"fig3","fabric":"cee","seed":1,"runs":1}`},
		{"explicit zero runs", `{"exp":"fig3","fabric":"cee","seed":1,"runs":0}`},
		{"explicit zero horizon", `{"exp":"fig3","fabric":"cee","seed":1,"horizon_us":0}`},
		{"enum case", `{"exp":"FIG3","fabric":"CEE","seed":1}`},
		{"enum padding", `{"exp":"  fig3 ","fabric":" cee","seed":1}`},
		{"empty fault schedule", `{"exp":"fig3","seed":1,"faults":{"events":[]}}`},
		{"minimal", `{"exp":"fig3"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := mustParse(t, tc.body).Hash(); got != want {
				t.Errorf("hash changed: %q hashed %s, want %s (from %s)", tc.body, got, want, base)
			}
		})
	}
}

// TestHashSensitive: any semantic change must produce a different hash.
func TestHashSensitive(t *testing.T) {
	base := `{"exp":"fig3","fabric":"cee","seed":1}`
	want := mustParse(t, base).Hash()
	cases := []struct {
		name, body string
	}{
		{"seed", `{"exp":"fig3","fabric":"cee","seed":2}`},
		{"fabric", `{"exp":"fig3","fabric":"ib","seed":1}`},
		{"exp", `{"exp":"fig4","fabric":"cee","seed":1}`},
		{"detector", `{"exp":"fig3","fabric":"cee","seed":1,"det":"tcd"}`},
		{"runs", `{"exp":"fig3","fabric":"cee","seed":1,"runs":2}`},
		{"horizon", `{"exp":"fig3","fabric":"cee","seed":1,"horizon_us":50}`},
		{"fault schedule", `{"exp":"fig3","fabric":"cee","seed":1,"faults":{"events":[{"kind":"link-down","at_us":10,"link":"s0-s1"}]}}`},
	}
	seen := map[string]string{base: want}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := mustParse(t, tc.body).Hash()
			if got == want {
				t.Errorf("semantic change %q did not change the hash (%s)", tc.name, got)
			}
			if prev, dup := seen[tc.body]; dup && prev != got {
				t.Errorf("unstable hash for %q", tc.body)
			}
			seen[tc.body] = got
		})
	}
	// Distinct semantic changes must not collide with each other either.
	byHash := map[string]string{}
	for body, h := range seen {
		if prev, dup := byHash[h]; dup {
			t.Errorf("hash collision between %q and %q", prev, body)
		}
		byHash[h] = body
	}
}

// TestCanonicalIdempotent: re-parsing the canonical bytes yields the
// same canonical bytes and hash.
func TestCanonicalIdempotent(t *testing.T) {
	bodies := []string{
		`{"exp":"fig3"}`,
		`{"exp":"fig20","cc":"timely+tcd","seed":9,"runs":3}`,
		`{"exp":"deadlock-unit","fabric":"ib","horizon_us":123.5}`,
		`{"exp":"victim-under-flap","det":"tcd","faults":{"events":[{"kind":"flap","at_us":5,"link":"s0-s1","period_us":20,"down_us":10,"until_us":200}]}}`,
	}
	for _, body := range bodies {
		s := mustParse(t, body)
		canon := s.Canonical()
		s2, err := ParseJobSpec(canon)
		if err != nil {
			t.Fatalf("reparsing canonical %s: %v", canon, err)
		}
		if !bytes.Equal(canon, s2.Canonical()) {
			t.Errorf("canonicalization not idempotent:\n  first  %s\n  second %s", canon, s2.Canonical())
		}
		if s.Hash() != s2.Hash() {
			t.Errorf("hash changed across reparse for %s", body)
		}
	}
}

// TestHorizonRounds: horizon_us converts to the nearest simulator tick,
// as every other µs field of a spec does.
func TestHorizonRounds(t *testing.T) {
	for _, c := range []struct {
		us   string
		want units.Time
	}{
		{"1.001", 1_001_000},
		{"123.5", 123_500_000},
		{"0.0000006", 1},
		{"0", 0},
	} {
		s := mustParse(t, `{"exp":"fig3","horizon_us":`+c.us+`}`)
		if got := s.Horizon(); got != c.want || s.params.Horizon != c.want {
			t.Errorf("horizon_us %s runs %d ps (params %d), want %d", c.us, got, s.params.Horizon, c.want)
		}
	}
}

// TestParseRejects: malformed or out-of-bounds specs must fail before
// anything is enqueued.
func TestParseRejects(t *testing.T) {
	// 4096 flap rules of 100 000 toggles each: every rule fits the action
	// budget alone, the schedule (~410 M actions) does not.
	var flood strings.Builder
	flood.WriteString(`{"exp":"fig3","faults":{"events":[`)
	for i := 0; i < MaxFaultEvents; i++ {
		if i > 0 {
			flood.WriteByte(',')
		}
		fmt.Fprintf(&flood, `{"kind":"flap","link":"R0-T2","at_us":%d,"period_us":100,"down_us":50,"until_us":%d}`,
			1000+i, 1000+i+4999900)
	}
	flood.WriteString(`]}}`)
	faults := func(events string) string { return `{"exp":"fig3","faults":{"events":[` + events + `]}}` }
	cases := []struct {
		name, body, wantErr string
	}{
		{"malformed", `{"exp":`, "parsing spec"},
		{"unknown field", `{"exp":"fig3","bogus":1}`, "bogus"},
		{"trailing data", `{"exp":"fig3"}{"exp":"fig4"}`, "trailing"},
		{"unknown exp", `{"exp":"fig99"}`, "unknown exp"},
		{"unknown fabric", `{"exp":"fig3","fabric":"roce"}`, "unknown fabric"},
		{"unknown det", `{"exp":"fig3","det":"psychic"}`, "unknown det"},
		{"det on fixed exp", `{"exp":"table3","det":"tcd"}`, "does not support det"},
		{"cc on fixed exp", `{"exp":"fig3","cc":"dcqcn"}`, "does not support cc"},
		{"unsupported cc", `{"exp":"fig20","cc":"fixed"}`, "does not support cc"},
		{"unsupported det", `{"exp":"fig3","det":"none"}`, "does not support det"},
		{"runs too large", `{"exp":"fig3","runs":65}`, "runs must be in"},
		{"negative runs", `{"exp":"fig3","runs":-1}`, "runs must be in"},
		{"negative horizon", `{"exp":"fig3","horizon_us":-1}`, "horizon_us must be in"},
		{"absurd horizon", `{"exp":"fig3","horizon_us":1e12}`, "horizon_us must be in"},
		{"sub-tick horizon", `{"exp":"fig11","horizon_us":1e-7}`, "below one simulator tick"},
		{"cli-only exp", `{"exp":"fig16"}`, "tcdsim CLI"},
		{"cli-only battery", `{"exp":"adversarial"}`, "tcdsim CLI"},
		{"faults on fixed exp", `{"exp":"table3","faults":{"events":[{"kind":"link-down","at_us":1,"link":"x"}]}}`, "does not accept a fault schedule"},
		{"bad fault kind", `{"exp":"fig3","faults":{"events":[{"kind":"gremlin","at_us":1}]}}`, "unknown kind"},
		{"flap without period_us", faults(`{"kind":"flap","link":"R0-T2","at_us":500,"down_us":400,"until_us":3000}`), "period_us > 0"},
		{"ctrl-loss prob 5", faults(`{"kind":"ctrl-loss","port":"T2->L0","at_us":800,"prob":5}`), "prob in (0, 1]"},
		{"link-down without target", faults(`{"kind":"link-down","at_us":10}`), "needs a link or port"},
		{"pause-storm on a link", faults(`{"kind":"pause-storm","link":"R0-T2","at_us":300,"period_us":40,"down_us":30,"until_us":900}`), "not a link"},
		{"at_us overflow", faults(`{"kind":"link-down","link":"R0-T2","at_us":1e300}`), "at_us 1e+300"},
		{"period_us overflow", faults(`{"kind":"flap","link":"R0-T2","at_us":5,"period_us":1e300,"down_us":1,"until_us":50}`), "period_us 1e+300"},
		{"delay_us overflow", faults(`{"kind":"ctrl-delay","port":"T2->L0","at_us":5,"delay_us":1e300}`), "delay_us 1e+300"},
		{"flap flood", flood.String(), "more than 100000 toggles"},
		{"two rules past the budget", faults(`{"kind":"flap","link":"R0-T2","at_us":0,"period_us":10,"down_us":5,"until_us":299990},
			{"kind":"flap","link":"T2-L0","at_us":0,"period_us":10,"down_us":5,"until_us":299990}`), "more than 100000 toggles"},
		{"budget sum cannot wrap", faults(`{"kind":"flap","link":"R0-T2","at_us":0,"period_us":10,"down_us":5,"until_us":11000},
			{"kind":"pause-storm","port":"T2->L0","at_us":0,"period_us":1e-6,"until_us":4611686018427.387}`), "more than 100000 frames"},
		{"copy of victim-under-flap's flap", `{"exp":"victim-under-flap","faults":{"events":[{"kind":"flap","link":"R0-T2","at_us":500,"period_us":1000,"down_us":400,"until_us":3000}]}}`, "events 0 and 1 are duplicates"},
		{"field the kind never reads", faults(`{"kind":"link-down","link":"R0-T2","at_us":5,"prob":0.5}`), "does not read prob"},
		{"oversized body", `{"exp":"fig3","fabric":"` + strings.Repeat("x", MaxSpecBytes) + `"}`, "exceeds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			_, err := ParseJobSpec([]byte(tc.body))
			if err == nil {
				t.Fatalf("ParseJobSpec accepted %q", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) || strings.Contains(err.Error(), "\n") {
				t.Errorf("error %q does not mention %q on one line", err, tc.wantErr)
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("rejecting took %v", d)
			}
		})
	}
}

// TestJSONNumberEdgeCases: NaN and Inf are not valid JSON, so the strict
// decoder rejects them at the syntax layer (the normalize-level guards
// back this up for any future decoder swap).
func TestJSONNumberEdgeCases(t *testing.T) {
	for _, body := range []string{
		`{"exp":"fig3","horizon_us":NaN}`,
		`{"exp":"fig3","horizon_us":Infinity}`,
		`{"exp":"fig3","horizon_us":-Infinity}`,
		`{"exp":"fig3","horizon_us":"12"}`,
	} {
		if _, err := ParseJobSpec([]byte(body)); err == nil {
			t.Errorf("ParseJobSpec accepted %s", body)
		}
	}
}
