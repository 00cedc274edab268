package exp

import (
	"bytes"
	"strings"
	"testing"

	"github.com/tcdnet/tcd/internal/units"
)

// TestScenarioRegistry is the registry's self-check: names are unique
// and resolve through Lookup, every default is on its own menu, a
// comparison scenario has a menu to compare, and every row can run.
func TestScenarioRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, sc := range Scenarios {
		if sc.Name == "" || sc.Name != strings.ToLower(sc.Name) || seen[sc.Name] {
			t.Errorf("scenario name %q is empty, not lower-case or duplicated", sc.Name)
		}
		seen[sc.Name] = true
		if Lookup(sc.Name) != sc {
			t.Errorf("Lookup(%q) does not return the registry row", sc.Name)
		}
		if sc.Desc == "" || sc.run == nil {
			t.Errorf("%s: empty description or nil run", sc.Name)
		}
		if len(sc.Dets) > 0 && !sc.HasDet(sc.DefaultDet) {
			t.Errorf("%s: default det %s not on its menu", sc.Name, sc.DefaultDet)
		}
		if len(sc.Dets) == 0 && sc.DefaultDet != DetNone {
			t.Errorf("%s: default det %s without a menu", sc.Name, sc.DefaultDet)
		}
		if len(sc.CCs) > 0 && !sc.HasCC(sc.DefaultCC) {
			t.Errorf("%s: default cc %s not on its menu", sc.Name, sc.DefaultCC)
		}
		if len(sc.CCs) == 0 && sc.DefaultCC != CCFixed {
			t.Errorf("%s: default cc %s without a menu", sc.Name, sc.DefaultCC)
		}
		if sc.HasDet(DetNone) || sc.HasCC(CCFixed) {
			t.Errorf("%s: menu holds the zero value that means unset", sc.Name)
		}
		if sc.Compare && len(sc.Dets)+len(sc.CCs) == 0 {
			t.Errorf("%s: comparison scenario without a menu", sc.Name)
		}
		if err := sc.Check(Params{}); err != nil {
			t.Errorf("%s: zero Params rejected: %v", sc.Name, err)
		}
	}
	if Lookup("fig99") != nil {
		t.Error("Lookup invented a scenario")
	}
}

// TestParseKinds: Parse* invert String for every kind and reject the rest.
func TestParseKinds(t *testing.T) {
	for _, f := range []FabricKind{CEE, IB} {
		if got, err := ParseFabric(f.String()); err != nil || got != f {
			t.Errorf("ParseFabric(%q) = %v, %v", f, got, err)
		}
	}
	for d := DetNone; d < numDetectorKinds; d++ {
		if got, err := ParseDet(d.String()); err != nil || got != d {
			t.Errorf("ParseDet(%q) = %v, %v", d, got, err)
		}
	}
	for c := CCFixed; c < numCCKinds; c++ {
		if got, err := ParseCC(c.String()); err != nil || got != c {
			t.Errorf("ParseCC(%q) = %v, %v", c, got, err)
		}
	}
	if _, err := ParseFabric("roce"); err == nil {
		t.Error("ParseFabric accepted roce")
	}
	if _, err := ParseDet("psychic"); err == nil {
		t.Error("ParseDet accepted psychic")
	}
	if _, err := ParseCC("TCP"); err == nil {
		t.Error("ParseCC accepted TCP")
	}
}

// TestCheckRejectsOffMenu: a value outside the menu a scenario declares
// is an error naming the menu, never a silent fall-through to a default;
// an axis the scenario does not consume is not its business.
func TestCheckRejectsOffMenu(t *testing.T) {
	cases := []struct {
		exp     string
		p       Params
		wantErr string // "" = accepted
	}{
		{"fig16", Params{Workload: "websearch"}, ""},
		{"fig16", Params{Workload: "websaerch"}, "hadoop, websearch, mpiio"},
		{"fig3", Params{Arch: "voq"}, ""},
		{"fig3", Params{Arch: "bogus"}, "oq, voq"},
		{"fig3", Params{Det: DetNPECN}, ""},
		{"victim-under-flap", Params{Det: DetNPECN}, "baseline, tcd"},
		{"table3", Params{Det: DetTCD}, "does not support det"},
		{"fig20", Params{CC: CCDCQCN}, "dcqcn+tcd, timely+tcd"},
		{"table3", Params{Workload: "websaerch", Arch: "bogus"}, ""},
	}
	for _, tc := range cases {
		err := Lookup(tc.exp).Check(tc.p)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s %+v: rejected: %v", tc.exp, tc.p, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s %+v: error %v does not mention %q", tc.exp, tc.p, err, tc.wantErr)
		}
	}
}

// TestHorizonWinsOverFull ranges over every scenario with a -full
// horizon: an explicit horizon must win over the preset (at the parent
// commit -full silently overrode -horizon in seven of nine), the preset
// over the scenario default.
func TestHorizonWinsOverFull(t *testing.T) {
	const short = units.Millisecond
	for _, sc := range Scenarios {
		if sc.FullHorizon == 0 {
			continue
		}
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			if got := sc.horizon(Params{Full: true, Horizon: short}); got != short {
				t.Errorf("Full + explicit horizon resolves to %v, want %v", got, short)
			}
			if got := sc.horizon(Params{Full: true}); got != sc.FullHorizon {
				t.Errorf("Full resolves to %v, want the preset %v", got, sc.FullHorizon)
			}
			if got := sc.horizon(Params{}); got != 0 {
				t.Errorf("no override resolves to %v, want 0 (scenario default)", got)
			}
			// End to end: with the other scale axes pinned, Full must not
			// change what a 1 ms run computes. (fig11's Full also widens
			// the marking bin, so its bytes legitimately differ.)
			if sc.Name == "fig11" {
				return
			}
			p := Params{Seed: 2, Horizon: short, K: 4, Flows: 100}
			plain := encode(t, sc.Run(p))
			p.Full = true
			if full := encode(t, sc.Run(p)); !bytes.Equal(plain, full) {
				t.Errorf("-full changed the bytes of an explicit %v run", short)
			}
		})
	}
}

func encode(t *testing.T, results []*Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteResultsJSON(&buf, results); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
