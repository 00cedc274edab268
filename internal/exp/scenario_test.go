package exp

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"github.com/tcdnet/tcd/internal/fault"
	"github.com/tcdnet/tcd/internal/obs"
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

// TestHeaderStaysTheOnlyCopy: every scenario config, and RigConfig,
// embeds the Run header and declares no field of its own with one of the
// header's names — the copies that PR 19 folded must not grow back when
// the header gains a field.
func TestHeaderStaysTheOnlyCopy(t *testing.T) {
	header := reflect.TypeOf(Run{})
	for _, cfg := range []any{
		ObserveConfig{}, FairnessConfig{}, VictimConfig{}, FatTreeConfig{}, TestbedConfig{},
		VictimFlapConfig{}, DeadlockUnitConfig{}, MultiPrioConfig{}, AdversarialConfig{}, RigConfig{},
	} {
		typ := reflect.TypeOf(cfg)
		if f, ok := typ.FieldByName("Run"); !ok || !f.Anonymous || f.Type != header {
			t.Errorf("%s does not embed Run", typ.Name())
		}
		for i := 0; i < typ.NumField(); i++ {
			if _, dup := header.FieldByName(typ.Field(i).Name); dup {
				t.Errorf("%s declares its own %s beside the header's", typ.Name(), typ.Field(i).Name)
			}
		}
	}
}

// TestHeaderResolution is the precedence table of the one place a run's
// horizon is decided: unset keeps the scenario's default, Full selects
// the preset where there is one, an explicit horizon wins over both. It
// also holds the header to what the scenario declares it takes.
func TestHeaderResolution(t *testing.T) {
	const short = units.Millisecond
	fig11, flap := DefaultTestbedConfig(CEE).Run, DefaultVictimFlapConfig(CEE, DetTCD).Run
	for _, tc := range []struct {
		exp  string
		def  Run
		p    Params
		want units.Time
	}{
		{"fig11", fig11, Params{}, 80 * units.Millisecond},
		{"fig11", fig11, Params{Full: true}, 400 * units.Millisecond},
		{"fig11", fig11, Params{Horizon: short}, short},
		{"fig11", fig11, Params{Full: true, Horizon: short}, short},
		{"victim-under-flap", flap, Params{}, 10 * units.Millisecond},
		{"victim-under-flap", flap, Params{Full: true}, 10 * units.Millisecond},
		{"victim-under-flap", flap, Params{Full: true, Horizon: short}, short},
	} {
		if got := Lookup(tc.exp).header(tc.p).over(tc.def).Horizon; got != tc.want {
			t.Errorf("%s %+v: horizon %v, want %v", tc.exp, tc.p, got, tc.want)
		}
	}
	p := Params{Fabric: IB, Seed: 9, Faults: &fault.Spec{}, Obs: obs.Config{Rec: obs.NewRing(0), ProgressEvery: short}}
	if h := Lookup("fig3").header(p); h.Kind != IB || h.Seed != 9 || h.Faults != p.Faults || h.Obs.Rec == nil {
		t.Errorf("fig3 takes the whole header, got %+v", h)
	}
	if h := Lookup("fig16").header(p); h.Obs.Rec != nil || h.Obs.ProgressEvery != short || h.Faults != p.Faults {
		t.Errorf("fig16 keeps the progress ticker and the schedule only, got %+v", h)
	}
	if h := Lookup("table3").header(p); h.Faults != nil || h.Obs != (obs.Config{}) {
		t.Errorf("table3 declares neither faults nor obs, got %+v", h)
	}
}

// TestHorizonWinsOverFull ranges over every scenario with a -full
// horizon: with the other scale axes pinned, Full must not change what an
// explicit 1 ms run computes (at the parent of PR 14 -full silently
// overrode -horizon in seven of nine).
func TestHorizonWinsOverFull(t *testing.T) {
	const short = units.Millisecond
	for _, sc := range Scenarios {
		if sc.FullHorizon == 0 {
			continue
		}
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			if got := sc.header(Params{Full: true}).Horizon; got != sc.FullHorizon {
				t.Errorf("Full resolves to %v, want the preset %v", got, sc.FullHorizon)
			}
			// fig11's Full also widens the marking bin, so its bytes
			// legitimately differ.
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
