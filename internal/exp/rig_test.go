package exp

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/tcdnet/tcd/internal/cbfc"
	"github.com/tcdnet/tcd/internal/cc"
	"github.com/tcdnet/tcd/internal/core"
	"github.com/tcdnet/tcd/internal/host"
	"github.com/tcdnet/tcd/internal/pfc"
	"github.com/tcdnet/tcd/internal/stats"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

func TestFig2RigPortsAndDefaults(t *testing.T) {
	rig := NewFig2Rig(topo.Fig2Config{}, RigConfig{Run: Run{Kind: CEE}, Det: DetTCD})
	// Observed ports are wired to the documented chain.
	if rig.P0 != rig.Net.HostPort(rig.F2.S1) {
		t.Error("P0 is not S1's NIC")
	}
	if rig.P3.Rate != 40*units.Gbps {
		t.Error("P3 rate wrong")
	}
	if len(rig.ObservedPorts()) != 4 || PortLabel(2) != "P2" {
		t.Error("observed port labels wrong")
	}
	// PFC installed with paper defaults.
	if rig.PFCCfg != pfc.DefaultConfig() {
		t.Errorf("PFC config = %+v", rig.PFCCfg)
	}
	// TCD thresholds are the CEE marking threshold and 10 KB.
	if cfg := rig.TCDConfigFor(rig.P2); cfg.CongThresh != 200*units.KB || cfg.LowThresh != 10*units.KB {
		t.Errorf("CEE TCD config = %+v", cfg)
	}
}

func TestRigIBDefaults(t *testing.T) {
	rig := NewFig2Rig(topo.Fig2Config{}, RigConfig{Run: Run{Kind: IB}, Det: DetTCD})
	if rig.CBFCCfg.Buffer != cbfc.DefaultConfig().Buffer {
		t.Errorf("CBFC buffer = %v", rig.CBFCCfg.Buffer)
	}
	cfg := rig.TCDConfigFor(rig.P2)
	if cfg.CongThresh != 50*units.KB {
		t.Errorf("IB congestion threshold = %v, want 50KB", cfg.CongThresh)
	}
	// IB max(Ton) is the credit period, regardless of eps.
	if cfg.MaxTon != rig.CBFCCfg.Tc {
		t.Errorf("IB MaxTon = %v, want Tc %v", cfg.MaxTon, rig.CBFCCfg.Tc)
	}
}

func TestRigCEETCDConfigUsesModel(t *testing.T) {
	rig := NewFig2Rig(topo.Fig2Config{}, RigConfig{Run: Run{Kind: CEE}, Det: DetTCD})
	cfg := rig.TCDConfigFor(rig.P2)
	// 40G link, 4us delay: tau = 0.4us + 8us = 8.4us;
	// maxTon = (2*16000 + 8.4e-6*40e9) / (2*0.05*40e9) + 8.4us = 100.4us.
	want := 100.4
	if math.Abs(cfg.MaxTon.Micros()-want) > 0.01 {
		t.Errorf("CEE MaxTon = %v, want ~%vus", cfg.MaxTon, want)
	}
	// An unset eps is the recommended one.
	rig.Par.Eps = core.RecommendedEps
	if got := rig.TCDConfigFor(rig.P2); got != cfg {
		t.Errorf("explicit eps %v gives %+v, unset gives %+v", core.RecommendedEps, got, cfg)
	}
	// The testbed overrides change the model inputs.
	rig.Par.XoffGap = 30 * units.KB
	rig.Par.Tau = 20 * units.Microsecond
	cfg2 := rig.TCDConfigFor(rig.P2)
	if cfg2.MaxTon <= cfg.MaxTon {
		t.Error("overrides did not widen MaxTon")
	}
}

func TestNewCCKinds(t *testing.T) {
	rig := NewFig2Rig(topo.Fig2Config{}, RigConfig{Run: Run{Kind: CEE}, Det: DetNone})
	line := 40 * units.Gbps
	cases := []struct {
		kind CCKind
		want interface{}
	}{
		{CCFixed, host.FixedRate(0)},
		{CCDCQCN, &cc.DCQCN{}},
		{CCDCQCNTCD, &cc.DCQCN{}},
		{CCTIMELY, &cc.TIMELY{}},
		{CCTIMELYTCD, &cc.TIMELY{}},
		{CCIBCC, &cc.IBCC{}},
		{CCIBCCTCD, &cc.IBCC{}},
	}
	for _, c := range cases {
		got := rig.NewCC(c.kind, line)
		if got == nil {
			t.Fatalf("%v: nil controller", c.kind)
		}
		switch c.want.(type) {
		case host.FixedRate:
			if _, ok := got.(host.FixedRate); !ok {
				t.Errorf("%v: wrong controller type %T", c.kind, got)
			}
		case *cc.DCQCN:
			if _, ok := got.(*cc.DCQCN); !ok {
				t.Errorf("%v: wrong controller type %T", c.kind, got)
			}
		case *cc.TIMELY:
			if _, ok := got.(*cc.TIMELY); !ok {
				t.Errorf("%v: wrong controller type %T", c.kind, got)
			}
		case *cc.IBCC:
			if _, ok := got.(*cc.IBCC); !ok {
				t.Errorf("%v: wrong controller type %T", c.kind, got)
			}
		}
		if got.CurrentRate() != line {
			t.Errorf("%v: initial rate %v, want line", c.kind, got.CurrentRate())
		}
	}
}

func TestKindStrings(t *testing.T) {
	if CEE.String() != "cee" || IB.String() != "ib" {
		t.Error("fabric kind strings")
	}
	want := map[DetectorKind]string{
		DetNone: "none", DetBaseline: "baseline", DetTCD: "tcd",
		DetTCDAdaptive: "tcd-adaptive", DetNPECN: "np-ecn",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("detector %d string = %q, want %q", k, k.String(), s)
		}
	}
	if !CCTIMELY.NeedsAcks() || CCDCQCN.NeedsAcks() {
		t.Error("NeedsAcks wrong")
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{8, 8, 8, 8}); got != 1 {
		t.Errorf("equal shares Jain = %v", got)
	}
	if got := JainIndex([]float64{32, 0, 0, 0}); got != 0.25 {
		t.Errorf("winner-takes-all Jain = %v, want 0.25", got)
	}
	if JainIndex(nil) != 0 || JainIndex([]float64{0, 0}) != 0 {
		t.Error("degenerate Jain cases")
	}
}

func TestMarkedFraction(t *testing.T) {
	f := host.StandaloneFlow(10, 3, 5)
	if MarkedFraction(f, true) != 0.3 || MarkedFraction(f, false) != 0.5 {
		t.Error("marked fractions wrong")
	}
	if MarkedFraction(host.StandaloneFlow(0, 0, 0), true) != 0 {
		t.Error("empty flow fraction not 0")
	}
}

func TestWriteSeries(t *testing.T) {
	res := NewResult("w test")
	res.Series["q/len"] = &stats.Series{
		Name: "q",
		T:    []units.Time{0, units.Microsecond},
		V:    []float64{1, 2},
	}
	dir := t.TempDir()
	if err := res.WriteSeries(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "w_test-q_len.csv"))
	if err != nil {
		t.Fatal(err)
	}
	want := "time_us,value\n0.000,1\n1.000,2\n"
	if string(data) != want {
		t.Errorf("csv = %q, want %q", data, want)
	}
}
