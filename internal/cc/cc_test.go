package cc

import (
	"math"
	"testing"

	"github.com/tcdnet/tcd/internal/sim"
	"github.com/tcdnet/tcd/internal/units"
)

const line = 40 * units.Gbps

func TestDCQCNStartsAtLineRate(t *testing.T) {
	s := sim.New()
	d := new(DCQCN)
	d.Init(s, DefaultDCQCNConfig(line))
	if d.CurrentRate() != line {
		t.Errorf("initial rate = %v, want %v", d.CurrentRate(), line)
	}
}

func TestDCQCNStockCutIsGentle(t *testing.T) {
	// §5.2.1: the default reduction factor is 0.5, i.e. a cut to
	// rate*(1 - 0.5/2) = 75%.
	s := sim.New()
	d := new(DCQCN)
	d.Init(s, DefaultDCQCNConfig(line))
	d.OnNotify(0, true, false)
	want := float64(line) * 0.75
	if math.Abs(float64(d.CurrentRate())-want)/want > 0.01 {
		t.Errorf("rate after first cut = %v, want ~%v", d.CurrentRate(), units.Rate(want))
	}
	if d.CutEvents != 1 {
		t.Errorf("CutEvents = %d", d.CutEvents)
	}
}

func TestDCQCNTCDCutIsMoreAggressive(t *testing.T) {
	s := sim.New()
	d := new(DCQCN)
	d.Init(s, TCDDCQCNConfig(line))
	d.OnNotify(0, true, false)
	// alpha = 1.2 -> rate * (1 - 0.6) = 16G.
	want := float64(line) * 0.4
	if math.Abs(float64(d.CurrentRate())-want)/want > 0.01 {
		t.Errorf("TCD cut rate = %v, want ~%v", d.CurrentRate(), units.Rate(want))
	}
}

func TestDCQCNUEHoldsRateInTCDMode(t *testing.T) {
	s := sim.New()
	d := new(DCQCN)
	d.Init(s, TCDDCQCNConfig(line))
	d.OnNotify(0, false, true)
	if d.CurrentRate() != line {
		t.Errorf("UE changed rate to %v", d.CurrentRate())
	}
	if d.HoldEvents != 1 {
		t.Errorf("HoldEvents = %d, want 1", d.HoldEvents)
	}
}

func TestDCQCNStockIgnoresUE(t *testing.T) {
	s := sim.New()
	d := new(DCQCN)
	d.Init(s, DefaultDCQCNConfig(line))
	d.OnNotify(0, false, true)
	if d.CurrentRate() != line || d.HoldEvents != 0 {
		t.Error("stock DCQCN reacted to UE")
	}
}

func TestDCQCNAlphaDecaysWithoutCNPs(t *testing.T) {
	s := sim.New()
	d := new(DCQCN)
	d.Init(s, DefaultDCQCNConfig(line))
	s.At(0, func() { d.OnNotify(0, true, false) })
	alphaAfterCut := 0.0
	s.At(units.Microsecond, func() { alphaAfterCut = alphaOf(d) })
	s.RunUntil(10 * units.Millisecond)
	if alphaOf(d) >= alphaAfterCut/2 {
		t.Errorf("alpha did not decay: %v -> %v", alphaAfterCut, alphaOf(d))
	}
}

func TestDCQCNRecoversTowardLineRate(t *testing.T) {
	s := sim.New()
	d := new(DCQCN)
	d.Init(s, DefaultDCQCNConfig(line))
	s.At(0, func() { d.OnNotify(0, true, false) })
	s.RunUntil(200 * units.Millisecond)
	// Fast recovery alone brings Rc back to Rt=line within ~5 timer
	// periods; additive/hyper then keep it there.
	if float64(d.CurrentRate()) < 0.95*float64(line) {
		t.Errorf("rate after recovery = %v, want ~line rate", d.CurrentRate())
	}
	if s.Pending() != 0 {
		t.Errorf("%d events still pending (timers must quiesce at line rate)", s.Pending())
	}
}

func TestDCQCNFastRecoveryHalvesGap(t *testing.T) {
	s := sim.New()
	d := new(DCQCN)
	d.Init(s, DefaultDCQCNConfig(line))
	s.At(0, func() { d.OnNotify(0, true, false) }) // rc=30G, rt=40G
	s.RunUntil(dcqcnIncreaseTimer + units.Microsecond)
	// One timer increase: rc = (30+40)/2 = 35G.
	want := 35 * units.Gbps
	if math.Abs(float64(d.CurrentRate()-want))/float64(want) > 0.02 {
		t.Errorf("after one fast recovery rate = %v, want ~30G", d.CurrentRate())
	}
}

func TestDCQCNByteCounterStages(t *testing.T) {
	s := sim.New()
	d := new(DCQCN)
	d.Init(s, DefaultDCQCNConfig(line))
	d.OnNotify(0, true, false) // rc = 30G, rt = 40G
	r0 := d.CurrentRate()
	for i := 0; i < 49; i++ {
		d.OnSent(0, dcqcnByteCounter/10) // 4.9 stages: 4 byte-stage events
	}
	if d.byteCnt != 4 {
		t.Fatalf("byteCnt = %d after 4.9 stages, want 4", d.byteCnt)
	}
	d.OnSent(0, dcqcnByteCounter/10) // the fifth
	if d.byteCnt != 5 || d.bytes != 0 {
		t.Errorf("byteCnt = %d with %v carried after 5 stages, want 5 and none", d.byteCnt, d.bytes)
	}
	if d.CurrentRate() <= r0 {
		t.Errorf("byte-counter events did not increase rate: %v", d.CurrentRate())
	}
}

func TestDCQCNMinRateFloor(t *testing.T) {
	s := sim.New()
	d := new(DCQCN)
	d.Init(s, DefaultDCQCNConfig(line))
	for i := 0; i < 100; i++ {
		d.OnNotify(0, true, false)
	}
	if d.CurrentRate() < dcqcnMinRate {
		t.Errorf("rate %v fell below floor %v", d.CurrentRate(), dcqcnMinRate)
	}
}

func TestTIMELYBelowTLowIncreases(t *testing.T) {
	tm := new(TIMELY)
	tm.Init(10*units.Gbps, false)
	tm.rate = units.Gbps
	tm.OnAck(0, 30*units.Microsecond, false, false) // first sample
	tm.OnAck(0, 30*units.Microsecond, false, false)
	if tm.CurrentRate() != units.Gbps+timelyDelta {
		t.Errorf("rate = %v, want +delta", tm.CurrentRate())
	}
}

func TestTIMELYAboveTHighDecreases(t *testing.T) {
	tm := new(TIMELY)
	tm.Init(line, false)
	tm.OnAck(0, 100*units.Microsecond, false, false)
	tm.OnAck(0, 1000*units.Microsecond, false, false) // >> THigh
	// f = 1 - 0.8*(1 - 500/1000) = 0.6.
	want := float64(line) * 0.6
	if math.Abs(float64(tm.CurrentRate())-want)/want > 0.01 {
		t.Errorf("rate = %v, want ~%v", tm.CurrentRate(), units.Rate(want))
	}
}

func TestTIMELYNegativeGradientIncreases(t *testing.T) {
	tm := new(TIMELY)
	tm.Init(line, false)
	tm.rate = units.Gbps
	// Falling RTTs inside [TLow, THigh].
	rtts := []units.Time{400, 380, 360, 340, 320, 300, 280, 260}
	for _, us := range rtts {
		tm.OnAck(0, us*units.Microsecond, false, false)
	}
	if tm.CurrentRate() <= units.Gbps {
		t.Error("negative gradient did not increase rate")
	}
	if tm.Decreases != 0 {
		t.Error("negative gradient caused decreases")
	}
}

func TestTIMELYHAIAfterFiveNegatives(t *testing.T) {
	tm := new(TIMELY)
	tm.Init(line, false)
	tm.rate = units.Gbps
	r := tm.rate
	var steps []units.Rate
	rtt := 400 * units.Microsecond
	for i := 0; i < 8; i++ {
		tm.OnAck(0, rtt, false, false)
		rtt -= 10 * units.Microsecond
		steps = append(steps, tm.CurrentRate()-r)
		r = tm.CurrentRate()
	}
	// Early steps are 1*delta; late steps 5*delta.
	if steps[1] != timelyDelta {
		t.Errorf("early step = %v, want delta", steps[1])
	}
	if steps[7] != 5*timelyDelta {
		t.Errorf("late step = %v, want 5*delta", steps[7])
	}
}

func TestTIMELYPositiveGradientDecreases(t *testing.T) {
	tm := new(TIMELY)
	tm.Init(line, false)
	tm.OnAck(0, 100*units.Microsecond, false, false)
	for rtt := units.Time(120); rtt <= 300; rtt += 40 {
		tm.OnAck(0, rtt*units.Microsecond, false, false)
	}
	if tm.Decreases == 0 {
		t.Error("rising RTT inside the band caused no decrease")
	}
	if tm.CurrentRate() >= line {
		t.Error("rate did not drop")
	}
}

func TestTIMELYTCDHoldsOnUE(t *testing.T) {
	tm := new(TIMELY)
	tm.Init(line, true)
	tm.OnAck(0, 100*units.Microsecond, false, false)
	for rtt := units.Time(120); rtt <= 300; rtt += 40 {
		tm.OnAck(0, rtt*units.Microsecond, false, true) // UE echoed
	}
	if tm.CurrentRate() != line {
		t.Errorf("UE-echoed gradient rise dropped rate to %v", tm.CurrentRate())
	}
	if tm.Holds == 0 {
		t.Error("no holds recorded")
	}
	// But a CE echo still decreases even in TCD mode.
	tm.OnAck(0, 340*units.Microsecond, true, false)
	if tm.CurrentRate() >= line {
		t.Error("CE echo did not decrease in TCD mode")
	}
}

func TestTIMELYAboveTHighOverridesUE(t *testing.T) {
	// Above THigh TIMELY always decreases, UE or not: the band rule only
	// covers the gradient region.
	tm := new(TIMELY)
	tm.Init(line, true)
	tm.OnAck(0, 100*units.Microsecond, false, true)
	tm.OnAck(0, 900*units.Microsecond, false, true)
	if tm.CurrentRate() >= line {
		t.Error("THigh breach with UE did not decrease")
	}
}

func TestTIMELYClamps(t *testing.T) {
	tm := new(TIMELY)
	tm.Init(line, false)
	tm.OnAck(0, 10*units.Microsecond, false, false)
	tm.OnAck(0, 10*units.Microsecond, false, false)
	if tm.CurrentRate() > line {
		t.Error("rate exceeded line rate")
	}
	for i := 0; i < 200; i++ {
		tm.OnAck(0, units.Time(1000+i*100)*units.Microsecond, false, false)
	}
	if tm.CurrentRate() < timelyMinRate {
		t.Error("rate fell below MinRate")
	}
}

func TestIBCCRateTable(t *testing.T) {
	s := sim.New()
	c := new(IBCC)
	c.Init(s, line, false)
	if c.CurrentRate() != line {
		t.Errorf("initial rate = %v", c.CurrentRate())
	}
	c.OnNotify(0, true, false)
	if c.ccti != 1 {
		t.Errorf("CCTI = %d, want 1", c.ccti)
	}
	// rate = line / (1 + 1/8) = 35.55G.
	want := float64(line) / 1.125
	if math.Abs(float64(c.CurrentRate())-want)/want > 0.01 {
		t.Errorf("rate = %v, want ~%v", c.CurrentRate(), units.Rate(want))
	}
	// Monotone decreasing in CCTI.
	prev := c.CurrentRate()
	for i := 0; i < 20; i++ {
		c.OnNotify(0, true, false)
		if c.CurrentRate() >= prev {
			t.Fatal("rate not monotone in CCTI")
		}
		prev = c.CurrentRate()
	}
}

func TestIBCCTCDStepIsTwo(t *testing.T) {
	s := sim.New()
	c := new(IBCC)
	c.Init(s, line, true)
	c.OnNotify(0, true, false)
	if c.ccti != 2 {
		t.Errorf("TCD CCTI step = %d, want 2", c.ccti)
	}
}

func TestIBCCUEHolds(t *testing.T) {
	s := sim.New()
	c := new(IBCC)
	c.Init(s, line, true)
	c.OnNotify(0, false, true)
	if c.ccti != 0 || c.Holds != 1 {
		t.Errorf("UE changed CCTI to %d (holds %d)", c.ccti, c.Holds)
	}
}

func TestIBCCTimerRecovery(t *testing.T) {
	s := sim.New()
	c := new(IBCC)
	c.Init(s, line, false)
	s.At(0, func() {
		for i := 0; i < 10; i++ {
			c.OnNotify(0, true, false)
		}
	})
	s.RunUntil(20 * ibccTimer)
	if c.ccti != 0 {
		t.Errorf("CCTI = %d after recovery window, want 0", c.ccti)
	}
	if s.Pending() != 0 {
		t.Error("IBCC timer did not quiesce")
	}
	if c.CurrentRate() != line {
		t.Error("rate did not recover to line")
	}
}

func TestIBCCCCTIMax(t *testing.T) {
	s := sim.New()
	c := new(IBCC)
	c.Init(s, line, false)
	for i := 0; i < 500; i++ {
		c.OnNotify(0, true, false)
	}
	if c.ccti != ibccCCTIMax {
		t.Errorf("CCTI = %d, want capped at %d", c.ccti, ibccCCTIMax)
	}
}

// TestControllerEventAllocs pins the controllers' per-event entry points
// at zero allocations once warm: DCQCN's CNP and sent-bytes handlers,
// TIMELY's ACK handler and IB CC's BECN handler run once per packet or
// notification of every flow. The warm-up call lets the scheduler take
// the slot the increase or recovery timer then re-arms in place.
func TestControllerEventAllocs(t *testing.T) {
	s := sim.New()
	d := new(DCQCN)
	d.Init(s, TCDDCQCNConfig(line))
	tm := new(TIMELY)
	tm.Init(line, true)
	c := new(IBCC)
	c.Init(s, line, true)
	var at units.Time
	i := 0
	for _, probe := range []struct {
		name string
		fn   func()
	}{
		{"DCQCN.OnNotify", func() { d.OnNotify(0, true, false); d.OnNotify(0, false, true) }},
		{"DCQCN.OnSent", func() { d.OnSent(0, dcqcnByteCounter/2) }},
		{"TIMELY.OnAck", func() {
			// RTTs rising and falling inside [TLow, THigh]: increases,
			// decreases and UE holds.
			i++
			at += timelyUpdateEvery
			tm.OnAck(at, units.Time(100+20*(i%8))*units.Microsecond, i%3 == 0, i%2 == 0)
		}},
		{"IBCC.OnNotify", func() { c.OnNotify(0, true, false); c.OnNotify(0, false, true) }},
	} {
		probe.fn()
		if a := testing.AllocsPerRun(1000, probe.fn); a != 0 {
			t.Errorf("%s allocates %.2f/op, want 0", probe.name, a)
		}
	}
}
