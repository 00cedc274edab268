package stats

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/tcdnet/tcd/internal/sim"
	"github.com/tcdnet/tcd/internal/units"
)

func TestPercentileBasics(t *testing.T) {
	v := []float64{5, 1, 3, 2, 4}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {0.2, 1}, {0.5, 3}, {0.8, 4}, {0.99, 5}, {1, 5},
	}
	for _, c := range cases {
		if got := Percentile(v, c.p); got != c.want {
			t.Errorf("P%.2f = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	v := []float64{3, 1, 2}
	Percentile(v, 0.5)
	if v[0] != 3 || v[1] != 1 || v[2] != 2 {
		t.Error("input mutated")
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		p1 := float64(a%101) / 100
		p2 := float64(b%101) / 100
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return Percentile(raw, p1) <= Percentile(raw, p2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("mean wrong")
	}
	if Mean(nil) != 0 {
		t.Error("empty mean should be 0")
	}
}

func TestDist(t *testing.T) {
	var d Dist
	for _, v := range []float64{10, 30, 20} {
		d.Add(v)
	}
	if d.N() != 3 || d.P(0.5) != 20 || d.Mean() != 20 {
		t.Errorf("Dist: n=%d p50=%v mean=%v", d.N(), d.P(0.5), d.Mean())
	}
	d.Add(40)
	if d.P(0.99) != 40 {
		t.Error("Dist not re-sorted after Add")
	}
}

func TestBreakdown(t *testing.T) {
	b := NewBreakdown(10*units.KB, 100*units.KB)
	if len(b.Bins) != 3 {
		t.Fatalf("bins = %d, want 3 (two edges + tail)", len(b.Bins))
	}
	b.Add(5*units.KB, 1.5)
	b.Add(50*units.KB, 2.5)
	b.Add(units.MB, 9.0)
	b.Add(10*units.KB, 1.0) // boundary: goes to first bin (inclusive hi)
	if b.Bins[0].Dist.N() != 2 || b.Bins[1].Dist.N() != 1 || b.Bins[2].Dist.N() != 1 {
		t.Errorf("bin counts: %d %d %d", b.Bins[0].Dist.N(), b.Bins[1].Dist.N(), b.Bins[2].Dist.N())
	}
	out := b.Table("FCT slowdown")
	if !strings.Contains(out, "FCT slowdown") || !strings.Contains(out, ">100KB") {
		t.Errorf("table rendering missing pieces:\n%s", out)
	}
}

func TestSeriesQueries(t *testing.T) {
	s := &Series{
		Name: "q",
		T:    []units.Time{0, 10, 20, 30},
		V:    []float64{0, 5, 10, 2},
	}
	if s.Max() != 10 {
		t.Error("Max wrong")
	}
	if got := s.At(20); got != 10 {
		t.Errorf("At(20) = %v", got)
	}
	if got := s.At(100); got != 2 {
		t.Errorf("At past end = %v, want last value", got)
	}
	if got := s.MeanOver(10, 30); got != (5+10+2)/3.0 {
		t.Errorf("MeanOver = %v", got)
	}
	if (&Series{}).Max() != 0 || (&Series{}).At(5) != 0 {
		t.Error("empty series queries should be 0")
	}
	if !strings.Contains(s.Render(), "# q") {
		t.Error("Render missing header")
	}
}

func TestTracerSamples(t *testing.T) {
	sch := sim.New()
	tr := NewTracer(sch, 10*units.Microsecond, 100*units.Microsecond)
	x := 0.0
	series := tr.Add("x", func() float64 { x++; return x })
	tr.Start()
	sch.Run()
	// Samples at 0, 10, ..., 100 => 11 samples.
	if len(series.T) != 11 {
		t.Fatalf("samples = %d, want 11", len(series.T))
	}
	if series.T[0] != 0 || series.T[10] != 100*units.Microsecond {
		t.Error("sample times wrong")
	}
	if series.V[10] != 11 {
		t.Error("probe called wrong number of times")
	}
}

func TestTracerStartIdempotent(t *testing.T) {
	sch := sim.New()
	tr := NewTracer(sch, 10*units.Microsecond, 50*units.Microsecond)
	s := tr.Add("x", func() float64 { return 1 })
	tr.Start()
	tr.Start()
	sch.Run()
	if len(s.T) != 6 {
		t.Errorf("double Start duplicated sampling: %d samples", len(s.T))
	}
	if len(tr.Series()) != 1 {
		t.Error("Series() accessor wrong")
	}
}

func TestRateProbe(t *testing.T) {
	var sent units.ByteSize
	interval := units.Microsecond
	probe := RateProbe(func() units.ByteSize { return sent }, func() units.Time { return interval })
	sent = 5000 // 5000B in 1us = 40Gbps
	if got := probe(); math.Abs(got-40e9) > 1e6 {
		t.Errorf("rate probe = %v, want 40e9", got)
	}
	// No traffic in the next interval.
	if got := probe(); got != 0 {
		t.Errorf("idle rate probe = %v, want 0", got)
	}
	// The interval is read at every sample, not once.
	sent, interval = sent+10000, 2*units.Microsecond
	if got := probe(); math.Abs(got-40e9) > 1e6 {
		t.Errorf("rate over a doubled interval = %v, want 40e9", got)
	}
}

func TestDeltaProbe(t *testing.T) {
	var count uint64
	probe := DeltaProbe(func() uint64 { return count })
	count = 7
	if probe() != 7 {
		t.Error("delta probe wrong")
	}
	count = 9
	if probe() != 2 {
		t.Error("second delta wrong")
	}
}

func TestNewTracerRejectsZeroInterval(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("NewTracer(interval=0) did not panic; the sampling loop would never advance sim time")
		}
		if !strings.Contains(fmt.Sprint(r), "interval must be positive") {
			t.Errorf("panic message %q does not explain the constraint", r)
		}
	}()
	NewTracer(sim.New(), 0, units.Millisecond)
}

func TestRateProbeFirstSampleBaseline(t *testing.T) {
	// The counter already holds history when the probe is built; the
	// first sample must measure from construction, not from zero.
	sent := 1000 * units.KB
	probe := RateProbe(func() units.ByteSize { return sent }, func() units.Time { return units.Microsecond })
	sent += 5000
	if got := probe(); math.Abs(got-40e9) > 1e6 {
		t.Errorf("first sample = %v, want 40e9 (pre-existing counter value leaked in)", got)
	}
}

func TestDeltaProbeWraparound(t *testing.T) {
	// uint64 modular arithmetic keeps the increment correct across a
	// counter wrap.
	count := uint64(math.MaxUint64 - 2)
	probe := DeltaProbe(func() uint64 { return count })
	count += 5 // wraps to 2
	if got := probe(); got != 5 {
		t.Errorf("delta across wraparound = %v, want 5", got)
	}
}
