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

// sampleOnce runs a tracer for one tick at time 0 and returns that sample.
// grow runs between registration and the tick.
func sampleOnce(add func(tr *Tracer) *Series, grow func()) float64 {
	sch := sim.New()
	tr := NewTracer(sch, units.Microsecond, 0)
	s := add(tr)
	grow()
	tr.Start()
	sch.Run()
	return s.V[0]
}

func TestRateProbe(t *testing.T) {
	sch := sim.New()
	tr := NewTracer(sch, units.Microsecond, 2*units.Microsecond)
	var sent units.ByteSize
	s := tr.AddRate("rate", func() units.ByteSize { return sent }, 1)
	// 5000B in the first 1us = 40Gbps; no traffic in the second.
	sch.At(units.Microsecond, func() { sent = 5000 })
	tr.Start()
	sch.Run()
	if got := s.V[1]; math.Abs(got-40e9) > 1e6 {
		t.Errorf("rate sample = %v, want 40e9", got)
	}
	if got := s.V[2]; got != 0 {
		t.Errorf("idle rate sample = %v, want 0", got)
	}
}

func TestDeltaProbe(t *testing.T) {
	sch := sim.New()
	tr := NewTracer(sch, units.Microsecond, 2*units.Microsecond)
	var count uint64
	s := tr.AddDelta("marks", func() uint64 { return count })
	sch.At(units.Microsecond, func() { count = 7 })
	sch.At(2*units.Microsecond, func() { count = 9 })
	tr.Start()
	sch.Run()
	if s.V[1] != 7 {
		t.Error("delta sample wrong")
	}
	if s.V[2] != 2 {
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
	// The counter already holds history when the column is registered;
	// the first sample must measure from registration, not from zero.
	sent := 1000 * units.KB
	got := sampleOnce(func(tr *Tracer) *Series {
		return tr.AddRate("rate", func() units.ByteSize { return sent }, 1)
	}, func() { sent += 5000 })
	if math.Abs(got-40e9) > 1e6 {
		t.Errorf("first sample = %v, want 40e9 (pre-existing counter value leaked in)", got)
	}
}

func TestDeltaProbeWraparound(t *testing.T) {
	// uint64 modular arithmetic keeps the increment correct across a
	// counter wrap.
	count := uint64(math.MaxUint64 - 2)
	got := sampleOnce(func(tr *Tracer) *Series {
		return tr.AddDelta("marks", func() uint64 { return count })
	}, func() { count += 5 }) // wraps to 2
	if got != 5 {
		t.Errorf("delta across wraparound = %v, want 5", got)
	}
}
