package stats

import (
	"testing"

	"github.com/tcdnet/tcd/internal/sim"
	"github.com/tcdnet/tcd/internal/units"
)

// TestTracerCapBoundsMemory: with a cap set, an arbitrarily long run
// retains at most cap samples per series, still spanning the whole run.
func TestTracerCapBoundsMemory(t *testing.T) {
	sch := sim.New()
	horizon := 100 * units.Millisecond
	tr := NewTracer(sch, units.Microsecond, horizon) // 100k ticks uncapped
	tr.SetCap(64)
	a := tr.Add("a", func() float64 { return 1 })
	b := tr.Add("b", func() float64 { return 2 })
	tr.Start()
	sch.Run()

	for name, s := range map[string]*Series{"a": a, "b": b} {
		if len(s.T) > 64 {
			t.Fatalf("series %s retained %d samples, cap 64", name, len(s.T))
		}
		if len(s.T) < 32 {
			t.Fatalf("series %s retained only %d samples (over-decimated)", name, len(s.T))
		}
		if s.T[0] != 0 {
			t.Errorf("series %s lost its first sample: T[0]=%v", name, s.T[0])
		}
		// Coverage: the last retained sample is within one (doubled)
		// interval of the horizon.
		if last := s.T[len(s.T)-1]; last < horizon/2 {
			t.Errorf("series %s stops at %v, does not cover the run to %v", name, last, horizon)
		}
	}
	if tr.Decimations() == 0 {
		t.Fatal("cap never triggered on a 100k-tick run")
	}
	// Decimation keeps even indices, so retained timestamps stay strictly
	// increasing and evenly spaced at interval<<decims.
	for i := 1; i < len(a.T); i++ {
		if a.T[i] <= a.T[i-1] {
			t.Fatalf("timestamps not increasing after decimation: T[%d]=%v T[%d]=%v", i-1, a.T[i-1], i, a.T[i])
		}
	}
}

// TestTracerNoCapUnchanged: without SetCap the tracer keeps every sample
// (the default-horizon figure runs must stay byte-identical).
func TestTracerNoCapUnchanged(t *testing.T) {
	sch := sim.New()
	tr := NewTracer(sch, 10*units.Microsecond, units.Millisecond)
	s := tr.Add("x", func() float64 { return 1 })
	tr.Start()
	sch.Run()
	if len(s.T) != 101 {
		t.Fatalf("samples = %d, want 101", len(s.T))
	}
	if tr.Decimations() != 0 {
		t.Fatalf("decimations = %d without a cap", tr.Decimations())
	}
}

// TestTracerCapAboveRunLengthIsExact: a cap larger than the sample count
// changes nothing — the property the fig runners rely on to keep their
// golden outputs identical.
func TestTracerCapAboveRunLengthIsExact(t *testing.T) {
	run := func(cap int) *Series {
		sch := sim.New()
		tr := NewTracer(sch, 10*units.Microsecond, units.Millisecond)
		if cap > 0 {
			tr.SetCap(cap)
		}
		x := 0.0
		s := tr.Add("x", func() float64 { x += 1.5; return x })
		tr.Start()
		sch.Run()
		return s
	}
	want, got := run(0), run(1024)
	if len(want.T) != len(got.T) {
		t.Fatalf("capped (above length) run has %d samples, uncapped %d", len(got.T), len(want.T))
	}
	for i := range want.T {
		if want.T[i] != got.T[i] || want.V[i] != got.V[i] {
			t.Fatalf("sample %d differs: (%v,%v) vs (%v,%v)", i, want.T[i], want.V[i], got.T[i], got.V[i])
		}
	}
}

// TestRateProbeThroughDecimation: a counter growing at a constant rate
// reads that rate at every sample, also after the tracer has doubled its
// interval (twice here) — the probe divides by the tracer's current
// interval, not the one it started with.
func TestRateProbeThroughDecimation(t *testing.T) {
	sch := sim.New()
	tr := NewTracer(sch, units.Microsecond, 200*units.Microsecond)
	tr.SetCap(64)
	// 5000 B/us = 40 Gbps.
	sent := func() units.ByteSize { return units.ByteSize(sch.Now() / units.Microsecond * 5000) }
	s := tr.Add("rate", RateProbe(sent, tr.Interval))
	tr.Start()
	sch.Run()

	if tr.Decimations() != 2 {
		t.Fatalf("decimations = %d, want 2", tr.Decimations())
	}
	if tr.Interval() != 4*units.Microsecond {
		t.Fatalf("interval = %v after two decimations, want 4us", tr.Interval())
	}
	// The first sample covers no traffic yet.
	for i, v := range s.V[1:] {
		if v != 40e9 {
			t.Fatalf("sample %d at %v = %v bits/s, want 40e9", i+1, s.T[i+1], v)
		}
	}
}

// TestTracerAllocs: Start sizes every column once, so a run's allocations
// do not depend on how many ticks it samples.
func TestTracerAllocs(t *testing.T) {
	allocs := func(ticks int) float64 {
		return testing.AllocsPerRun(5, func() {
			sch := sim.New()
			tr := NewTracer(sch, units.Microsecond, units.Time(ticks-1)*units.Microsecond)
			var series []*Series
			for i := 0; i < 4; i++ {
				series = append(series, tr.Add("x", func() float64 { return 1 }))
			}
			tr.Start()
			sch.Run()
			for _, s := range series {
				if len(s.T) != ticks || cap(s.T) != ticks || cap(s.V) != ticks {
					t.Fatalf("series holds %d samples in columns of %d and %d, want %d in all", len(s.T), cap(s.T), cap(s.V), ticks)
				}
			}
		})
	}
	small, large := allocs(500), allocs(5000)
	if small != large {
		t.Errorf("a tracer run allocates %v objects over 500 ticks and %v over 5000", small, large)
	}
}
