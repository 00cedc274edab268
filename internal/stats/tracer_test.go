package stats

import (
	"math"
	"testing"

	"github.com/tcdnet/tcd/internal/sim"
	"github.com/tcdnet/tcd/internal/units"
)

// TestTracerCapBoundsMemory: an arbitrarily long run retains at most
// SeriesCap samples per series, still spanning the whole run.
func TestTracerCapBoundsMemory(t *testing.T) {
	sch := sim.New()
	horizon := 100 * units.Millisecond
	tr := NewTracer(sch, units.Microsecond, horizon) // 100k ticks
	a := tr.Add("a", func() float64 { return 1 })
	b := tr.Add("b", func() float64 { return 2 })
	tr.Start()
	sch.Run()

	for name, s := range map[string]*Series{"a": a, "b": b} {
		if len(s.T) > SeriesCap || cap(s.T) > SeriesCap+1 {
			t.Fatalf("series %s retained %d samples in a column of %d, cap %d", name, len(s.T), cap(s.T), SeriesCap)
		}
		if len(s.T) < SeriesCap/2 {
			t.Fatalf("series %s retained only %d samples (over-folded)", name, len(s.T))
		}
		if s.T[0] != 0 || s.T[len(s.T)-1] != horizon {
			t.Errorf("series %s spans %v..%v, want 0..%v", name, s.T[0], s.T[len(s.T)-1], horizon)
		}
	}
}

// TestTracerNoCapUnchanged: a run that never reaches SeriesCap keeps every
// sample (the default-horizon figure runs must stay byte-identical).
func TestTracerNoCapUnchanged(t *testing.T) {
	sch := sim.New()
	tr := NewTracer(sch, 10*units.Microsecond, units.Millisecond)
	s := tr.Add("x", func() float64 { return 1 })
	tr.Start()
	sch.Run()
	if len(s.T) != 101 {
		t.Fatalf("samples = %d, want 101", len(s.T))
	}
}

// TestTracerCapAboveRunLengthIsExact: a run of exactly SeriesCap samples
// is the longest that does not fold — every sample is there, at the
// interval asked for, with the value the probe returned.
func TestTracerCapAboveRunLengthIsExact(t *testing.T) {
	sch := sim.New()
	tr := NewTracer(sch, 10*units.Microsecond, (SeriesCap-1)*10*units.Microsecond)
	x := 0.0
	s := tr.Add("x", func() float64 { x += 1.5; return x })
	tr.Start()
	sch.Run()
	if len(s.T) != SeriesCap {
		t.Fatalf("%d samples, want %d", len(s.T), SeriesCap)
	}
	for i := range s.T {
		if want := units.Time(i) * 10 * units.Microsecond; s.T[i] != want || s.V[i] != 1.5*float64(i+1) {
			t.Fatalf("sample %d = (%v,%v), want (%v,%v)", i, s.T[i], s.V[i], want, 1.5*float64(i+1))
		}
	}
}

// TestTracerFoldsByKind: through three folds a delta column still sums to
// its counter, a rate column still integrates to its byte counter, a level
// column holds what the probe read at each retained time, and the grid is
// on multiples of the (doubled) interval and ends on the horizon.
func TestTracerFoldsByKind(t *testing.T) {
	sch := sim.New()
	horizon := 40 * units.Millisecond // 40 001 ticks at 1 us: folds at 8 192, 16 384 and 32 768 us
	tr := NewTracer(sch, units.Microsecond, horizon)
	// Both counters gain k in microsecond k, so no two samples are alike.
	grown := func() uint64 { us := uint64(sch.Now() / units.Microsecond); return us * (us + 1) / 2 }
	level := tr.Add("level", func() float64 { return sch.Now().Micros() })
	delta := tr.AddDelta("delta", grown)
	rate := tr.AddRate("rate", func() units.ByteSize { return units.ByteSize(grown()) }, units.Gbps)
	tr.Start()
	sch.Run()

	n := len(level.T)
	step := 8 * units.Microsecond
	if want := 1 + int(horizon/step); n != want || len(delta.T) != n || len(rate.T) != n {
		t.Fatalf("%d / %d / %d samples, want %d (three folds)", n, len(delta.T), len(rate.T), want)
	}
	sumDelta, sentBits := 0.0, 0.0
	for i := 0; i < n; i++ {
		if level.T[i] != units.Time(i)*step {
			t.Fatalf("T[%d] = %v, off the %v grid", i, level.T[i], step)
		}
		if level.V[i] != level.T[i].Micros() {
			t.Fatalf("level sample at %v holds the reading of %v us", level.T[i], level.V[i])
		}
		sumDelta += delta.V[i]
		if i > 0 {
			sentBits += rate.V[i] * 1e9 * (rate.T[i] - rate.T[i-1]).Seconds()
		}
	}
	if level.T[n-1] != horizon {
		t.Errorf("last sample at %v, want the horizon %v", level.T[n-1], horizon)
	}
	if sumDelta != float64(grown()) {
		t.Errorf("delta samples sum to %v, the counter reads %d", sumDelta, grown())
	}
	if got, want := sentBits/8, float64(grown()); math.Abs(got-want) > 1 {
		t.Errorf("rate samples integrate to %.1f bytes, the counter reads %.0f", got, want)
	}
}

// TestRateProbeThroughDecimation: a counter growing at a constant rate
// reads that rate at every sample, also after the tracer has doubled its
// interval (twice here) — the rate is over the tracer's current interval,
// not the one it started with, and a folded pair averages.
func TestRateProbeThroughDecimation(t *testing.T) {
	sch := sim.New()
	tr := NewTracer(sch, units.Microsecond, 30*units.Millisecond)
	// 5000 B/us = 40 Gbps.
	sent := func() units.ByteSize { return units.ByteSize(sch.Now() / units.Microsecond * 5000) }
	s := tr.AddRate("rate", sent, 1)
	tr.Start()
	sch.Run()

	n := len(s.T)
	if got := s.T[n-1] - s.T[n-2]; got != 4*units.Microsecond {
		t.Fatalf("last samples %v apart, want 4us (two folds)", got)
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
