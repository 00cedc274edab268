package stats

import (
	"github.com/tcdnet/tcd/internal/sim"
	"github.com/tcdnet/tcd/internal/units"
)

// SeriesCap bounds the samples a Tracer retains per series. The tick that
// takes a series past it folds adjacent samples pairwise and doubles the
// sampling interval, so a run of any length covers its whole duration in
// at most SeriesCap samples. Every scenario's default and -full horizon
// stays below it (8001 samples for fig20 -full is the largest), so those
// runs are sampled at the interval they asked for.
const SeriesCap = 1 << 13

// kind is what a column's samples mean, which decides how two adjacent
// samples fold into one.
type kind uint8

const (
	level kind = iota // a reading at the sample time: the later one stands
	delta             // an increment since the previous sample: the pair sums
	rate              // a mean over the time since the previous sample: the pair averages
)

// Tracer samples registered probes at a fixed interval until a horizon,
// building one Series per probe. Figures 3, 4, 12, 13 and 20 are made of
// these series (queue length, sending rate, marking counters).
type Tracer struct {
	sched    *sim.Scheduler
	interval units.Time
	horizon  units.Time
	probes   []func() float64
	kinds    []kind
	series   []*Series
	started  bool
}

// NewTracer builds a tracer sampling every interval until horizon. It
// panics on a non-positive interval: the sampling loop reschedules itself
// `interval` after each tick, so interval <= 0 would re-fire at the same
// sim time forever and the run would never reach its horizon.
func NewTracer(s *sim.Scheduler, interval, horizon units.Time) *Tracer {
	if interval <= 0 {
		panic("stats: NewTracer interval must be positive (a zero interval reschedules at the same sim time forever)")
	}
	return &Tracer{sched: s, interval: interval, horizon: horizon}
}

// Add registers a level probe — a quantity read at the sample time, such
// as a queue length — and returns its series.
func (t *Tracer) Add(name string, probe func() float64) *Series {
	return t.add(name, level, probe)
}

// AddDelta registers a cumulative count and returns the series of its
// increments per sample ("marked packets per sample"). The increments of
// a series sum to the counter's growth since AddDelta, folded or not.
func (t *Tracer) AddDelta(name string, counter func() uint64) *Series {
	last := counter()
	return t.add(name, delta, func() float64 {
		cur := counter()
		d := cur - last
		last = cur
		return float64(d)
	})
}

// AddRate registers a cumulative byte counter and returns the series of
// its rate, in multiples of unit, over the time since the previous sample
// ("sending rate of port P2"). The first sample divides what the counter
// gained since AddRate by the nominal interval.
func (t *Tracer) AddRate(name string, counter func() units.ByteSize, unit units.Rate) *Series {
	last := counter()
	return t.add(name, rate, func() float64 {
		cur := counter()
		d := cur - last
		last = cur
		return float64(units.RateOf(d, t.interval)) / float64(unit)
	})
}

func (t *Tracer) add(name string, k kind, probe func() float64) *Series {
	s := &Series{Name: name}
	t.probes = append(t.probes, probe)
	t.kinds = append(t.kinds, k)
	t.series = append(t.series, s)
	return s
}

// fold halves every series in place and doubles the interval. Sample 0
// stays; after it each adjacent pair becomes one sample at the later
// time, so the grid stays on multiples of the new interval and still ends
// on the latest tick. It runs on SeriesCap+1 samples, an odd count, so the
// pairs come out even.
func (t *Tracer) fold() {
	for i, s := range t.series {
		n := 1
		for j := 2; j < len(s.T); j += 2 {
			v := s.V[j]
			switch t.kinds[i] {
			case delta:
				v += s.V[j-1]
			case rate:
				v = (v + s.V[j-1]) / 2
			}
			s.T[n], s.V[n] = s.T[j], v
			n++
		}
		s.T, s.V = s.T[:n], s.V[:n]
	}
	t.interval *= 2
}

// Start schedules the sampling loop (call after registering probes).
func (t *Tracer) Start() {
	if t.started {
		return
	}
	t.started = true
	// Size every column once: the samples the run will reach, or the one
	// past SeriesCap that triggers a fold.
	n := 1
	if now := t.sched.Now(); t.horizon > now {
		n += int((t.horizon - now) / t.interval)
	}
	if n > SeriesCap+1 {
		n = SeriesCap + 1
	}
	for _, s := range t.series {
		s.T = make([]units.Time, 0, n)
		s.V = make([]float64, 0, n)
	}
	var tick func()
	tick = func() {
		now := t.sched.Now()
		for i, p := range t.probes {
			t.series[i].T = append(t.series[i].T, now)
			t.series[i].V = append(t.series[i].V, p())
		}
		if len(t.series) > 0 && len(t.series[0].T) > SeriesCap {
			t.fold()
		}
		if now+t.interval <= t.horizon {
			t.sched.After(t.interval, tick)
		}
	}
	t.sched.At(t.sched.Now(), tick)
}

// Series returns all collected series in registration order.
func (t *Tracer) Series() []*Series { return t.series }
