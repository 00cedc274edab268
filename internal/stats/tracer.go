package stats

import (
	"github.com/tcdnet/tcd/internal/sim"
	"github.com/tcdnet/tcd/internal/units"
)

// Tracer samples registered probes at a fixed interval until a horizon,
// building one Series per probe. Figures 3, 4, 12, 13 and 20 are made of
// these series (queue length, sending rate, marking counters).
type Tracer struct {
	sched    *sim.Scheduler
	interval units.Time
	horizon  units.Time
	probes   []func() float64
	series   []*Series
	started  bool
	capN     int
	decims   int
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

// Add registers a probe and returns its series.
func (t *Tracer) Add(name string, probe func() float64) *Series {
	s := &Series{Name: name}
	t.probes = append(t.probes, probe)
	t.series = append(t.series, s)
	return s
}

// SetCap bounds retained samples per series (0 = unlimited, the
// default). When a tick fills a series to the cap, every series is
// decimated in place — every other sample dropped — and the sampling
// interval doubles, so an arbitrarily long run retains at most cap
// samples per series while still covering its whole duration. Call
// before Start.
func (t *Tracer) SetCap(n int) { t.capN = n }

// Decimations reports how many times the tracer halved its series.
func (t *Tracer) Decimations() int { return t.decims }

// Interval reports the current sampling interval. Read from a probe it is
// the time since the previous sample (the nominal interval on the first
// tick): decimation doubles it only after a tick's probes have run.
func (t *Tracer) Interval() units.Time { return t.interval }

// decimate halves every series in place (keeping even-index samples)
// and doubles the interval.
func (t *Tracer) decimate() {
	for _, s := range t.series {
		keep := (len(s.T) + 1) / 2
		for i := 0; i < keep; i++ {
			s.T[i] = s.T[2*i]
			s.V[i] = s.V[2*i]
		}
		s.T = s.T[:keep]
		s.V = s.V[:keep]
	}
	t.interval *= 2
	t.decims++
}

// Start schedules the sampling loop (call after registering probes).
func (t *Tracer) Start() {
	if t.started {
		return
	}
	t.started = true
	// Size every column once. Ticks run from now to the horizon, so an
	// uncapped tracer reserves exactly the samples the run will reach; a
	// capped one never holds more than the cap (the tick that fills it
	// decimates).
	n := 1
	if now := t.sched.Now(); t.horizon > now {
		n += int((t.horizon - now) / t.interval)
	}
	if t.capN > 0 && n > t.capN {
		n = t.capN
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
		if t.capN > 0 && len(t.series) > 0 && len(t.series[0].T) >= t.capN {
			t.decimate()
		}
		if now+t.interval <= t.horizon {
			t.sched.After(t.interval, tick)
		}
	}
	t.sched.At(t.sched.Now(), tick)
}

// Series returns all collected series in registration order.
func (t *Tracer) Series() []*Series { return t.series }

// RateProbe converts a cumulative byte counter into a rate (bits/s) over
// the sampling interval — used for the "sending rate of port P2" panels.
// interval is read at every sample (pass the sampling tracer's Interval):
// a capped tracer doubles its interval when it decimates, and a rate over
// the interval the probe was built with would double with it.
func RateProbe(counter func() units.ByteSize, interval func() units.Time) func() float64 {
	last := counter()
	return func() float64 {
		cur := counter()
		delta := cur - last
		last = cur
		return float64(units.RateOf(delta, interval()))
	}
}

// DeltaProbe converts a cumulative count into a per-interval increment —
// used for "marked packets per sample" panels.
func DeltaProbe(counter func() uint64) func() float64 {
	last := counter()
	return func() float64 {
		cur := counter()
		delta := cur - last
		last = cur
		return float64(delta)
	}
}
