// Package stats provides the measurement layer: percentiles, FCT-slowdown
// summaries grouped by flow size, and time-series tracing of port queues,
// throughput and marking — the raw material of every figure in the paper.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/tcdnet/tcd/internal/units"
)

// Percentile returns the p-quantile (0..1) of values using nearest-rank
// on a sorted copy. It returns 0 for empty input.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return sortedPercentile(s, p)
}

func sortedPercentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// Dist is a batch of observations with cached order.
type Dist struct {
	values []float64
	sorted bool
}

// Add appends one observation.
func (d *Dist) Add(v float64) {
	d.values = append(d.values, v)
	d.sorted = false
}

// N reports the observation count.
func (d *Dist) N() int { return len(d.values) }

// P returns the p-quantile.
func (d *Dist) P(p float64) float64 {
	if !d.sorted {
		sort.Float64s(d.values)
		d.sorted = true
	}
	return sortedPercentile(d.values, p)
}

// Mean returns the mean.
func (d *Dist) Mean() float64 { return Mean(d.values) }

// SizeBin is one row of an FCT-breakdown table.
type SizeBin struct {
	// Lo and Hi bound the flow sizes in this bin: Lo < size <= Hi.
	Lo, Hi units.ByteSize
	Dist   Dist
}

// Label renders the bin bounds, e.g. "(10KB, 100KB]".
func (b *SizeBin) Label() string {
	if b.Hi == units.ByteSize(math.MaxInt64) {
		return fmt.Sprintf(">%v", b.Lo)
	}
	return fmt.Sprintf("(%v, %v]", b.Lo, b.Hi)
}

// Breakdown groups observations (FCT or slowdown) by flow size.
type Breakdown struct {
	Bins []SizeBin
}

// NewBreakdown builds bins from ascending upper edges; a final unbounded
// bin is appended automatically.
func NewBreakdown(edges ...units.ByteSize) *Breakdown {
	b := &Breakdown{}
	lo := units.ByteSize(0)
	for _, e := range edges {
		b.Bins = append(b.Bins, SizeBin{Lo: lo, Hi: e})
		lo = e
	}
	b.Bins = append(b.Bins, SizeBin{Lo: lo, Hi: units.ByteSize(math.MaxInt64)})
	return b
}

// Add records one flow observation.
func (b *Breakdown) Add(size units.ByteSize, v float64) {
	for i := range b.Bins {
		if size > b.Bins[i].Lo && size <= b.Bins[i].Hi {
			b.Bins[i].Dist.Add(v)
			return
		}
	}
}

// Table renders rows of "<bin> n p50 p95 p99 mean" for the experiment
// harness output.
func (b *Breakdown) Table(title string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n%-18s %8s %9s %9s %9s %9s\n", title, "size", "n", "p50", "p95", "p99", "mean")
	for i := range b.Bins {
		bin := &b.Bins[i]
		if bin.Dist.N() == 0 {
			continue
		}
		fmt.Fprintf(&sb, "%-18s %8d %9.2f %9.2f %9.2f %9.2f\n",
			bin.Label(), bin.Dist.N(), bin.Dist.P(0.5), bin.Dist.P(0.95), bin.Dist.P(0.99), bin.Dist.Mean())
	}
	return sb.String()
}

// Series is one sampled time series (queue length, rate, marking count).
type Series struct {
	Name string
	T    []units.Time
	V    []float64
}

// Max returns the maximum value (0 for empty).
func (s *Series) Max() float64 {
	m := 0.0
	for _, v := range s.V {
		if v > m {
			m = v
		}
	}
	return m
}

// MeanOver averages samples with t in [lo, hi].
func (s *Series) MeanOver(lo, hi units.Time) float64 {
	sum, n := 0.0, 0
	for i, t := range s.T {
		if t >= lo && t <= hi {
			sum += s.V[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Render prints "t_us value" lines, for gnuplot-style consumption.
func (s *Series) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s\n", s.Name)
	for i := range s.T {
		fmt.Fprintf(&sb, "%.3f %.4g\n", s.T[i].Micros(), s.V[i])
	}
	return sb.String()
}
