package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"strconv"
)

// Histogram bucket layout: values below histSubCount land in unit-width
// buckets; above that, each power-of-two range is split into histSubCount
// linear sub-buckets, HdrHistogram-style. The relative quantile error is
// therefore bounded by 1/histSubCount (~3%), and the footprint is a fixed
// array of numHistBuckets counters (~15 KB) regardless of how many values
// are observed — the property the hyperscale runs need.
const (
	histSubBits  = 5
	histSubCount = 1 << histSubBits
	// histBlocks: one linear block for v < histSubCount plus one block per
	// power-of-two range with the most significant bit in [subBits, 62].
	histBlocks     = 62 - histSubBits + 2
	numHistBuckets = histBlocks * histSubCount
)

// Hist is a log-bucketed streaming histogram for non-negative int64
// observations (durations in ps, sizes in bytes). It is fixed-size,
// deterministic (same observations in any order produce the same state)
// and mergeable: Merge is associative and commutative, so per-seed
// histograms folded across a parallel sweep equal the serial fold.
//
// The zero value is NOT ready; use NewHist. Observe never allocates.
type Hist struct {
	counts [numHistBuckets]int64
	n      int64
	sum    int64
	min    int64
	max    int64
}

// NewHist builds an empty histogram.
func NewHist() *Hist {
	return &Hist{min: math.MaxInt64, max: -1}
}

// histIndex maps a value to its bucket. Negative values clamp to 0.
func histIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < histSubCount {
		return int(v)
	}
	msb := bits.Len64(uint64(v)) - 1
	sub := int((uint64(v) >> uint(msb-histSubBits)) & (histSubCount - 1))
	return (msb-histSubBits+1)*histSubCount + sub
}

// histBucketMax returns the largest value mapping to bucket i (used as
// the reported quantile value, so quantiles never under-report).
func histBucketMax(i int) int64 {
	if i < histSubCount {
		return int64(i)
	}
	block := i >> histSubBits
	sub := int64(i & (histSubCount - 1))
	msb := block + histSubBits - 1
	width := int64(1) << uint(msb-histSubBits)
	return int64(1)<<uint(msb) + sub*width + width - 1
}

// Observe records one value. It never allocates.
func (h *Hist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histIndex(v)]++
	h.n++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count reports the number of observations.
func (h *Hist) Count() int64 { return h.n }

// Min reports the smallest observation (0 when empty).
func (h *Hist) Min() int64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max reports the largest observation (0 when empty).
func (h *Hist) Max() int64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Mean reports the arithmetic mean (0 when empty).
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns the p-quantile (0..1) by nearest rank over the bucket
// counts; the reported value is the bucket's upper bound clamped to the
// exact observed Max, so the relative error is at most 1/32.
func (h *Hist) Quantile(p float64) int64 {
	if h.n == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	rank := int64(math.Ceil(p * float64(h.n)))
	if rank >= h.n {
		return h.max
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i]
		if cum >= rank {
			v := histBucketMax(i)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

// Merge folds o into h. Merging is associative and commutative: bucket
// counts and sums add, min/max fold, so any merge tree over the same set
// of histograms yields the same result.
func (h *Hist) Merge(o *Hist) {
	if o == nil || o.n == 0 {
		return
	}
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.n += o.n
	h.sum += o.sum
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
}

// MarshalJSON encodes the histogram sparsely and deterministically:
// summary fields first (including derived p50/p90/p99 for human readers),
// then the non-empty buckets as [index, count] pairs in ascending index
// order. The encoding is hand-rolled so identical histograms produce
// byte-identical output.
func (h *Hist) MarshalJSON() ([]byte, error) {
	var b []byte
	b = append(b, `{"n":`...)
	b = strconv.AppendInt(b, h.n, 10)
	b = append(b, `,"sum":`...)
	b = strconv.AppendInt(b, h.sum, 10)
	b = append(b, `,"min":`...)
	b = strconv.AppendInt(b, h.Min(), 10)
	b = append(b, `,"max":`...)
	b = strconv.AppendInt(b, h.Max(), 10)
	b = append(b, `,"p50":`...)
	b = strconv.AppendInt(b, h.Quantile(0.50), 10)
	b = append(b, `,"p90":`...)
	b = strconv.AppendInt(b, h.Quantile(0.90), 10)
	b = append(b, `,"p99":`...)
	b = strconv.AppendInt(b, h.Quantile(0.99), 10)
	b = append(b, `,"buckets":[`...)
	first := true
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, c, 10)
		b = append(b, ']')
	}
	b = append(b, "]}"...)
	return b, nil
}

// UnmarshalJSON restores a histogram from its MarshalJSON form. The
// derived quantile fields are ignored (they are recomputed from buckets).
func (h *Hist) UnmarshalJSON(data []byte) error {
	var raw struct {
		N       int64      `json:"n"`
		Sum     int64      `json:"sum"`
		Min     int64      `json:"min"`
		Max     int64      `json:"max"`
		Buckets [][2]int64 `json:"buckets"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&raw); err != nil {
		return err
	}
	*h = Hist{n: raw.N, sum: raw.Sum, min: raw.Min, max: raw.Max}
	if raw.N == 0 {
		h.min, h.max = math.MaxInt64, -1
	}
	for _, bc := range raw.Buckets {
		if bc[0] < 0 || bc[0] >= numHistBuckets {
			return fmt.Errorf("obs: histogram bucket index %d out of range", bc[0])
		}
		h.counts[bc[0]] = bc[1]
	}
	return nil
}
