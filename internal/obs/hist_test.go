package obs

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestHistIndexRoundTrip checks that every value maps to a bucket whose
// range actually contains it, across the full magnitude span.
func TestHistIndexRoundTrip(t *testing.T) {
	vals := []int64{0, 1, 31, 32, 33, 63, 64, 100, 1023, 1024, 1 << 20, 1<<40 + 12345, 1<<62 - 1}
	for _, v := range vals {
		i := histIndex(v)
		if i < 0 || i >= numHistBuckets {
			t.Fatalf("histIndex(%d) = %d out of range", v, i)
		}
		if hi := histBucketMax(i); v > hi {
			t.Errorf("value %d above its bucket's max %d (bucket %d)", v, hi, i)
		}
		if i > 0 {
			if lo := histBucketMax(i - 1); v <= lo {
				t.Errorf("value %d at or below previous bucket's max %d (bucket %d)", v, lo, i)
			}
		}
	}
}

// TestHistQuantileRelativeError draws lognormal-ish values and checks the
// reported quantiles against exact nearest-rank values: the bucket layout
// promises at most 1/histSubCount relative error.
func TestHistQuantileRelativeError(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	h := NewHist()
	var vals []int64
	for i := 0; i < 20000; i++ {
		v := int64(1) << uint(r.Intn(36))
		v += r.Int63n(v + 1)
		h.Observe(v)
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, p := range []float64{0.01, 0.1, 0.5, 0.9, 0.99, 0.999} {
		// Same nearest-rank convention as Hist.Quantile: the ceil(p*n)-th
		// smallest value.
		rank := int(math.Ceil(p * float64(len(vals))))
		if rank > len(vals) {
			rank = len(vals)
		}
		exact := vals[rank-1]
		got := h.Quantile(p)
		if got < exact {
			// The reported value is a bucket upper bound: it must never
			// under-report the exact quantile.
			t.Errorf("p=%v: got %d < exact %d (quantile under-reports)", p, got, exact)
		}
		relErr := float64(got-exact) / float64(exact)
		if relErr > 1.0/histSubCount+1e-9 {
			t.Errorf("p=%v: got %d, exact %d, rel err %.4f > 1/%d", p, got, exact, relErr, histSubCount)
		}
	}
	if h.Quantile(0) != h.Min() || h.Quantile(1) != h.Max() {
		t.Errorf("quantile endpoints: p0=%d min=%d, p1=%d max=%d", h.Quantile(0), h.Min(), h.Quantile(1), h.Max())
	}
}

// TestHistMergeAssociativeCommutative is the property the parallel sweep
// fold relies on: any merge tree over the same histograms is equal.
func TestHistMergeAssociativeCommutative(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	parts := make([]*Hist, 4)
	for i := range parts {
		parts[i] = NewHist()
		for j := 0; j < 500+100*i; j++ {
			parts[i].Observe(r.Int63n(1 << uint(10+3*i)))
		}
	}
	// ((a+b)+c)+d
	left := NewHist()
	for _, p := range parts {
		left.Merge(p)
	}
	// a+(b+(c+d)) built right-to-left
	right := NewHist()
	for i := len(parts) - 1; i >= 0; i-- {
		right.Merge(parts[i])
	}
	if *left != *right {
		t.Fatal("merge is not order-independent")
	}
	// (d+b)+(c+a): arbitrary shuffle + tree shape
	x, y := NewHist(), NewHist()
	x.Merge(parts[3])
	x.Merge(parts[1])
	y.Merge(parts[2])
	y.Merge(parts[0])
	x.Merge(y)
	if *left != *x {
		t.Fatal("merge is not associative across tree shapes")
	}
	// Merging all parts must equal observing the union serially.
	serial := NewHist()
	r2 := rand.New(rand.NewSource(7))
	for i := range parts {
		for j := 0; j < 500+100*i; j++ {
			serial.Observe(r2.Int63n(1 << uint(10+3*i)))
		}
	}
	if *left != *serial {
		t.Fatal("merged parts differ from the serial fold")
	}
}

func TestHistMergeEmptyAndNil(t *testing.T) {
	h := NewHist()
	h.Observe(10)
	h.Merge(nil)
	h.Merge(NewHist())
	if h.Count() != 1 || h.Min() != 10 || h.Max() != 10 {
		t.Fatalf("merge with empty changed state: n=%d min=%d max=%d", h.Count(), h.Min(), h.Max())
	}
	e := NewHist()
	e.Merge(h)
	if *e != *h {
		t.Fatal("empty.Merge(h) != h")
	}
}

// TestHistJSONDeterministicRoundTrip: identical histograms marshal to
// identical bytes, and unmarshalling restores an equal histogram.
func TestHistJSONDeterministicRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	h := NewHist()
	for i := 0; i < 3000; i++ {
		h.Observe(r.Int63n(1 << 30))
	}
	b1, err := h.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	clone := *h
	b2, _ := clone.MarshalJSON()
	if !bytes.Equal(b1, b2) {
		t.Fatal("identical histograms marshalled to different bytes")
	}
	var back Hist
	if err := back.UnmarshalJSON(b1); err != nil {
		t.Fatal(err)
	}
	if back != *h {
		t.Fatal("unmarshalled histogram differs from the original")
	}
	// Empty histogram round-trips too (min/max sentinels restored).
	var emptyBack Hist
	eb, _ := NewHist().MarshalJSON()
	if err := emptyBack.UnmarshalJSON(eb); err != nil {
		t.Fatal(err)
	}
	if emptyBack != *NewHist() {
		t.Fatal("empty histogram did not round-trip")
	}
}

func TestHistUnmarshalRejectsBadBucket(t *testing.T) {
	var h Hist
	if err := h.UnmarshalJSON([]byte(`{"n":1,"sum":1,"min":1,"max":1,"buckets":[[99999,1]]}`)); err == nil {
		t.Fatal("out-of-range bucket index accepted")
	}
}

// TestHistObserveZeroAlloc pins the hot-path guarantee the hyperscale
// runs rely on.
func TestHistObserveZeroAlloc(t *testing.T) {
	h := NewHist()
	v := int64(12345)
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(v)
		v += 917
	}); n != 0 {
		t.Fatalf("Observe allocates %.1f per call, want 0", n)
	}
}

func BenchmarkHistObserve(b *testing.B) {
	h := NewHist()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i) * 1311)
	}
}
