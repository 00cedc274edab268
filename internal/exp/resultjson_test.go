package exp

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/tcdnet/tcd/internal/obs"
	"github.com/tcdnet/tcd/internal/stats"
	"github.com/tcdnet/tcd/internal/units"
)

// referenceWriteJSON is the export as encoding/json writes it by
// reflection: the implementation WriteJSON had before the appender, kept
// as the definition of the bytes the appender must produce.
func referenceWriteJSON(w io.Writer, r *Result) error {
	type jsonSeries struct {
		TimeUs []float64 `json:"time_us"`
		Values []float64 `json:"values"`
	}
	series := make(map[string]jsonSeries, len(r.Series))
	for name, s := range r.Series {
		js := jsonSeries{TimeUs: make([]float64, len(s.T)), Values: s.V}
		for i, t := range s.T {
			js.TimeUs[i] = t.Micros()
		}
		series[name] = js
	}
	out := struct {
		Name    string                `json:"name"`
		Scalars map[string]float64    `json:"scalars"`
		Tables  []string              `json:"tables,omitempty"`
		Notes   []string              `json:"notes,omitempty"`
		Hists   map[string]*obs.Hist  `json:"hists,omitempty"`
		Series  map[string]jsonSeries `json:"series"`
	}{r.Name, r.Scalars, r.Tables, r.Notes, r.Hists, series}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&out)
}

// referenceWriteResultsJSON is WriteResultsJSON over referenceWriteJSON.
func referenceWriteResultsJSON(w io.Writer, results []*Result) error {
	if len(results) == 1 {
		return referenceWriteJSON(w, results[0])
	}
	io.WriteString(w, "[\n")
	for i, r := range results {
		if i > 0 {
			io.WriteString(w, ",\n")
		}
		if err := referenceWriteJSON(w, r); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}

// Bits of FuzzResultJSON's shape argument.
const (
	shapeNilScalars = 1 << iota
	shapeEmptyScalars
	shapeNoSeries
	shapeNilV
	shapeEmptyV
	shapeEmptyT
	shapeUnequalT
	shapeHead
)

// fuzzResult builds a result from FuzzResultJSON's arguments: up to three
// series named after key, whose time columns are equal in content but
// never share a backing array (or differ in the last sample under
// shapeUnequalT), plus the optional parts of the head.
func fuzzResult(name, key string, scalar, v0, v1 float64, t0, t1 int64, shape uint8) *Result {
	r := NewResult(name)
	switch {
	case shape&shapeNilScalars != 0:
		r.Scalars = nil
	case shape&shapeEmptyScalars == 0:
		r.Scalars[key] = scalar
		r.Scalars["v1"] = v1
	}
	if shape&shapeHead != 0 {
		r.Tables = []string{key}
		r.Notes = []string{name, key}
		h := obs.NewHist()
		h.Observe(t0 & math.MaxInt32)
		h.Observe(t1 & math.MaxInt32)
		r.Hists = map[string]*obs.Hist{key: h}
	}
	if shape&shapeNoSeries != 0 {
		return r
	}
	times := []units.Time{units.Time(t0), units.Time(t1), units.Time(t0) + units.Time(t1)}
	values := []float64{v0, v1, scalar}
	switch {
	case shape&shapeEmptyT != 0:
		times = times[:0]
	case shape&shapeNilV != 0:
		values = nil
	case shape&shapeEmptyV != 0:
		values = values[:0]
	}
	r.Series[key] = &stats.Series{Name: key, T: slices.Clone(times), V: values}
	other := slices.Clone(times)
	if shape&shapeUnequalT != 0 && len(other) > 0 {
		other[len(other)-1]++
	}
	r.Series[key+"b"] = &stats.Series{Name: "b", T: other, V: []float64{v1}}
	r.Series[key+"c"] = &stats.Series{Name: "c", T: slices.Clone(other), V: []float64{}}
	return r
}

// FuzzResultJSON holds the appender to the reflective reference on random
// results: the same bytes, or an error of the same type — alone, nested
// under a prefix, and as one element of an array.
func FuzzResultJSON(f *testing.F) {
	negZero := math.Copysign(0, -1)
	f.Add("fig3-cee", "P0_queue", 1.5, 0.0, 10.0, int64(0), int64(10*units.Microsecond), uint8(0))
	f.Add("floats", "k", negZero, 5e-324, 1e-7, int64(1), int64(3), uint8(0))
	f.Add("floats", "k", 1e-6, 1e21, 1e20, int64(-7), int64(1)<<62, uint8(shapeUnequalT))
	f.Add("floats", "k", math.MaxFloat64, -1e-7, -1e21, int64(math.MaxInt64), int64(math.MinInt64), uint8(shapeHead))
	f.Add("nan scalar", "k", math.NaN(), 0.0, 0.0, int64(0), int64(0), uint8(0))
	f.Add("inf scalar", "k", math.Inf(1), 0.0, 0.0, int64(0), int64(0), uint8(shapeNoSeries))
	f.Add("nan value", "k", 0.0, math.NaN(), 0.0, int64(0), int64(0), uint8(0))
	f.Add("inf value", "k", 0.0, 1.0, math.Inf(-1), int64(0), int64(0), uint8(shapeHead))
	f.Add("nil scalars", "k", 0.0, 0.0, 0.0, int64(0), int64(5), uint8(shapeNilScalars))
	f.Add("empty scalars", "k", 0.0, 0.0, 0.0, int64(0), int64(5), uint8(shapeEmptyScalars|shapeNoSeries))
	f.Add("nil v", "k", 0.0, 0.0, 0.0, int64(0), int64(5), uint8(shapeNilV))
	f.Add("empty v", "k", 0.0, 0.0, 0.0, int64(0), int64(5), uint8(shapeEmptyV))
	f.Add("empty t", "k", 0.0, 0.0, 0.0, int64(0), int64(5), uint8(shapeEmptyT))
	f.Add("unequal t", "k", 0.0, 0.0, 0.0, int64(2), int64(5), uint8(shapeUnequalT|shapeHead))
	f.Add("html", "<P0>&", 0.0, 0.0, 0.0, int64(0), int64(5), uint8(shapeHead))
	f.Add("quote", `a"b\c`, 0.0, 0.0, 0.0, int64(0), int64(5), uint8(0))
	f.Add("separators", "a\u2028b\u2029c\u00e9\U0001F600", 0.0, 0.0, 0.0, int64(0), int64(5), uint8(0))
	f.Add("control", "\x00\x01\b\f\n\r\t\x1f\x7f", 0.0, 0.0, 0.0, int64(0), int64(5), uint8(shapeHead))
	f.Add("invalid utf-8 \xff", "a\xffb\xc3(\xe2\x80", 0.0, 0.0, 0.0, int64(0), int64(5), uint8(0))
	f.Add("", "", 0.0, 0.0, 0.0, int64(0), int64(0), uint8(0))

	f.Fuzz(func(t *testing.T, name, key string, scalar, v0, v1 float64, t0, t1 int64, shape uint8) {
		// same reports whether both encoders succeeded, after requiring
		// the same bytes of them or an error of the same type.
		same := func(what string, gotErr, wantErr error, got, want []byte) bool {
			t.Helper()
			if reflect.TypeOf(gotErr) != reflect.TypeOf(wantErr) {
				t.Fatalf("%s: error = %T (%v), reference %T (%v)", what, gotErr, gotErr, wantErr, wantErr)
			}
			if wantErr == nil && !bytes.Equal(got, want) {
				t.Fatalf("%s: differs from the reference: %s", what, firstDiff(got, want))
			}
			return wantErr == nil
		}
		r := fuzzResult(name, key, scalar, v0, v1, t0, t1, shape)
		var got, want bytes.Buffer
		gotErr, wantErr := r.WriteJSON(&got), referenceWriteJSON(&want, r)
		if !same("result", gotErr, wantErr, got.Bytes(), want.Bytes()) {
			return
		}
		if !json.Valid(got.Bytes()) {
			t.Fatalf("not valid JSON:\n%s", got.Bytes())
		}

		// In an array: one encoder carries its rendered time column from
		// one result to the next.
		pair := []*Result{r, fuzzResult(key, name, v0, v1, scalar, t0, t1, shape^shapeUnequalT)}
		got.Reset()
		want.Reset()
		gotErr, wantErr = WriteResultsJSON(&got, pair), referenceWriteResultsJSON(&want, pair)
		same("array", gotErr, wantErr, got.Bytes(), want.Bytes())
	})
}

// TestWriteJSONAllocs: an encode allocates a fixed number of objects —
// the head, the key list, the scratch buffer, one rendered time column —
// however long the series are. Under -race the pooled scratch is not
// reliably reused, so the count is only held in a plain build.
func TestWriteJSONAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items")
	}
	allocs := func(samples int) float64 {
		r := NewResult("allocs")
		r.Scalars["x"] = 1
		for i := 0; i < 16; i++ {
			s := &stats.Series{Name: "s"}
			for j := 0; j < samples; j++ {
				s.T = append(s.T, units.Time(j)*10*units.Microsecond)
				s.V = append(s.V, float64(i*j)/8)
			}
			r.Series[string(rune('a'+i))] = s
		}
		var buf bytes.Buffer
		buf.Grow(64 * 16 * samples)
		return testing.AllocsPerRun(5, func() {
			buf.Reset()
			if err := r.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(500), allocs(5000)
	if small != large {
		t.Errorf("WriteJSON allocates %v objects for 16 x 500 samples and %v for 16 x 5000", small, large)
	}
}
