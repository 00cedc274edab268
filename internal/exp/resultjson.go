package exp

import (
	"encoding/json"
	"io"
	"math"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"unicode/utf8"

	"github.com/tcdnet/tcd/internal/obs"
	"github.com/tcdnet/tcd/internal/units"
)

// The result export is indented JSON in the layout encoding/json's
// Encoder gives with SetIndent("", "  "): every golden, scenarios.sha256
// and the benchmark's result CRCs are bytes of it. The series — all but a
// few hundred bytes of a figure's result — are written here, straight to
// their final indentation; the small irregular head (name, scalars,
// tables, notes, hists) is one encoding/json call. referenceWriteJSON in
// the test tree is the reflective encoder this one is held to.

// WriteJSON serializes the full result — scalars, tables, notes, hists
// and every series — as indented JSON with sorted map keys, so same-seed
// runs produce byte-identical output. On error w may hold a prefix of the
// document.
func (r *Result) WriteJSON(w io.Writer) error {
	e := newResultEncoder(w)
	e.result(r)
	e.str("\n")
	return e.flush()
}

// WriteResultsJSON is the one result export every front-end shares
// (`tcdsim -json`, the daemon's response body): a single object for one
// result, a JSON array otherwise.
func WriteResultsJSON(w io.Writer, results []*Result) error {
	e := newResultEncoder(w)
	if len(results) == 1 {
		e.result(results[0])
	} else {
		e.str("[\n")
		for i, r := range results {
			if i > 0 {
				e.str(",\n")
			}
			e.result(r)
			e.str("\n")
		}
		e.str("]")
	}
	e.str("\n")
	return e.flush()
}

// scratchBytes bounds what an encode buffers before handing bytes to its
// writer, whatever the size of the series.
const scratchBytes = 32 << 10

// resultEncoder appends results to a bounded scratch buffer and flushes
// it to w as it fills. The first error sticks: later output is dropped
// and flush reports it.
type resultEncoder struct {
	w   io.Writer
	buf []byte
	err error

	// lastT is the time column most recently rendered and col its bytes,
	// brackets included. The series of one tracer share their sample
	// times, so a column equal to lastT is copied, not formatted again.
	// Equality is by content: nothing here relies on two series sharing a
	// backing array.
	lastT []units.Time
	col   []byte
}

// entryLine, fieldLine and elemLine start the lines at the three depths a
// series spans.
const (
	entryLine = "\n    "
	fieldLine = entryLine + "  "
	elemLine  = fieldLine + "  "
)

func newResultEncoder(w io.Writer) *resultEncoder {
	return &resultEncoder{w: w, buf: make([]byte, 0, scratchBytes)}
}

// fail records err unless an earlier error already stuck.
func (e *resultEncoder) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// flush hands the scratch buffer to w and reports the sticky error.
func (e *resultEncoder) flush() error {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
	return e.err
}

// room flushes when fewer than n bytes of scratch remain.
func (e *resultEncoder) room(n int) {
	if cap(e.buf)-len(e.buf) < n {
		e.flush() //nolint:errcheck // sticky, reported by the final flush
	}
}

// str appends a short piece of the document's frame.
func (e *resultEncoder) str(s string) {
	e.room(len(s))
	e.buf = append(e.buf, s...)
}

// write appends p through the scratch buffer, or past it when p is
// larger than the buffer.
func (e *resultEncoder) write(p []byte) {
	e.room(len(p))
	if len(p) <= cap(e.buf) {
		e.buf = append(e.buf, p...)
	} else if e.err == nil {
		_, e.err = e.w.Write(p)
	}
}

// result appends r, without a trailing newline.
func (e *resultEncoder) result(r *Result) {
	head, err := json.MarshalIndent(struct {
		Name    string               `json:"name"`
		Scalars map[string]float64   `json:"scalars"`
		Tables  []string             `json:"tables,omitempty"`
		Notes   []string             `json:"notes,omitempty"`
		Hists   map[string]*obs.Hist `json:"hists,omitempty"`
	}{r.Name, r.Scalars, r.Tables, r.Notes, r.Hists}, "", "  ")
	if err != nil {
		e.fail(err)
		return
	}
	// The head closes with "\n}"; "series" goes in before that.
	e.write(head[:len(head)-2])
	e.str(",\n  \"series\": {")

	names := make([]string, 0, len(r.Series))
	for name := range r.Series {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		if e.err != nil {
			return
		}
		s := r.Series[name]
		if i > 0 {
			e.str(",")
		}
		e.str(entryLine)
		e.room(6*len(name) + 2)
		e.buf = appendJSONString(e.buf, name)
		e.str(": {")
		e.str(fieldLine)
		e.str(`"time_us": `)
		e.times(s.T)
		e.str(",")
		e.str(fieldLine)
		e.str(`"values": `)
		if s.V == nil {
			e.str("null")
		} else {
			e.values(s.V)
		}
		e.str(entryLine)
		e.str("}")
	}
	if len(names) > 0 {
		e.str("\n  ")
	}
	e.str("}\n}")
}

// floatBytes is more than any float64 takes in the 'f' or 'e' form the
// export uses (at most 17 significant digits, 21 integer digits or 6
// leading zeros, a sign, a point and an exponent).
const floatBytes = 32

// values appends v as an indented array.
func (e *resultEncoder) values(v []float64) {
	e.str("[")
	for i, f := range v {
		e.room(1 + len(elemLine) + floatBytes)
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, elemLine...)
		e.buf = e.float(e.buf, f)
	}
	if len(v) > 0 {
		e.str(fieldLine)
	}
	e.str("]")
}

// times appends t in microseconds as values does, rendering a column
// only when it differs from the one before it.
func (e *resultEncoder) times(t []units.Time) {
	if e.col == nil || !slices.Equal(t, e.lastT) {
		e.lastT = t
		// Sized for the common column (sample times a whole number of
		// microseconds below 100 s), so rendering does not regrow it.
		e.col = slices.Grow(e.col[:0], len(t)*(1+len(elemLine)+8)+len(fieldLine)+2)
		e.col = append(e.col, '[')
		for i, at := range t {
			if i > 0 {
				e.col = append(e.col, ',')
			}
			e.col = append(e.col, elemLine...)
			e.col = e.float(e.col, at.Micros())
		}
		if len(t) > 0 {
			e.col = append(e.col, fieldLine...)
		}
		e.col = append(e.col, ']')
	}
	e.write(e.col)
}

// float appends f by encoding/json's rule: the shortest 'f' form that
// round-trips, or 'e' below 1e-6 and from 1e21 with a two-digit negative
// exponent's leading zero dropped. NaN and the infinities have no JSON
// form and fail as they do there.
func (e *resultEncoder) float(b []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.fail(&json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)})
		return b
	}
	abs := math.Abs(f)
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64)
}

// appendJSONString appends s quoted and escaped as encoding/json does by
// default: `"`, `\` and control bytes, the HTML-sensitive <, > and &,
// U+2028/U+2029, and U+FFFD for invalid UTF-8.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				b = append(append(b, s[start:i]...), `\ufffd`...)
				start = i + size
			case r == '\u2028' || r == '\u2029':
				b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
				start = i + size
			}
			i += size
			continue
		}
		if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		b = append(b, s[start:i]...)
		switch c {
		case '"', '\\':
			b = append(b, '\\', c)
		case '\b':
			b = append(b, '\\', 'b')
		case '\f':
			b = append(b, '\\', 'f')
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default:
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
		}
		i++
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
