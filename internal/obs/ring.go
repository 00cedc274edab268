package obs

import "strconv"

// Ring is a bounded event buffer: recording past capacity overwrites the
// oldest event. The bound keeps long runs from accumulating unbounded
// trace memory while preserving the most recent window, which is where a
// deadlock or pause storm under investigation usually is.
type Ring struct {
	buf  []Event
	head int // index of the oldest event once the buffer wrapped
}

// DefaultRingCap is the Ring capacity used when none is given (~64 MB of
// events at the current Event size).
const DefaultRingCap = 1 << 20

// NewRing builds a ring holding at most capacity events (DefaultRingCap
// if capacity <= 0).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingCap
	}
	return &Ring{buf: make([]Event, 0, capacity)}
}

// Record implements Recorder.
func (r *Ring) Record(e Event) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.head] = e
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
}

// Events returns the buffered events in recording order (oldest first).
func (r *Ring) Events() []Event {
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	out = append(out, r.buf[:r.head]...)
	return out
}

// appendJSONL renders one event as a JSON line. Port labels are
// simulator-generated (node names, brackets, arrows) and contain no
// characters that need JSON escaping.
func (e Event) appendJSONL(b []byte) []byte {
	b = append(b, `{"t":`...)
	b = strconv.AppendInt(b, int64(e.At), 10)
	b = append(b, `,"kind":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, '"')
	if e.Port != "" {
		b = append(b, `,"port":"`...)
		b = append(b, e.Port...)
		b = append(b, '"')
	}
	b = append(b, `,"prio":`...)
	b = strconv.AppendInt(b, int64(e.Prio), 10)
	if e.Flow >= 0 {
		b = append(b, `,"flow":`...)
		b = strconv.AppendInt(b, e.Flow, 10)
	}
	b = append(b, `,"val":`...)
	b = strconv.AppendInt(b, e.Val, 10)
	b = append(b, `,"aux":`...)
	b = strconv.AppendInt(b, e.Aux, 10)
	b = append(b, "}\n"...)
	return b
}
