package obs

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"github.com/tcdnet/tcd/internal/sim"
	"github.com/tcdnet/tcd/internal/units"
)

func TestRingFillsInOrder(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 3; i++ {
		r.Record(Event{At: units.Time(i), Kind: KindMarkCE, Flow: -1})
	}
	if len(r.buf) != 3 {
		t.Fatalf("len=%d, want 3", len(r.buf))
	}
	for i, e := range r.Events() {
		if e.At != units.Time(i) {
			t.Fatalf("event %d at %v, want %v", i, e.At, units.Time(i))
		}
	}
}

func TestRingOverflowDropsOldest(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Record(Event{At: units.Time(i), Kind: KindMarkUE, Flow: -1})
	}
	if len(r.buf) != 4 {
		t.Fatalf("len=%d, want 4", len(r.buf))
	}
	evs := r.Events()
	for i, want := range []units.Time{6, 7, 8, 9} {
		if evs[i].At != want {
			t.Fatalf("event %d at %v, want %v (oldest must be dropped first)", i, evs[i].At, want)
		}
	}
}

func TestRingDefaultCapacity(t *testing.T) {
	if got := cap(NewRing(0).buf); got != DefaultRingCap {
		t.Fatalf("default cap %d, want %d", got, DefaultRingCap)
	}
}

func TestJSONLDeterministicAndWellFormed(t *testing.T) {
	events := []Event{
		{At: 100, Kind: KindCtrlPause, Port: "T0[1]->L0", Prio: 0, Flow: -1},
		{At: 250, Kind: KindMarkCE, Port: "L0[2]->T2", Prio: 1, Flow: 7, Val: 210_000},
		{At: 300, Kind: KindRateChange, Flow: 3, Val: 20_000_000_000, Aux: 40_000_000_000},
		{At: 400, Kind: KindTCDState, Port: "L0[2]->T2", Flow: -1, Val: 2, Aux: 0},
	}
	var a, b bytes.Buffer
	if err := WriteJSONL(&a, events); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical event sequences must encode byte-identically")
	}
	lines := strings.Split(strings.TrimRight(a.String(), "\n"), "\n")
	if len(lines) != len(events) {
		t.Fatalf("%d lines, want %d", len(lines), len(events))
	}
	if want := `{"t":100,"kind":"ctrl.pause","port":"T0[1]->L0","prio":0,"val":0,"aux":0}`; lines[0] != want {
		t.Fatalf("line 0:\n got %s\nwant %s", lines[0], want)
	}
	if want := `{"t":300,"kind":"cc.rate","prio":0,"flow":3,"val":20000000000,"aux":40000000000}`; lines[2] != want {
		t.Fatalf("line 2:\n got %s\nwant %s", lines[2], want)
	}
}

func TestKindStringsCovered(t *testing.T) {
	for k := KindNone; k < numKinds; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Fatal("out-of-range kind must render as unknown")
	}
}

func TestRegistryCanonicalKeysAndJSON(t *testing.T) {
	reg := NewRegistry()
	// Label order must not matter: both calls hit the same cell.
	reg.Counter("tx_bytes", "port", "P2", "prio", "0").Add(10)
	reg.Counter("tx_bytes", "prio", "0", "port", "P2").Add(5)
	reg.Gauge("queue_bytes", "port", "P3").Set(1.5)
	if got := reg.Counter("tx_bytes", "port", "P2", "prio", "0").v; got != 15 {
		t.Fatalf("counter=%d, want 15 (label order must canonicalize)", got)
	}
	if n := len(reg.counters) + len(reg.gauges); n != 2 {
		t.Fatalf("len=%d, want 2", n)
	}
	var a, b bytes.Buffer
	if err := reg.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("registry export must be deterministic")
	}
	if !strings.Contains(a.String(), `"tx_bytes{port=P2,prio=0}": 15`) {
		t.Fatalf("export missing canonical counter key:\n%s", a.String())
	}
}

func TestProgressTicksOnSimClock(t *testing.T) {
	s := sim.New()
	var out bytes.Buffer
	AttachProgress(s, 10*units.Microsecond, &out)
	// Some work for the ticker to interleave with.
	for i := 1; i <= 5; i++ {
		s.At(units.Time(i)*8*units.Microsecond, func() {})
	}
	s.RunUntil(40 * units.Microsecond)
	ticks := strings.Count(out.String(), "progress: sim=")
	if ticks != 4 {
		t.Fatalf("%d progress lines, want 4 (every 10us until 40us):\n%s", ticks, out.String())
	}
	if !strings.Contains(out.String(), "pending=") {
		t.Fatal("progress line must report heap depth")
	}
}

// sprintfTime is units.Time.String as it was written with fmt.
func sprintfTime(t units.Time) string {
	neg := ""
	if t < 0 {
		neg, t = "-", -t
	}
	switch {
	case t >= units.Second:
		return fmt.Sprintf("%s%.6gs", neg, float64(t)/float64(units.Second))
	case t >= units.Millisecond:
		return fmt.Sprintf("%s%.6gms", neg, float64(t)/float64(units.Millisecond))
	case t >= units.Microsecond:
		return fmt.Sprintf("%s%.6gus", neg, float64(t)/float64(units.Microsecond))
	case t >= units.Nanosecond:
		return fmt.Sprintf("%s%.6gns", neg, float64(t)/float64(units.Nanosecond))
	}
	return fmt.Sprintf("%s%dps", neg, int64(t))
}

// TestProgressLineMatchesFprintf holds the appended progress line to the
// fmt.Fprintf form it replaced, byte for byte, over simulated times from
// picoseconds to past 10^6 s (where %.6g turns to exponent form) and
// wall times, counts and rates of every magnitude.
func TestProgressLineMatchesFprintf(t *testing.T) {
	var times []units.Time
	for t := units.Time(1); t < 1<<62; t = t*7 + t/3 + 1 {
		times = append(times, t, t-1, -t, t/1000*1000)
	}
	times = append(times, 0, 999_999_500*units.Millisecond, 1_000_000*units.Second, 1_234_567_891*units.Millisecond)
	walls := []time.Duration{0, time.Millisecond, 999 * time.Millisecond, 61234 * time.Millisecond, 3*time.Hour + 5*time.Millisecond}
	rates := []float64{0, 1, 12345, 999.5e3, 1.2345e6, 98765432.1, 3e12}
	var b []byte
	for i, st := range times {
		wall, rate := walls[i%len(walls)], rates[i%len(rates)]
		done, pending := uint64(i)*uint64(i)*1234567, i*37
		want := fmt.Sprintf("progress: sim=%s wall=%v events=%d rate=%.3gM ev/s pending=%d\n",
			sprintfTime(st), wall, done, rate/1e6, pending)
		b = appendProgress(b[:0], st, wall, done, rate, pending)
		if string(b) != want {
			t.Fatalf("sim=%d ps: got %q, want %q", int64(st), b, want)
		}
		if got := st.String(); got != sprintfTime(st) {
			t.Fatalf("units.Time(%d).String() = %q, want %q", int64(st), got, sprintfTime(st))
		}
	}
}

// TestProgressTickAllocs holds a progress tick to at most one allocation
// (the wall time's Duration.String): the callback is static and the line
// is appended into the ticker's own buffer.
func TestProgressTickAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race changes allocation counts")
	}
	s := sim.New()
	const every = 10 * units.Microsecond
	AttachProgress(s, every, io.Discard)
	s.RunUntil(10 * every)
	if a := testing.AllocsPerRun(100, func() { s.RunUntil(s.Now() + every) }); a > 1 {
		t.Errorf("a progress tick takes %.0f allocations, want at most 1", a)
	}
}
