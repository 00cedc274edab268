package obs

import (
	"testing"

	"github.com/tcdnet/tcd/internal/units"
)

func TestTelemetryFoldsEventStream(t *testing.T) {
	tel := NewTelemetry(nil)
	us := units.Microsecond

	tel.Record(Event{At: 10 * us, Kind: KindFlowDone, Flow: 1, Val: int64(9 * us)})
	tel.Record(Event{At: 20 * us, Kind: KindFlowDone, Flow: 2, Val: int64(15 * us)})

	tel.Record(Event{At: 30 * us, Kind: KindPauseOn, Port: "A", Prio: 0})
	tel.Record(Event{At: 34 * us, Kind: KindPauseOff, Port: "A", Prio: 0})
	// Unmatched PauseOff must not observe anything.
	tel.Record(Event{At: 35 * us, Kind: KindPauseOff, Port: "B", Prio: 0})
	// A pause still open never closes: not counted.
	tel.Record(Event{At: 36 * us, Kind: KindPauseOn, Port: "C", Prio: 1})

	tel.Record(Event{At: 40 * us, Kind: KindCreditExhausted, Port: "D", Prio: 0})
	tel.Record(Event{At: 47 * us, Kind: KindCreditGrant, Port: "D", Prio: 0})

	tel.Record(Event{At: 50 * us, Kind: KindCNP, Flow: 1})
	tel.Record(Event{At: 53 * us, Kind: KindCNP, Flow: 1})
	tel.Record(Event{At: 60 * us, Kind: KindMarkCE, Port: "A"})
	tel.Record(Event{At: 61 * us, Kind: KindMarkUE, Port: "A"})

	if tel.FCT.Count() != 2 || tel.FCT.Min() != int64(9*us) || tel.FCT.Max() != int64(15*us) {
		t.Fatalf("FCT: n=%d min=%d max=%d", tel.FCT.Count(), tel.FCT.Min(), tel.FCT.Max())
	}
	if tel.PauseDur.Count() != 1 || tel.PauseDur.Max() != int64(4*us) {
		t.Fatalf("PauseDur: n=%d max=%d", tel.PauseDur.Count(), tel.PauseDur.Max())
	}
	if tel.StallDur.Count() != 1 || tel.StallDur.Max() != int64(7*us) {
		t.Fatalf("StallDur: n=%d max=%d", tel.StallDur.Count(), tel.StallDur.Max())
	}
	if tel.CNPGap.Count() != 1 || tel.CNPGap.Max() != int64(3*us) {
		t.Fatalf("CNPGap: n=%d max=%d", tel.CNPGap.Count(), tel.CNPGap.Max())
	}
	if tel.MarkGap.Count() != 1 || tel.MarkGap.Max() != int64(us) {
		t.Fatalf("MarkGap: n=%d max=%d", tel.MarkGap.Count(), tel.MarkGap.Max())
	}
}

func TestTelemetryForwardsToInnerRecorder(t *testing.T) {
	ring := NewRing(8)
	tel := NewTelemetry(nil)
	rec := tel.Chain(ring)
	rec.Record(Event{At: 1, Kind: KindMarkCE, Flow: -1})
	rec.Record(Event{At: 2, Kind: KindFlowDone, Flow: 1, Val: 100})
	if len(ring.buf) != 2 {
		t.Fatalf("inner recorder saw %d events, want 2", len(ring.buf))
	}
	if tel.FCT.Count() != 1 {
		t.Fatalf("telemetry folded %d FCTs, want 1", tel.FCT.Count())
	}
}

// TestTelemetryRecordSteadyStateZeroAlloc: once every gate has been seen,
// folding the stream allocates nothing.
func TestTelemetryRecordSteadyStateZeroAlloc(t *testing.T) {
	tel := NewTelemetry(nil)
	on := Event{At: 0, Kind: KindPauseOn, Port: "P", Prio: 0}
	off := Event{At: 0, Kind: KindPauseOff, Port: "P", Prio: 0}
	done := Event{Kind: KindFlowDone, Flow: 1, Val: 1000}
	mark := Event{Kind: KindMarkCE, Port: "P"}
	// Warm up: first insertion may grow the pause map.
	tel.Record(on)
	tel.Record(off)
	at := units.Time(0)
	if n := testing.AllocsPerRun(500, func() {
		at += 10
		on.At, off.At, done.At, mark.At = at, at+5, at, at
		tel.Record(on)
		tel.Record(off)
		tel.Record(done)
		tel.Record(mark)
		tel.QueueDepth.Observe(int64(at))
	}); n != 0 {
		t.Fatalf("steady-state Record allocates %.1f per cycle, want 0", n)
	}
}

func TestTelemetryFoldInto(t *testing.T) {
	tel := NewTelemetry(nil)
	tel.Record(Event{At: 1, Kind: KindFlowDone, Flow: 1, Val: 500})
	reg := NewRegistry()
	tel.FoldInto(reg)
	if got := reg.Gauge("hist_fct_ps_count").v; got != 1 {
		t.Fatalf("hist_fct_ps_count = %v, want 1", got)
	}
	if got := reg.Gauge("hist_fct_ps_max").v; got != 500 {
		t.Fatalf("hist_fct_ps_max = %v, want 500", got)
	}
}
