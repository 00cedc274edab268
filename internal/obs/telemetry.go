package obs

import (
	"sort"

	"github.com/tcdnet/tcd/internal/units"
)

// Telemetry derives the paper's headline distributions from the event
// stream with constant memory: log-bucketed histograms for flow
// completion times, PFC pause and CBFC stall durations and CNP/mark
// inter-arrival gaps, plus one of sampled queue depth. It implements
// Recorder and forwards every event to an optional inner recorder (ring
// or spill sink), so it composes with event tracing.
//
// State is O(ports): the only per-key storage is the open pause/stall
// start time per (port, priority). Everything else is fixed-size.
type Telemetry struct {
	// FCT holds flow completion times in picoseconds.
	FCT *Hist
	// QueueDepth holds per-port queue occupancy in bytes, sampled by the
	// rig every QueueSampleEvery.
	QueueDepth *Hist
	// PauseDur / StallDur hold PFC pause and CBFC credit-stall durations
	// in picoseconds (closed intervals only; a pause still open at the
	// horizon is not counted).
	PauseDur *Hist
	StallDur *Hist
	// CNPGap / MarkGap hold inter-arrival gaps (ps) between successive
	// congestion notifications and CE/UE marks anywhere in the fabric.
	CNPGap  *Hist
	MarkGap *Hist

	pauseStart map[gateKey]units.Time
	stallStart map[gateKey]units.Time
	lastCNP    units.Time
	haveCNP    bool
	lastMark   units.Time
	haveMark   bool

	next Recorder
}

// QueueSampleEvery is the interval at which a rig samples every port's
// queue depth into Telemetry.QueueDepth.
const QueueSampleEvery = 10 * units.Microsecond

type gateKey struct {
	port string
	prio uint8
}

// NewTelemetry builds a collector forwarding to next (nil for none).
func NewTelemetry(next Recorder) *Telemetry {
	return &Telemetry{
		FCT:        NewHist(),
		QueueDepth: NewHist(),
		PauseDur:   NewHist(),
		StallDur:   NewHist(),
		CNPGap:     NewHist(),
		MarkGap:    NewHist(),
		pauseStart: make(map[gateKey]units.Time),
		stallStart: make(map[gateKey]units.Time),
		next:       next,
	}
}

// Chain sets the inner recorder (events are forwarded to it after
// folding) and returns the telemetry itself as the Recorder to install.
func (t *Telemetry) Chain(next Recorder) Recorder {
	t.next = next
	return t
}

// Record implements Recorder. Steady state it does not allocate: the
// pause/stall maps only grow until every gate has been seen once.
func (t *Telemetry) Record(e Event) {
	switch e.Kind {
	case KindFlowDone:
		t.FCT.Observe(e.Val)
	case KindPauseOn:
		t.pauseStart[gateKey{e.Port, e.Prio}] = e.At
	case KindPauseOff:
		k := gateKey{e.Port, e.Prio}
		if start, ok := t.pauseStart[k]; ok {
			t.PauseDur.Observe(int64(e.At - start))
			delete(t.pauseStart, k)
		}
	case KindCreditExhausted:
		t.stallStart[gateKey{e.Port, e.Prio}] = e.At
	case KindCreditGrant:
		k := gateKey{e.Port, e.Prio}
		if start, ok := t.stallStart[k]; ok {
			t.StallDur.Observe(int64(e.At - start))
			delete(t.stallStart, k)
		}
	case KindCNP:
		if t.haveCNP {
			t.CNPGap.Observe(int64(e.At - t.lastCNP))
		}
		t.lastCNP, t.haveCNP = e.At, true
	case KindMarkCE, KindMarkUE:
		if t.haveMark {
			t.MarkGap.Observe(int64(e.At - t.lastMark))
		}
		t.lastMark, t.haveMark = e.At, true
	}
	if t.next != nil {
		t.next.Record(e)
	}
}

// Hists returns the collector's histograms under their canonical export
// names (values in ps for durations/gaps, bytes for queue depth).
func (t *Telemetry) Hists() map[string]*Hist {
	return map[string]*Hist{
		"fct_ps":       t.FCT,
		"queue_bytes":  t.QueueDepth,
		"pause_dur_ps": t.PauseDur,
		"stall_dur_ps": t.StallDur,
		"cnp_gap_ps":   t.CNPGap,
		"mark_gap_ps":  t.MarkGap,
	}
}

// FoldInto exports per-histogram summary gauges (count plus
// min/mean/p50/p99/max) into a metrics registry under hist_<name>_*
// keys, in sorted name order so the export stays deterministic.
func (t *Telemetry) FoldInto(reg *Registry) {
	hs := t.Hists()
	names := make([]string, 0, len(hs))
	for n := range hs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := hs[n]
		reg.Gauge("hist_" + n + "_count").Set(float64(h.Count()))
		reg.Gauge("hist_" + n + "_min").Set(float64(h.Min()))
		reg.Gauge("hist_" + n + "_mean").Set(h.Mean())
		reg.Gauge("hist_" + n + "_p50").Set(float64(h.Quantile(0.5)))
		reg.Gauge("hist_" + n + "_p99").Set(float64(h.Quantile(0.99)))
		reg.Gauge("hist_" + n + "_max").Set(float64(h.Max()))
	}
}
