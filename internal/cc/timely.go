package cc

import (
	"github.com/tcdnet/tcd/internal/units"
)

// TIMELY constants (Mittal et al., and the published reference code
// snippet the paper's simulator is based on). Only the line rate and the
// TCD mode vary between engines (Init's arguments).
const (
	// timelyMinRate floors the sending rate.
	timelyMinRate = 10 * units.Mbps
	// timelyDelta is the additive increase step.
	timelyDelta = 10 * units.Mbps
	// timelyTLow and timelyTHigh bracket the gradient-controlled region:
	// below TLow always increase, above THigh always decrease
	// multiplicatively.
	timelyTLow  = 50 * units.Microsecond
	timelyTHigh = 500 * units.Microsecond
	// timelyMinRTT normalizes the RTT gradient.
	timelyMinRTT = 20 * units.Microsecond
	// timelyEwmaAlpha filters the RTT difference (0.875-weight history).
	timelyEwmaAlpha = 0.125
	// timelyBeta scales multiplicative decrease; the paper's TCD case
	// study (§5.2.3) raises it to timelyBetaTCD for congested flows.
	timelyBeta    = 0.8
	timelyBetaTCD = 1.6
	// timelyHAICount is the consecutive-negative-gradient count after
	// which the additive step is multiplied by N=5 (hyperactive
	// increase).
	timelyHAICount = 5
	// timelyUpdateEvery rate-limits the engine: TIMELY computes a new
	// rate per completion event of a 16-64 KB segment, not per MTU-sized
	// packet. Samples arriving within the window are ignored.
	timelyUpdateEvery = 20 * units.Microsecond
)

// TIMELY is one flow's RTT-gradient engine.
type TIMELY struct {
	line units.Rate // caps the sending rate; flows start at it
	// tcd enables ternary handling: in the gradient region a positive
	// gradient with a UE-echoed ACK holds the rate (the RTT rise is
	// attributed to PAUSE, not congestion).
	tcd  bool
	beta float64
	trace

	rate       units.Rate
	prevRTT    units.Time
	rttDiff    float64 // EWMA of RTT differences, in picoseconds
	negCount   int
	lastUpdate units.Time

	// Decreases and Holds count multiplicative decreases and TCD holds.
	Decreases, Holds uint64
}

// Init makes t, wherever it lives (a slab, say), an engine starting at
// line rate: stock TIMELY, or with tcd the paper's TIMELY+TCD variant
// (beta 1.6 and UE-echoed gradient rises held).
func (t *TIMELY) Init(line units.Rate, tcd bool) {
	beta := timelyBeta
	if tcd {
		beta = timelyBetaTCD
	}
	*t = TIMELY{line: line, tcd: tcd, beta: beta, rate: line}
}

// CurrentRate implements host.RateController.
func (t *TIMELY) CurrentRate() units.Rate { return t.rate }

// OnNotify implements host.RateController (TIMELY is delay-based; it
// ignores CNPs).
func (t *TIMELY) OnNotify(units.Time, bool, bool) {}

// OnAck implements host.RateController: one RTT sample per ACK, following
// the published TIMELY algorithm with the paper's TCD amendment.
func (t *TIMELY) OnAck(now units.Time, rtt units.Time, ce, ue bool) {
	if t.lastUpdate != 0 && now-t.lastUpdate < timelyUpdateEvery {
		return // within the current segment: one decision per completion
	}
	t.lastUpdate = now
	if t.prevRTT == 0 {
		t.prevRTT = rtt
		return
	}
	newDiff := float64(rtt - t.prevRTT)
	t.prevRTT = rtt
	t.rttDiff = (1-timelyEwmaAlpha)*t.rttDiff + timelyEwmaAlpha*newDiff
	gradient := t.rttDiff / float64(timelyMinRTT)

	old := t.rate
	defer func() { t.recordRate(now, old, t.rate) }()
	switch {
	case rtt < timelyTLow:
		t.additive(1)
	case rtt > timelyTHigh:
		// Multiplicative decrease toward THigh.
		t.negCount = 0
		f := 1 - t.beta*(1-float64(timelyTHigh)/float64(rtt))
		t.multiplicative(f)
	case gradient <= 0:
		n := 1
		t.negCount++
		if t.negCount >= timelyHAICount {
			n = 5
		}
		t.additive(n)
	default:
		t.negCount = 0
		if t.tcd && ue && !ce {
			// §5.2.3: the gradient rise came from a port in the
			// undetermined state — hold instead of backing off.
			t.Holds++
			return
		}
		f := 1 - t.beta*gradient
		t.multiplicative(f)
	}
}

func (t *TIMELY) additive(n int) {
	t.rate += units.Rate(n) * timelyDelta
	if t.rate > t.line {
		t.rate = t.line
	}
}

func (t *TIMELY) multiplicative(f float64) {
	if f >= 1 {
		return // gradient too small to decrease
	}
	if f < 0.05 {
		f = 0.05
	}
	t.Decreases++
	t.rate = units.Rate(float64(t.rate) * f)
	if t.rate < timelyMinRate {
		t.rate = timelyMinRate
	}
}
