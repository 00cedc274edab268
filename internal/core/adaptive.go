package core

import (
	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/units"
)

// Adaptive-threshold constants: the EWMA gain applied to observed ON
// periods, and the margin that multiplies the EWMA to form the threshold
// (an ON period twice the recent average means the port has left the
// ON-OFF pattern).
const (
	adaptiveGain   = 0.25
	adaptiveMargin = 2.0
)

// AdaptiveTCD is the adaptive-threshold TCD variant the paper discusses
// (§6, "Design tradeoff"): instead of a pre-configured max(Ton) from the
// analytic model, the detector predicts the ON-period bound from the
// history of observed ON periods. Every completed ON period (OFF start
// minus the previous OFF end) feeds an EWMA, and the detection threshold
// is adaptiveMargin times that average, clamped to [floor, ceil].
//
// The paper argues a static bound is sufficient and cheaper; this
// implementation exists to let that argument be tested (see the ablation
// experiment and benchmarks). Compared to the static detector it needs a
// multiplier per OFF edge and a second timestamp register — the added
// cost the paper's tradeoff discussion weighs against the marginal gain.
type AdaptiveTCD struct {
	inner TCD
	// floor and ceil clamp the threshold to [bound/8, 4*bound]; floor
	// guards against an anomalous run of tiny ON periods collapsing it,
	// ceil against deferring detection for too long (§6 names both
	// corner cases).
	floor, ceil units.Time
	ewma        float64 // picoseconds
	// Updates counts threshold adjustments.
	Updates uint64
}

// Init makes a, wherever it lives, the adaptive variant of a detector of
// the interned configuration static, seeded at its bound static.MaxTon.
// The queue-trend period stays at that bound while the threshold adapts.
func (a *AdaptiveTCD) Init(static *TCDConfig) {
	*a = AdaptiveTCD{
		floor: static.MaxTon / 8,
		ceil:  4 * static.MaxTon,
		ewma:  float64(static.MaxTon) / adaptiveMargin,
	}
	a.inner.Init(static)
}

// Inner exposes the wrapped state machine (stats, transitions).
func (a *AdaptiveTCD) Inner() *TCD { return &a.inner }

// OnOffStart implements fabric.Detector: a completed ON period ends here;
// fold it into the estimate.
func (a *AdaptiveTCD) OnOffStart(now units.Time) {
	if a.inner.lastOffEnd != units.Never {
		on := float64(now - a.inner.lastOffEnd)
		a.ewma = (1-adaptiveGain)*a.ewma + adaptiveGain*on
		th := units.Time(adaptiveMargin * a.ewma)
		if th < a.floor {
			th = a.floor
		}
		if th > a.ceil {
			th = a.ceil
		}
		if th != a.inner.maxTon {
			a.inner.maxTon = th
			a.Updates++
		}
	}
	a.inner.OnOffStart(now)
}

// OnOffEnd implements fabric.Detector.
func (a *AdaptiveTCD) OnOffEnd(now units.Time) { a.inner.OnOffEnd(now) }

// OnDequeue implements fabric.Detector.
func (a *AdaptiveTCD) OnDequeue(now units.Time, pkt *packet.Packet, qlen units.ByteSize) {
	a.inner.OnDequeue(now, pkt, qlen)
}
