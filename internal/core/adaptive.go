package core

import (
	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/units"
)

// AdaptiveConfig parameterizes the adaptive-threshold TCD variant the
// paper discusses (§6, "Design tradeoff"): instead of a pre-configured
// max(Ton) from the analytic model, the detector predicts the ON-period
// bound from the history of observed ON periods.
//
// The paper argues a static bound is sufficient and cheaper; this
// implementation exists to let that argument be tested (see the ablation
// experiment and benchmarks).
type AdaptiveConfig struct {
	// TCDConfig configures the wrapped state machine; its MaxTon is the
	// initial estimate, typically the static bound.
	TCDConfig
	// Gain is the EWMA gain applied to observed ON periods (0 < Gain <= 1).
	Gain float64
	// Margin multiplies the EWMA to form the threshold (e.g. 2.0: an ON
	// period twice the recent average means the port has left the ON-OFF
	// pattern).
	Margin float64
	// Floor and Ceil clamp the adaptive threshold; Floor guards against
	// an anomalous run of tiny ON periods collapsing the threshold, Ceil
	// against deferring detection for too long (§6 names both corner
	// cases).
	Floor, Ceil units.Time
}

// DefaultAdaptiveConfig derives an adaptive configuration from a static
// one: seeded at the model bound, clamped to [bound/8, 4*bound].
func DefaultAdaptiveConfig(static TCDConfig) AdaptiveConfig {
	return AdaptiveConfig{
		TCDConfig: static,
		Gain:      0.25,
		Margin:    2.0,
		Floor:     static.MaxTon / 8,
		Ceil:      4 * static.MaxTon,
	}
}

// AdaptiveTCD wraps the TCD state machine with a self-adjusting max(Ton):
// every completed ON period (OFF start minus the previous OFF end) feeds
// an EWMA, and the detection threshold is Margin times that average,
// clamped to [Floor, Ceil].
//
// Compared to the static detector this needs a multiplier per OFF edge
// and a second timestamp register — the added cost the paper's tradeoff
// discussion weighs against the marginal gain.
type AdaptiveTCD struct {
	inner *TCD
	cfg   AdaptiveConfig
	ewma  float64 // picoseconds
	// Updates counts threshold adjustments.
	Updates uint64
}

// NewAdaptiveTCD builds the adaptive variant.
func NewAdaptiveTCD(cfg AdaptiveConfig) *AdaptiveTCD {
	if cfg.Gain <= 0 || cfg.Gain > 1 {
		panic("core: adaptive gain must be in (0, 1]")
	}
	if cfg.Margin < 1 {
		panic("core: adaptive margin must be >= 1")
	}
	return &AdaptiveTCD{inner: NewTCD(cfg.TCDConfig), cfg: cfg, ewma: float64(cfg.MaxTon) / cfg.Margin}
}

// State reports the current ternary state.
func (a *AdaptiveTCD) State() State { return a.inner.State() }

// Threshold reports the current adaptive max(Ton).
func (a *AdaptiveTCD) Threshold() units.Time { return a.inner.cfg.MaxTon }

// Inner exposes the wrapped state machine (stats, transitions).
func (a *AdaptiveTCD) Inner() *TCD { return a.inner }

// OnOffStart implements fabric.Detector: a completed ON period ends here;
// fold it into the estimate.
func (a *AdaptiveTCD) OnOffStart(now units.Time) {
	if a.inner.lastOffEnd != units.Never {
		on := float64(now - a.inner.lastOffEnd)
		a.ewma = (1-a.cfg.Gain)*a.ewma + a.cfg.Gain*on
		th := units.Time(a.cfg.Margin * a.ewma)
		if th < a.cfg.Floor {
			th = a.cfg.Floor
		}
		if th > a.cfg.Ceil {
			th = a.cfg.Ceil
		}
		if th != a.inner.cfg.MaxTon {
			a.inner.cfg.MaxTon = th
			if a.inner.cfg.Period == 0 {
				a.inner.cfg.Period = th
			}
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
