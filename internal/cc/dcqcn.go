// Package cc implements the end-to-end congestion-control algorithms the
// paper combines with TCD: DCQCN (Zhu et al., SIGCOMM'15), TIMELY (Mittal
// et al., SIGCOMM'15) and the InfiniBand specification's injection
// throttling (IB CC). Each controller has a stock mode and a TCD mode
// that follows the paper's §5.2 recommendation: hold the rate on UE
// (undetermined) echoes, cut aggressively on CE echoes.
package cc

import (
	"github.com/tcdnet/tcd/internal/obs"
	"github.com/tcdnet/tcd/internal/sim"
	"github.com/tcdnet/tcd/internal/units"
)

// trace is the per-flow event-recording state shared by all three
// controllers: a recorder handle plus the flow ID, wired by the host
// layer through obs.FlowTracer. recordRate emits one KindRateChange
// event per effective rate change; with a nil recorder it is a single
// branch.
type trace struct {
	rec  obs.Recorder
	flow int64
}

// SetTrace implements obs.FlowTracer.
func (t *trace) SetTrace(rec obs.Recorder, flow int64) { t.rec, t.flow = rec, flow }

func (t *trace) recordRate(now units.Time, old, new units.Rate) {
	if t.rec != nil && old != new {
		t.rec.Record(obs.Event{At: now, Kind: obs.KindRateChange, Flow: t.flow, Val: int64(new), Aux: int64(old)})
	}
}

// DCQCNConfig holds the DCQCN reaction-point parameters. Defaults follow
// the values recommended in the DCQCN paper and its reference simulator.
type DCQCNConfig struct {
	// LineRate is the NIC rate (initial sending rate: flows start at
	// line rate, as in RoCE deployments).
	LineRate units.Rate
	// MinRate floors the sending rate.
	MinRate units.Rate
	// G is the EWMA gain for alpha (1/256).
	G float64
	// AlphaTimer is the alpha-decay interval without CNPs (55 us). The
	// decay is not a scheduled event: alpha is read only by the next cut
	// (and Alpha), which first applies every step that has come due. That
	// equals a per-flow timer bit for bit as long as a step due at the
	// very instant of a cut is applied before it, which is the order a
	// timer armed at the previous cut would fire in whenever the CNP that
	// triggers the cut was sent after that arm — so while link delay <
	// AlphaTimer (4 us against 55 us on every fabric in this repo).
	AlphaTimer units.Time
	// IncreaseTimer is the rate-increase timer period. The reference
	// RoCEv2 simulator the paper builds on uses 1500 us; this slow
	// recovery is what makes false congestion marks on victim flows
	// costly (and accurate detection valuable).
	IncreaseTimer units.Time
	// ByteCounter is the bytes-sent stage size (10 MB).
	ByteCounter units.ByteSize
	// F is the fast-recovery stage count (5).
	F int
	// RateAI and RateHAI are the additive and hyper increase steps
	// (40 Mbps / 200 Mbps).
	RateAI, RateHAI units.Rate
	// AlphaCeil bounds (and initializes) alpha. The paper's case study
	// (§5.2.1) states the default reduction factor is 0.5 — a cut to 75%
	// per CNP — and raises it to 1.2 (a cut to 40%) for TCD-confirmed
	// congested flows.
	AlphaCeil float64
	// TCD enables ternary handling: UE echoes leave the rate unchanged.
	TCD bool
}

// DefaultDCQCNConfig returns stock DCQCN at the given line rate.
func DefaultDCQCNConfig(line units.Rate) DCQCNConfig {
	return DCQCNConfig{
		LineRate:      line,
		MinRate:       40 * units.Mbps,
		G:             1.0 / 256,
		AlphaTimer:    55 * units.Microsecond,
		IncreaseTimer: 1500 * units.Microsecond,
		ByteCounter:   10 * units.MB,
		F:             5,
		RateAI:        40 * units.Mbps,
		RateHAI:       200 * units.Mbps,
		AlphaCeil:     0.5,
	}
}

// TCDDCQCNConfig returns the paper's DCQCN+TCD variant: reduction factor
// raised to 1.2 and UE echoes held.
func TCDDCQCNConfig(line units.Rate) DCQCNConfig {
	cfg := DefaultDCQCNConfig(line)
	cfg.AlphaCeil = 1.2
	cfg.TCD = true
	return cfg
}

// DCQCN is one flow's reaction point.
type DCQCN struct {
	cfg   DCQCNConfig
	sched *sim.Scheduler
	trace

	rc, rt units.Rate // current and target rate
	alpha  float64

	bytes    units.ByteSize // since last stage event
	timerCnt int            // increase events from the timer since last cut
	byteCnt  int            // increase events from the byte counter

	// alphaDue is when the next alpha-decay step falls due: AlphaTimer
	// after the last cut, then every AlphaTimer until alpha has decayed
	// to the floor; Forever before the first cut and once it has.
	alphaDue units.Time
	incTimer *sim.Timer

	// CutEvents and HoldEvents count CE cuts and UE holds, for tests and
	// experiment reporting.
	CutEvents, HoldEvents uint64
}

// NewDCQCN builds a reaction point starting at line rate.
func NewDCQCN(s *sim.Scheduler, cfg DCQCNConfig) *DCQCN {
	d := &DCQCN{cfg: cfg, sched: s, rc: cfg.LineRate, rt: cfg.LineRate, alpha: cfg.AlphaCeil, alphaDue: units.Forever}
	d.incTimer = sim.NewTimer(s, d.timerIncrease)
	return d
}

// CurrentRate implements host.RateController.
func (d *DCQCN) CurrentRate() units.Rate { return d.rc }

// Alpha reports the current reduction factor (for tests).
func (d *DCQCN) Alpha() float64 {
	d.ageAlpha()
	return d.alpha
}

// OnNotify implements host.RateController: CNP handling.
func (d *DCQCN) OnNotify(now units.Time, ce, ue bool) {
	if ce {
		d.cut()
		return
	}
	if ue && d.cfg.TCD {
		// §5.2: flows only passing through undetermined ports keep their
		// rate — they may be victims; increasing could spread congestion.
		d.HoldEvents++
		d.freezeIncrease()
	}
}

// OnAck implements host.RateController (DCQCN does not use RTT).
func (d *DCQCN) OnAck(units.Time, units.Time, bool, bool) {}

// OnSent implements host.SentObserver: the byte-counter increase stage.
func (d *DCQCN) OnSent(now units.Time, wire units.ByteSize) {
	d.bytes += wire
	for d.bytes >= d.cfg.ByteCounter {
		d.bytes -= d.cfg.ByteCounter
		d.byteCnt++
		d.increase()
	}
}

// cut is the DCQCN rate decrease:
//
//	Rt <- Rc;  Rc <- Rc*(1 - alpha/2);  alpha <- (1-g)alpha + g*ceil
func (d *DCQCN) cut() {
	d.ageAlpha()
	d.CutEvents++
	d.rt = d.rc
	factor := 1 - d.alpha/2
	if factor < 0.05 {
		factor = 0.05
	}
	old := d.rc
	d.rc = units.Rate(float64(d.rc) * factor)
	if d.rc < d.cfg.MinRate {
		d.rc = d.cfg.MinRate
	}
	d.recordRate(d.sched.Now(), old, d.rc)
	d.alpha = (1-d.cfg.G)*d.alpha + d.cfg.G*d.cfg.AlphaCeil
	d.bytes = 0
	d.timerCnt = 0
	d.byteCnt = 0
	d.alphaDue = d.sched.Now() + d.cfg.AlphaTimer
	d.incTimer.Arm(d.cfg.IncreaseTimer)
}

// freezeIncrease restarts the increase stages without cutting — holding a
// UE-echoed flow steady instead of letting it climb into a spreading
// tree.
func (d *DCQCN) freezeIncrease() {
	d.timerCnt = 0
	d.byteCnt = 0
	d.bytes = 0
	d.incTimer.Arm(d.cfg.IncreaseTimer)
}

// ageAlpha applies the alpha-decay steps that have come due: one
// multiplication per AlphaTimer elapsed since the last cut, stopping for
// good once alpha is at the 1e-4 floor.
func (d *DCQCN) ageAlpha() {
	for now := d.sched.Now(); d.alphaDue <= now; {
		d.alpha *= 1 - d.cfg.G
		if d.alpha > 1e-4 {
			d.alphaDue += d.cfg.AlphaTimer
		} else {
			d.alphaDue = units.Forever
		}
	}
}

func (d *DCQCN) timerIncrease() {
	d.timerCnt++
	d.increase()
	if d.rc < d.cfg.LineRate {
		d.incTimer.Arm(d.cfg.IncreaseTimer)
	}
}

// increase runs one DCQCN increase event: fast recovery while both stage
// counters are young, additive once either passes F, hyper once both do.
func (d *DCQCN) increase() {
	switch {
	case d.timerCnt > d.cfg.F && d.byteCnt > d.cfg.F:
		d.rt += d.cfg.RateHAI
	case d.timerCnt > d.cfg.F || d.byteCnt > d.cfg.F:
		d.rt += d.cfg.RateAI
	}
	if d.rt > d.cfg.LineRate {
		d.rt = d.cfg.LineRate
	}
	// Ceiling average: a floor here would leave rc one bps short of rt
	// forever and keep the increase timer alive on an idle flow.
	old := d.rc
	d.rc = (d.rc + d.rt + 1) / 2
	if d.rc > d.cfg.LineRate {
		d.rc = d.cfg.LineRate
	}
	d.recordRate(d.sched.Now(), old, d.rc)
}
