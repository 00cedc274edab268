package core

import (
	"fmt"

	"github.com/tcdnet/tcd/internal/obs"
	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/units"
)

// State is a ternary port state (§3.2.1).
type State uint8

const (
	// NonCongestion: continuously ON, no queue buildup.
	NonCongestion State = iota
	// Congestion: continuously ON at full output rate with queue buildup
	// not caused by OFF — the root of a congestion tree.
	Congestion
	// Undetermined: the output is in an ON-OFF pattern; queue buildup, if
	// any, has an ambiguous cause.
	Undetermined
)

func (s State) String() string {
	switch s {
	case NonCongestion:
		return "non-congestion"
	case Congestion:
		return "congestion"
	case Undetermined:
		return "undetermined"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// TCDConfig parameterizes one TCD detector instance.
type TCDConfig struct {
	// MaxTon distinguishes the ON-OFF pattern (Ton < MaxTon) from
	// continuous ON. Use MaxTonCEE for PFC fabrics and MaxTonIB (= Tc)
	// for CBFC fabrics.
	MaxTon units.Time
	// CongThresh is the queue length above which (together with an
	// increasing trend) the port is declared congested. The paper reuses
	// the fabric's marking threshold (200 KB for CEE, 50 KB for IB).
	CongThresh units.ByteSize
	// LowThresh is the queue length at which the port returns to the
	// non-congestion state.
	LowThresh units.ByteSize
	// TrendSlack is the minimum queue growth over one period that counts
	// as "increasing" in the post-undetermined trend check. Without it, a
	// port whose input rate exactly matches line rate (two half-rate
	// edges behind one fabric link) shows a flat-but-jittery queue after
	// an OFF era and a ±1-packet fluctuation could masquerade as growth.
	// Zero defaults to 4 KB (a few MTUs — the queue-length sampling
	// granularity of real counters).
	TrendSlack units.ByteSize
}

// Validate reports configuration errors.
func (c *TCDConfig) Validate() error {
	if c.MaxTon <= 0 {
		return fmt.Errorf("tcd: MaxTon must be positive, got %v", c.MaxTon)
	}
	if c.CongThresh <= 0 {
		return fmt.Errorf("tcd: CongThresh must be positive")
	}
	if c.LowThresh < 0 || c.LowThresh > c.CongThresh {
		return fmt.Errorf("tcd: LowThresh %v must be in [0, CongThresh %v]", c.LowThresh, c.CongThresh)
	}
	return nil
}

// Transition records one state change, for experiment traces (Figs 12/13).
type Transition struct {
	At       units.Time
	From, To State
}

// TCDConfigs interns detector configurations: every detector built from
// equal configurations shares one record, so a fabric of thousands of
// detectors holds a handful of configurations. The zero value is empty
// and ready to use.
type TCDConfigs struct {
	list []*TCDConfig
}

// Intern returns the shared record of cfg with its defaults applied. It
// panics on invalid configuration: detectors are wired at experiment
// setup where a loud failure is wanted.
func (t *TCDConfigs) Intern(cfg TCDConfig) *TCDConfig {
	if cfg.TrendSlack == 0 {
		cfg.TrendSlack = 4 * units.KB
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	for _, c := range t.list {
		if *c == cfg {
			return c
		}
	}
	c := new(TCDConfig)
	*c = cfg
	t.list = append(t.list, c)
	return c
}

// TCD is the Ternary Congestion Detection state machine of one
// (port, priority) pair — the paper's Fig 9 flowchart.
//
// Per-dequeue work is O(1) over a handful of registers: the end of the
// latest OFF period, LAST_STATE, and two queue-trend samples; exactly the
// hardware cost the paper argues for (§4.5).
type TCD struct {
	// cfg is shared with every detector built from an equal
	// configuration and never written. Its MaxTon is T, the queue-trend
	// observation window after a port leaves the undetermined state (the
	// paper's T = MaxTon, fixed at construction); maxTon is the detector's
	// own ON-period bound, which the adaptive variant moves.
	cfg    *TCDConfig
	maxTon units.Time

	state      State
	off        bool
	trendArmed bool
	// keep enables the transitions log (RecordTransitions).
	keep       bool
	lastOffEnd units.Time

	// Queue-trend check after leaving the undetermined state.
	trendStart units.Time
	trendQ     units.ByteSize

	// Stats.
	stateSince units.Time
	timeIn     [3]units.Time
	// trace is nil until a recording detector first transitions or is
	// given a recorder.
	trace *tcdTrace
}

// tcdTrace is a detector's recording state.
type tcdTrace struct {
	transitions []Transition
	// rec, if non-nil, receives a KindTCDState event per transition;
	// label names the detector's port in those events.
	rec   obs.Recorder
	label string
	// first backs the first transitions, so the record and the log
	// start in one allocation.
	first [2]Transition
}

// NewTCD builds a detector. It panics on invalid configuration: detectors
// are wired at experiment setup where a loud failure is wanted.
func NewTCD(cfg TCDConfig) *TCD {
	var own TCDConfigs
	d := new(TCD)
	d.Init(own.Intern(cfg))
	return d
}

// Init makes d, wherever it lives (a slab, say), a detector of the
// interned configuration cfg.
func (d *TCD) Init(cfg *TCDConfig) {
	*d = TCD{cfg: cfg, maxTon: cfg.MaxTon, state: NonCongestion, lastOffEnd: units.Never}
}

// Config returns the detector's configuration, with its current ON-period
// bound as MaxTon.
func (d *TCD) Config() TCDConfig {
	c := *d.cfg
	c.MaxTon = d.maxTon
	return c
}

// RecordTransitions turns on the Transitions log (experiments only; long
// fat-tree runs leave it off).
func (d *TCD) RecordTransitions() { d.keep = true }

// Transitions returns the logged state changes (nil unless
// RecordTransitions was called).
func (d *TCD) Transitions() []Transition {
	if d.trace == nil {
		return nil
	}
	return d.trace.transitions
}

// Trace sends a KindTCDState event per transition to rec, naming the
// detector's port label.
func (d *TCD) Trace(rec obs.Recorder, label string) {
	t := d.tracing()
	t.rec, t.label = rec, label
}

func (d *TCD) tracing() *tcdTrace {
	if d.trace == nil {
		d.trace = new(tcdTrace)
		d.trace.transitions = d.trace.first[:0]
	}
	return d.trace
}

// State reports LAST_STATE.
func (d *TCD) State() State { return d.state }

// TimeIn reports the cumulative time spent in a state (up to the last
// transition; the current residence is open-ended).
func (d *TCD) TimeIn(s State) units.Time { return d.timeIn[s] }

func (d *TCD) setState(now units.Time, s State) {
	if s == d.state {
		return
	}
	d.timeIn[d.state] += now - d.stateSince
	if d.keep || d.trace != nil {
		t := d.tracing()
		if d.keep {
			t.transitions = append(t.transitions, Transition{At: now, From: d.state, To: s})
		}
		if t.rec != nil {
			t.rec.Record(obs.Event{At: now, Kind: obs.KindTCDState, Port: t.label, Flow: -1, Val: int64(s), Aux: int64(d.state)})
		}
	}
	d.state = s
	d.stateSince = now
}

// OnOffStart implements fabric.Detector: the port was refused by its
// flow-control gate while holding traffic.
func (d *TCD) OnOffStart(now units.Time) { d.off = true }

// OnOffEnd implements fabric.Detector: the OFF period ended. This is the
// single timestamp register TCD needs (§4.1): current Ton is measured
// from here.
func (d *TCD) OnOffEnd(now units.Time) {
	d.off = false
	d.lastOffEnd = now
}

// OnDequeue implements fabric.Detector — the Fig 9 flowchart, run as each
// packet leaves the queue.
func (d *TCD) OnDequeue(now units.Time, pkt *packet.Packet, qlen units.ByteSize) {
	ton := units.Forever
	if d.lastOffEnd != units.Never {
		ton = now - d.lastOffEnd
	}
	if ton < d.maxTon {
		// ON-OFF sending pattern: transitions (3) and (6).
		d.setState(now, Undetermined)
		d.trendArmed = false
		pkt.Code = pkt.Code.MarkUE()
		return
	}
	// Continuous ON.
	if d.state == Undetermined {
		d.releasedDequeue(now, pkt, qlen)
		return
	}
	// Transitions (1) and (2): plain queue-based detection, as in lossy
	// networks, with hysteresis between the two thresholds.
	switch {
	case qlen > d.cfg.CongThresh:
		d.setState(now, Congestion)
	case qlen <= d.cfg.LowThresh:
		d.setState(now, NonCongestion)
	}
	if d.state == Congestion {
		pkt.Code = pkt.Code.MarkCE()
	}
}

// releasedDequeue handles dequeues after the port has left the ON-OFF
// pattern but LAST_STATE is still undetermined: the queue-trend check
// that decides between transitions (4) and (5). While the accumulated
// queue is draining, packets are deliberately not marked even above the
// threshold (§5.1.2).
func (d *TCD) releasedDequeue(now units.Time, pkt *packet.Packet, qlen units.ByteSize) {
	if qlen <= d.cfg.LowThresh {
		// Transition (4): drained out — the buildup was caused by OFF.
		d.setState(now, NonCongestion)
		d.trendArmed = false
		return
	}
	if !d.trendArmed {
		d.trendArmed = true
		d.trendStart = now
		d.trendQ = qlen
		return
	}
	if now-d.trendStart < d.cfg.MaxTon {
		return
	}
	if qlen > d.trendQ+d.cfg.TrendSlack && qlen > d.cfg.CongThresh {
		// Transition (5): queue grew through a whole period while the
		// port ran continuously ON — a covered congestion root emerging.
		d.setState(now, Congestion)
		d.trendArmed = false
		pkt.Code = pkt.Code.MarkCE()
		return
	}
	// Queue still falling (or not above threshold): observe another
	// period.
	d.trendStart = now
	d.trendQ = qlen
}
