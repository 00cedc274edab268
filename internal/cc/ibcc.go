package cc

import (
	"github.com/tcdnet/tcd/internal/sim"
	"github.com/tcdnet/tcd/internal/units"
)

// IB CC (CA-side injection throttling) constants. A BECN-echoed
// notification raises the CCT index (CCTI); a timer lowers it; the CCT
// maps the index to an injection rate. Only the line rate and the TCD
// mode vary between throttles (Init's arguments).
//
// The spec's CCT contains inter-packet delay values; this implementation
// uses the equivalent rate mapping rate = line / (1 + CCTI/8) — a
// monotone table with the same qualitative throttling (see DESIGN.md).
const (
	// ibccStep is the CCTI increase per BECN (1 in the spec's example);
	// the paper's TCD case study §5.2.2 raises it to ibccStepTCD.
	ibccStep    = 1
	ibccStepTCD = 2
	// ibccCCTIMax caps the index.
	ibccCCTIMax = 127
	// ibccTimer is the CCTI recovery period: CCTI decreases by one per
	// expiry.
	ibccTimer = 150 * units.Microsecond
)

// IBCC is one flow's channel-adapter throttle.
type IBCC struct {
	line  units.Rate // injection rate at CCTI = 0
	step  int
	tcd   bool // UE echoes leave CCTI unchanged
	sched *sim.Scheduler
	ccti  int
	timer sim.Timer
	trace

	// Increases and Holds count BECN reactions and TCD holds.
	Increases, Holds uint64
}

// Init makes c, wherever it lives (a slab, say), a throttle at full
// injection rate: stock IB CC, or with tcd the paper's IB CC + TCD
// variant (reduction step 2 and UE echoes held). c must not be copied
// afterwards: its timer points at it.
func (c *IBCC) Init(s *sim.Scheduler, line units.Rate, tcd bool) {
	*c = IBCC{line: line, step: ibccStep, tcd: tcd, sched: s}
	if tcd {
		c.step = ibccStepTCD
	}
	c.timer.Init(s, recoverArg, c)
}

// CurrentRate implements host.RateController.
func (c *IBCC) CurrentRate() units.Rate {
	return units.Rate(float64(c.line) / (1 + float64(c.ccti)/8))
}

// OnNotify implements host.RateController: a BECN echo.
func (c *IBCC) OnNotify(now units.Time, ce, ue bool) {
	if ce {
		c.Increases++
		old := c.CurrentRate()
		c.ccti += c.step
		if c.ccti > ibccCCTIMax {
			c.ccti = ibccCCTIMax
		}
		c.recordRate(now, old, c.CurrentRate())
		c.timer.Arm(ibccTimer)
		return
	}
	if ue && c.tcd {
		c.Holds++
	}
}

// OnAck implements host.RateController (IB CC does not use RTT).
func (c *IBCC) OnAck(units.Time, units.Time, bool, bool) {}

// recoverArg is the CCTI recovery callback every throttle shares.
func recoverArg(arg any) { arg.(*IBCC).recover() }

func (c *IBCC) recover() {
	old := c.CurrentRate()
	if c.ccti > 0 {
		c.ccti--
	}
	c.recordRate(c.sched.Now(), old, c.CurrentRate())
	if c.ccti > 0 {
		c.timer.Arm(ibccTimer)
	}
}
