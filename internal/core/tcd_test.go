package core

import (
	"testing"

	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/units"
)

func testCfg() TCDConfig {
	return TCDConfig{
		MaxTon:     30 * units.Microsecond,
		CongThresh: 200 * units.KB,
		LowThresh:  10 * units.KB,
	}
}

func dq(d *TCD, at units.Time, q units.ByteSize) *packet.Packet {
	p := &packet.Packet{Kind: packet.Data, Code: packet.Capable}
	d.OnDequeue(at, p, q)
	return p
}

func TestFreshPortIsNonCongested(t *testing.T) {
	d := NewTCD(testCfg())
	if d.State() != NonCongestion {
		t.Errorf("initial state = %v", d.State())
	}
	p := dq(d, 0, 0)
	if p.Code != packet.Capable || d.State() != NonCongestion {
		t.Errorf("idle dequeue marked %v state %v", p.Code, d.State())
	}
}

// Transition (1): continuous ON + queue above threshold -> congestion, CE.
func TestTransitionToCongestionContinuousOn(t *testing.T) {
	d := NewTCD(testCfg())
	p := dq(d, units.Millisecond, 250*units.KB)
	if d.State() != Congestion {
		t.Fatalf("state = %v, want congestion", d.State())
	}
	if p.Code != packet.CE {
		t.Errorf("packet code = %v, want CE", p.Code)
	}
	// Hysteresis: queue between thresholds keeps marking CE.
	p2 := dq(d, units.Millisecond+time(1), 100*units.KB)
	if p2.Code != packet.CE || d.State() != Congestion {
		t.Error("hysteresis broken between thresholds")
	}
}

func time(us int64) units.Time { return units.Time(us) * units.Microsecond }

// Transition (2): congestion -> non-congestion when queue drains low.
func TestTransitionBackToNonCongestion(t *testing.T) {
	d := NewTCD(testCfg())
	dq(d, time(0), 250*units.KB)
	p := dq(d, time(1), 5*units.KB)
	if d.State() != NonCongestion {
		t.Fatalf("state = %v, want non-congestion", d.State())
	}
	if p.Code != packet.Capable {
		t.Errorf("packet marked %v after drain", p.Code)
	}
}

// Transitions (3)/(6): an OFF period puts subsequent dequeues (within
// MaxTon of the OFF end) in the undetermined state with UE marks.
func TestOffPeriodEntersUndetermined(t *testing.T) {
	d := NewTCD(testCfg())
	d.OnOffStart(time(10))
	d.OnOffEnd(time(15))
	p := dq(d, time(16), 50*units.KB)
	if d.State() != Undetermined {
		t.Fatalf("state = %v, want undetermined", d.State())
	}
	if p.Code != packet.UE {
		t.Errorf("packet code = %v, want UE", p.Code)
	}
	// Still within MaxTon of the OFF end: UE continues.
	p2 := dq(d, time(40), 60*units.KB)
	if p2.Code != packet.UE {
		t.Errorf("second packet code = %v, want UE", p2.Code)
	}
}

// Transition (4): after MaxTon expires the port runs continuously ON and
// the accumulated queue drains; packets must NOT be marked CE even above
// the threshold (§5.1.2), and the port ends non-congested.
func TestUndeterminedToNonCongestionDrain(t *testing.T) {
	d := NewTCD(testCfg())
	d.OnOffStart(time(0))
	d.OnOffEnd(time(5))
	dq(d, time(6), 300*units.KB) // undetermined
	// Released: dequeues beyond 5+30us with decreasing queue.
	q := []struct {
		at units.Time
		q  units.ByteSize
	}{
		{time(40), 280 * units.KB},
		{time(75), 200 * units.KB}, // one period later: decreased
		{time(110), 100 * units.KB},
		{time(145), 9 * units.KB}, // below LowThresh
	}
	for i, step := range q {
		p := dq(d, step.at, step.q)
		if p.Code == packet.CE {
			t.Errorf("step %d: drain marked CE at queue %v", i, step.q)
		}
	}
	if d.State() != NonCongestion {
		t.Errorf("final state = %v, want non-congestion", d.State())
	}
}

// Transition (5): after release the queue keeps GROWING through a whole
// period and exceeds the threshold -> congestion (the covered-root case,
// Fig 13).
func TestUndeterminedToCongestionGrowth(t *testing.T) {
	d := NewTCD(testCfg())
	d.RecordTransitions()
	d.OnOffStart(time(0))
	d.OnOffEnd(time(5))
	dq(d, time(6), 150*units.KB) // undetermined
	// Released (>= 35us), queue rising.
	dq(d, time(40), 210*units.KB)      // arms trend: ref 210KB
	p := dq(d, time(75), 260*units.KB) // period elapsed, grew, > thresh
	if d.State() != Congestion {
		t.Fatalf("state = %v, want congestion", d.State())
	}
	if p.Code != packet.CE {
		t.Errorf("packet code = %v, want CE", p.Code)
	}
	// Transition log captured und->cong.
	found := false
	for _, tr := range d.Transitions() {
		if tr.From == Undetermined && tr.To == Congestion {
			found = true
		}
	}
	if !found {
		t.Errorf("transitions %v missing undetermined->congestion", d.Transitions())
	}
}

// Growth below the congestion threshold must not trigger congestion.
func TestReleaseGrowthBelowThreshold(t *testing.T) {
	d := NewTCD(testCfg())
	d.OnOffStart(time(0))
	d.OnOffEnd(time(5))
	dq(d, time(6), 50*units.KB)
	dq(d, time(40), 60*units.KB)
	dq(d, time(75), 80*units.KB) // grew but below 200KB
	if d.State() == Congestion {
		t.Error("declared congestion below the threshold")
	}
}

// A new OFF during the trend check re-enters undetermined and resets the
// trend.
func TestReenterUndeterminedDuringTrend(t *testing.T) {
	d := NewTCD(testCfg())
	d.OnOffStart(time(0))
	d.OnOffEnd(time(5))
	dq(d, time(6), 150*units.KB)
	dq(d, time(40), 210*units.KB) // trend armed
	d.OnOffStart(time(45))
	d.OnOffEnd(time(50))
	p := dq(d, time(51), 260*units.KB)
	if d.State() != Undetermined || p.Code != packet.UE {
		t.Errorf("state %v code %v, want undetermined/UE", d.State(), p.Code)
	}
}

// Congestion -> undetermined (transition 6): a congested port that gets
// paused becomes undetermined.
func TestCongestionToUndetermined(t *testing.T) {
	d := NewTCD(testCfg())
	dq(d, time(0), 300*units.KB)
	if d.State() != Congestion {
		t.Fatal("setup failed")
	}
	d.OnOffStart(time(1))
	d.OnOffEnd(time(3))
	p := dq(d, time(4), 300*units.KB)
	if d.State() != Undetermined || p.Code != packet.UE {
		t.Errorf("state %v code %v after pause, want undetermined/UE", d.State(), p.Code)
	}
}

// UE must not downgrade CE (Table 1): a packet already marked CE keeps CE
// through an undetermined port.
func TestUEDoesNotDowngradeCE(t *testing.T) {
	d := NewTCD(testCfg())
	d.OnOffStart(time(0))
	d.OnOffEnd(time(5))
	p := &packet.Packet{Kind: packet.Data, Code: packet.CE}
	d.OnDequeue(time(6), p, 50*units.KB)
	if p.Code != packet.CE {
		t.Errorf("CE downgraded to %v", p.Code)
	}
}

func TestTimeInAccounting(t *testing.T) {
	d := NewTCD(testCfg())
	dq(d, time(10), 300*units.KB) // ->congestion at 10us
	dq(d, time(60), 5*units.KB)   // ->non-congestion at 60us
	if got := d.TimeIn(Congestion); got != 50*units.Microsecond {
		t.Errorf("TimeIn(congestion) = %v, want 50us", got)
	}
	if got := d.TimeIn(NonCongestion); got != 10*units.Microsecond {
		t.Errorf("TimeIn(non-congestion) = %v, want 10us", got)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []TCDConfig{
		{MaxTon: 0, CongThresh: 1, LowThresh: 0},
		{MaxTon: 1, CongThresh: 0},
		{MaxTon: 1, CongThresh: 10, LowThresh: 20},
		{MaxTon: 1, CongThresh: 10, LowThresh: -1},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d did not panic", i)
				}
			}()
			NewTCD(cfg)
		}()
	}
}

func TestStateStrings(t *testing.T) {
	if NonCongestion.String() != "non-congestion" ||
		Congestion.String() != "congestion" ||
		Undetermined.String() != "undetermined" {
		t.Error("state strings wrong")
	}
	if State(7).String() != "State(7)" {
		t.Error("unknown state string wrong")
	}
}
