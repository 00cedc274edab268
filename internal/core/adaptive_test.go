package core

import (
	"testing"

	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/rng"
	"github.com/tcdnet/tcd/internal/units"
)

func adaptCfg() AdaptiveConfig {
	return DefaultAdaptiveConfig(testCfg())
}

func TestAdaptiveStartsAtSeed(t *testing.T) {
	a := NewAdaptiveTCD(adaptCfg())
	if a.Threshold() != 30*units.Microsecond {
		t.Errorf("initial threshold = %v, want seed", a.Threshold())
	}
	if a.State() != NonCongestion {
		t.Errorf("initial state = %v", a.State())
	}
}

func TestAdaptiveTracksShortOnPeriods(t *testing.T) {
	a := NewAdaptiveTCD(adaptCfg())
	// Simulate a regime with 4us ON periods (much shorter than the 30us
	// seed): OFF at t, ON end at t+1us, next OFF at +4us...
	at := units.Time(0)
	for i := 0; i < 50; i++ {
		a.OnOffStart(at)
		a.OnOffEnd(at + units.Microsecond)
		at += 5 * units.Microsecond
	}
	// Threshold converges toward Margin * 4us = 8us, clamped at Floor.
	th := a.Threshold()
	if th > 10*units.Microsecond {
		t.Errorf("threshold %v did not adapt down toward 8us", th)
	}
	if th < adaptCfg().Floor {
		t.Errorf("threshold %v fell below the floor", th)
	}
	if a.Updates == 0 {
		t.Error("no threshold updates recorded")
	}
}

func TestAdaptiveCeilClamp(t *testing.T) {
	cfg := adaptCfg()
	a := NewAdaptiveTCD(cfg)
	// Enormous ON periods: threshold must stop at Ceil.
	at := units.Time(0)
	for i := 0; i < 20; i++ {
		a.OnOffStart(at)
		a.OnOffEnd(at + units.Microsecond)
		at += 10 * units.Millisecond
	}
	if a.Threshold() != cfg.Ceil {
		t.Errorf("threshold = %v, want clamped at ceil %v", a.Threshold(), cfg.Ceil)
	}
}

func TestAdaptiveDetectsLikeStatic(t *testing.T) {
	a := NewAdaptiveTCD(adaptCfg())
	// Basic ternary behaviour is preserved: OFF then quick dequeue -> UE.
	a.OnOffStart(time(10))
	a.OnOffEnd(time(15))
	p := &packet.Packet{Kind: packet.Data, Code: packet.Capable}
	a.OnDequeue(time(16), p, 50*units.KB)
	if a.State() != Undetermined || p.Code != packet.UE {
		t.Errorf("state %v code %v, want undetermined/UE", a.State(), p.Code)
	}
	if a.Inner() == nil {
		t.Error("inner accessor nil")
	}
}

func TestAdaptiveValidation(t *testing.T) {
	for _, bad := range []AdaptiveConfig{
		{TCDConfig: TCDConfig{MaxTon: units.Microsecond, CongThresh: 1}, Gain: 0, Margin: 2},
		{TCDConfig: TCDConfig{MaxTon: units.Microsecond, CongThresh: 1}, Gain: 0.5, Margin: 0.5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid adaptive config did not panic")
				}
			}()
			NewAdaptiveTCD(bad)
		}()
	}
}

func TestNPECNSuppressesPausedMarks(t *testing.T) {
	red := NewRED(DefaultREDConfig(), rng.New(1))
	d := NewNPECN(NPECNConfig{RED: DefaultREDConfig()}, red)
	// Packet enqueued during a pause with a deep queue: RED would mark,
	// NP-ECN suppresses.
	d.OnOffStart(0)
	p := &packet.Packet{Kind: packet.Data, Code: packet.Capable, Size: 1048}
	d.OnEnqueue(1, p, 300*units.KB)
	d.OnOffEnd(2)
	d.OnDequeue(3, p, 300*units.KB)
	if p.Code == packet.CE {
		t.Error("NP-ECN marked a pause-tainted packet")
	}
	if d.Suppressed == 0 {
		t.Error("suppression not recorded")
	}
	// After the tainted bytes drain, marks resume.
	d.tainted = 0
	p2 := &packet.Packet{Kind: packet.Data, Code: packet.Capable, Size: 1048}
	d.OnDequeue(10, p2, 300*units.KB)
	if p2.Code != packet.CE {
		t.Error("NP-ECN failed to mark a clean packet above Kmax")
	}
	if d.Marked != 1 {
		t.Errorf("Marked = %d, want 1", d.Marked)
	}
}

func TestCongestedByFraction(t *testing.T) {
	if !CongestedByFraction(95, 100, 0.95) {
		t.Error("95/100 should be congested at the 95% rule")
	}
	if CongestedByFraction(94, 100, 0.95) {
		t.Error("94/100 should not be congested")
	}
	if CongestedByFraction(0, 0, 0.95) {
		t.Error("empty window should not be congested")
	}
}

// Packets already queued when the pause begins are tainted too, even if
// nothing arrives during the pause.
func TestNPECNTaintsStandingQueue(t *testing.T) {
	d := NewNPECN(NPECNConfig{RED: DefaultREDConfig()}, NewRED(DefaultREDConfig(), rng.New(2)))
	// Deep standing queue, then a pause with no arrivals.
	d.OnOffStart(5)
	d.OnOffEnd(6)
	p := &packet.Packet{Kind: packet.Data, Code: packet.Capable, Size: 1048}
	d.OnDequeue(7, p, 300*units.KB)
	if p.Code == packet.CE {
		t.Error("standing-queue packet marked despite experiencing the pause")
	}
	if d.Suppressed != 1 {
		t.Errorf("Suppressed = %d, want 1", d.Suppressed)
	}
}
