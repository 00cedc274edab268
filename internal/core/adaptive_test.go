package core

import (
	"testing"

	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/units"
)

func TestAdaptiveStartsAtSeed(t *testing.T) {
	var cfgs TCDConfigs
	a := new(AdaptiveTCD)
	a.Init(cfgs.Intern(testCfg()))
	if a.inner.maxTon != 30*units.Microsecond {
		t.Errorf("initial threshold = %v, want seed", a.inner.maxTon)
	}
	if a.inner.State() != NonCongestion {
		t.Errorf("initial state = %v", a.inner.State())
	}
}

func TestAdaptiveTracksShortOnPeriods(t *testing.T) {
	var cfgs TCDConfigs
	a := new(AdaptiveTCD)
	a.Init(cfgs.Intern(testCfg()))
	// Simulate a regime with 4us ON periods (much shorter than the 30us
	// seed): OFF at t, ON end at t+1us, next OFF at +4us...
	at := units.Time(0)
	for i := 0; i < 50; i++ {
		a.OnOffStart(at)
		a.OnOffEnd(at + units.Microsecond)
		at += 5 * units.Microsecond
	}
	// Threshold converges toward adaptiveMargin * 4us = 8us, clamped at
	// the floor.
	th := a.inner.maxTon
	if th > 10*units.Microsecond {
		t.Errorf("threshold %v did not adapt down toward 8us", th)
	}
	if th < a.floor {
		t.Errorf("threshold %v fell below the floor", th)
	}
	if a.Updates == 0 {
		t.Error("no threshold updates recorded")
	}
}

func TestAdaptiveCeilClamp(t *testing.T) {
	var cfgs TCDConfigs
	a := new(AdaptiveTCD)
	a.Init(cfgs.Intern(testCfg()))
	// Enormous ON periods: threshold must stop at the ceiling, 4*bound.
	at := units.Time(0)
	for i := 0; i < 20; i++ {
		a.OnOffStart(at)
		a.OnOffEnd(at + units.Microsecond)
		at += 10 * units.Millisecond
	}
	if want := 4 * testCfg().MaxTon; a.inner.maxTon != want {
		t.Errorf("threshold = %v, want clamped at ceil %v", a.inner.maxTon, want)
	}
}

func TestAdaptiveDetectsLikeStatic(t *testing.T) {
	var cfgs TCDConfigs
	a := new(AdaptiveTCD)
	a.Init(cfgs.Intern(testCfg()))
	// Basic ternary behaviour is preserved: OFF then quick dequeue -> UE.
	a.OnOffStart(time(10))
	a.OnOffEnd(time(15))
	p := &packet.Packet{Kind: packet.Data, Code: packet.Capable}
	a.OnDequeue(time(16), p, 50*units.KB)
	if a.inner.State() != Undetermined || p.Code != packet.UE {
		t.Errorf("state %v code %v, want undetermined/UE", a.inner.State(), p.Code)
	}
	if a.Inner() == nil {
		t.Error("inner accessor nil")
	}
}

// The adaptive variant moves the detection threshold, not the queue-trend
// period: after the threshold has adapted well below the static bound,
// the post-undetermined trend window still spans the static MaxTon.
func TestAdaptiveTrendPeriodStaysAtStaticBound(t *testing.T) {
	static := testCfg()
	var cfgs TCDConfigs
	a := new(AdaptiveTCD)
	a.Init(cfgs.Intern(static))
	at := units.Time(0)
	for i := 0; i < 50; i++ { // 4us ON periods pull the threshold toward 8us
		a.OnOffStart(at)
		a.OnOffEnd(at + units.Microsecond)
		at += 5 * units.Microsecond
	}
	th := a.inner.maxTon
	if th >= static.MaxTon/2 {
		t.Fatalf("threshold %v did not adapt below half the static bound %v", th, static.MaxTon)
	}
	lastOffEnd := at - 4*units.Microsecond
	p := &packet.Packet{Kind: packet.Data, Code: packet.Capable}
	a.OnDequeue(lastOffEnd+units.Microsecond, p, 100*units.KB)
	if a.inner.State() != Undetermined {
		t.Fatalf("state %v after a dequeue inside the ON-OFF pattern, want undetermined", a.inner.State())
	}
	// Continuous ON from the adapted threshold on: the first dequeue arms
	// the trend check at 100 KB.
	t0 := lastOffEnd + th
	a.OnDequeue(t0, p, 100*units.KB)
	// Grown past CongThresh a whole adapted threshold later, but short of
	// the static bound: still observing.
	a.OnDequeue(t0+static.MaxTon-units.Microsecond, p, 300*units.KB)
	if a.inner.State() != Undetermined {
		t.Fatalf("state %v %v into the trend window, want undetermined until the static bound %v",
			a.inner.State(), static.MaxTon-units.Microsecond, static.MaxTon)
	}
	p = &packet.Packet{Kind: packet.Data, Code: packet.Capable}
	a.OnDequeue(t0+static.MaxTon, p, 300*units.KB)
	if a.inner.State() != Congestion || p.Code != packet.CE {
		t.Errorf("state %v code %v one static bound into the trend window, want congestion/CE", a.inner.State(), p.Code)
	}
}

func TestNPECNSuppressesPausedMarks(t *testing.T) {
	d := new(NPECN)
	d.Init(DefaultREDConfig(), 1)
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

// Packets already queued when the pause begins are tainted too, even if
// nothing arrives during the pause.
func TestNPECNTaintsStandingQueue(t *testing.T) {
	d := new(NPECN)
	d.Init(DefaultREDConfig(), 2)
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
