package core

import (
	"testing"

	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/rng"
	"github.com/tcdnet/tcd/internal/units"
)

func redDq(d *RED, q units.ByteSize) *packet.Packet {
	p := &packet.Packet{Kind: packet.Data, Code: packet.Capable}
	d.OnDequeue(0, p, q)
	return p
}

func TestREDBelowKminNeverMarks(t *testing.T) {
	d := NewRED(DefaultREDConfig(), rng.New(1))
	for i := 0; i < 1000; i++ {
		if redDq(d, 4*units.KB).Code == packet.CE {
			t.Fatal("marked below Kmin")
		}
	}
	if d.Marked != 0 {
		t.Error("Marked counter nonzero")
	}
}

func TestREDAboveKmaxAlwaysMarks(t *testing.T) {
	d := NewRED(DefaultREDConfig(), rng.New(1))
	for i := 0; i < 100; i++ {
		if redDq(d, 300*units.KB).Code != packet.CE {
			t.Fatal("not marked above Kmax")
		}
	}
	if d.Marked != 100 {
		t.Errorf("Marked = %d, want 100", d.Marked)
	}
}

func TestREDLinearRampProbability(t *testing.T) {
	d := NewRED(DefaultREDConfig(), rng.New(7))
	// Midpoint of [5KB, 200KB] -> p = Pmax/2 = 0.5%.
	const n = 200000
	marks := 0
	for i := 0; i < n; i++ {
		if redDq(d, 102500).Code == packet.CE {
			marks++
		}
	}
	p := float64(marks) / n
	if p < 0.003 || p > 0.007 {
		t.Errorf("midpoint marking probability = %v, want ~0.005", p)
	}
}

func TestREDIgnoresPauseCallbacks(t *testing.T) {
	d := NewRED(DefaultREDConfig(), rng.New(1))
	d.OnOffStart(0)
	d.OnOffEnd(1)
	// Still marks purely on queue length — the documented flaw.
	if redDq(d, 300*units.KB).Code != packet.CE {
		t.Error("pause callbacks changed RED behaviour")
	}
}

func TestREDDoesNotMarkNonCapable(t *testing.T) {
	d := NewRED(DefaultREDConfig(), rng.New(1))
	p := &packet.Packet{Kind: packet.Data, Code: packet.NotCapable}
	d.OnDequeue(0, p, 300*units.KB)
	if p.Code != packet.NotCapable || d.Marked != 0 {
		t.Error("marked a non-ECN-capable packet")
	}
}

func fecnDq(d *FECN, q units.ByteSize, size units.ByteSize) *packet.Packet {
	p := &packet.Packet{Kind: packet.Data, Code: packet.Capable, Size: size}
	d.OnEnqueue(0, p, q)
	d.OnDequeue(0, p, q)
	return p
}

// fixedCredits is a CreditGate with the same credit on every lane.
type fixedCredits int64

func (c *fixedCredits) Credits(uint8) int64 { return int64(*c) }

func TestFECNMarksRootOnly(t *testing.T) {
	credits := fixedCredits(1 << 20)
	d := new(FECN)
	d.Init(DefaultFECNConfig(), &credits, 0)
	// Queue above threshold, credits rich: root -> mark.
	if fecnDq(d, 60*units.KB, 1048).Code != packet.CE {
		t.Error("root not marked")
	}
	// Credit-starved: victim -> no mark.
	credits = 1000
	if fecnDq(d, 60*units.KB, 1048).Code == packet.CE {
		t.Error("victim marked")
	}
	// Below threshold: no mark regardless.
	credits = 1 << 20
	if fecnDq(d, 40*units.KB, 1048).Code == packet.CE {
		t.Error("marked below threshold")
	}
	if d.Marked != 1 {
		t.Errorf("Marked = %d, want 1", d.Marked)
	}
}

func TestFECNNilProbeActsCreditRich(t *testing.T) {
	d := new(FECN)
	d.Init(DefaultFECNConfig(), nil, 0)
	if fecnDq(d, 60*units.KB, 1048).Code != packet.CE {
		t.Error("nil-probe FECN did not mark above threshold")
	}
	d.OnOffStart(0)
	d.OnOffEnd(1)
}
