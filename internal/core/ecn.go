package core

import (
	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/rng"
	"github.com/tcdnet/tcd/internal/units"
)

// REDConfig is the RED/ECN dequeue-marking configuration DCQCN switches
// use (the CEE baseline detector in §2.1 and §3.1).
type REDConfig struct {
	// Kmin is the queue length below which nothing is marked.
	Kmin units.ByteSize
	// Kmax is the queue length above which every packet is marked.
	Kmax units.ByteSize
	// Pmax is the marking probability at Kmax.
	Pmax float64
}

// DefaultREDConfig returns the DCQCN-recommended parameters the paper
// uses: Kmin 5 KB, Kmax 200 KB, Pmax 1%.
func DefaultREDConfig() REDConfig {
	return REDConfig{Kmin: 5 * units.KB, Kmax: 200 * units.KB, Pmax: 0.01}
}

// RED is the baseline CEE detector: instantaneous-queue RED marking at
// dequeue. It is oblivious to PAUSE — the defect the paper demonstrates:
// queue buildup caused by OFF periods is marked exactly like congestion.
type RED struct {
	cfg REDConfig
	rnd rng.Source
	// Marked counts CE marks applied.
	Marked uint64
}

// NewRED builds the detector on its own random stream: a copy of rnd.
func NewRED(cfg REDConfig, rnd *rng.Source) *RED {
	return &RED{cfg: cfg, rnd: *rnd}
}

// Init makes d, wherever it lives, the detector NewRED builds from
// rng.New(seed).
func (d *RED) Init(cfg REDConfig, seed uint64) {
	*d = RED{cfg: cfg}
	d.rnd.Seed(seed)
}

// OnDequeue implements fabric.Detector.
func (d *RED) OnDequeue(now units.Time, pkt *packet.Packet, qlen units.ByteSize) {
	mark := false
	switch {
	case qlen <= d.cfg.Kmin:
	case qlen >= d.cfg.Kmax:
		mark = true
	default:
		p := d.cfg.Pmax * float64(qlen-d.cfg.Kmin) / float64(d.cfg.Kmax-d.cfg.Kmin)
		mark = d.rnd.Bool(p)
	}
	if mark {
		before := pkt.Code
		pkt.Code = pkt.Code.MarkCE()
		if pkt.Code != before {
			d.Marked++
		}
	}
}

// OnOffStart implements fabric.Detector (ECN ignores pause state — that
// is precisely its flaw).
func (d *RED) OnOffStart(units.Time) {}

// OnOffEnd implements fabric.Detector.
func (d *RED) OnOffEnd(units.Time) {}
