package core

import (
	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/units"
)

// NPECN is Non-PAUSE ECN, the detection mechanism of PCN (Cheng et al.,
// NSDI'20) that the paper's related-work section contrasts with TCD:
// switches count packets that experienced a pause and mark ECN only on
// non-paused packets; receivers then classify a flow as congested when
// nearly all of its packets in a window are marked.
//
// NP-ECN is implemented here as an additional baseline so the two
// accurate-detection designs can be compared on the same scenarios (see
// the ablation experiment). It has no parameters of its own: it marks
// like the RED it wraps but suppresses marks on packets that were queued
// while the port was paused (the "non-PAUSE" rule).
type NPECN struct {
	red    RED
	paused bool
	// tainted is the number of bytes still queued that experienced a
	// pause (either already queued when the OFF began — captured at the
	// first dequeue after it — or arriving during it).
	tainted units.ByteSize
	// pendingTaint marks that an OFF period started and the standing
	// queue length has not been captured yet.
	pendingTaint bool
	// Marked counts CE marks applied.
	Marked uint64
	// Suppressed counts marks withheld because the packet was paused.
	Suppressed uint64
}

// Init makes d, wherever it lives, the detector around a RED initialized
// with cfg and seed.
func (d *NPECN) Init(cfg REDConfig, seed uint64) {
	*d = NPECN{}
	d.red.Init(cfg, seed)
}

// OnOffStart implements fabric.Detector: everything currently queued
// becomes pause-tainted (the depth is captured at the next dequeue,
// when the queue length is visible).
func (d *NPECN) OnOffStart(now units.Time) {
	d.paused = true
	d.pendingTaint = true
}

// OnOffEnd implements fabric.Detector.
func (d *NPECN) OnOffEnd(now units.Time) { d.paused = false }

// OnEnqueue implements fabric.EnqueueDetector: remember the queue depth
// at pause time via byte accounting.
func (d *NPECN) OnEnqueue(now units.Time, pkt *packet.Packet, qlen units.ByteSize) {
	if d.paused {
		// Packets arriving while paused are tainted; account them so the
		// dequeue side knows how much of the queue head is tainted.
		d.tainted = qlen + pkt.Size
	}
}

// OnDequeue implements fabric.Detector: RED marking gated by the
// non-PAUSE rule.
func (d *NPECN) OnDequeue(now units.Time, pkt *packet.Packet, qlen units.ByteSize) {
	if d.pendingTaint {
		// First dequeue since the OFF began: the whole standing queue
		// (qlen after removing pkt, plus pkt itself) waited through it.
		if t := qlen + pkt.Size; t > d.tainted {
			d.tainted = t
		}
		d.pendingTaint = false
	}
	pauseTainted := d.tainted > 0
	if pauseTainted {
		d.tainted -= pkt.Size
		if d.tainted < 0 {
			d.tainted = 0
		}
	}
	if d.paused {
		pauseTainted = true
	}
	before := pkt.Code
	d.red.OnDequeue(now, pkt, qlen)
	if pkt.Code != before {
		if pauseTainted {
			// Non-PAUSE rule: withhold the mark.
			pkt.Code = before
			d.Suppressed++
			return
		}
		d.Marked++
	}
}
