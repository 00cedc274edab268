package core

import (
	"github.com/tcdnet/tcd/internal/packet"
	"github.com/tcdnet/tcd/internal/units"
)

// FECNConfig is the InfiniBand baseline detector configuration (§2.1):
// the switch marks the FECN bit when the output queue exceeds a threshold
// and the packet is not being delayed by lack of credits (the "root"
// case); credit-starved ports are "victims" and do not mark.
type FECNConfig struct {
	// Thresh is the output-queue marking threshold (50 KB in the paper).
	Thresh units.ByteSize
}

// DefaultFECNConfig returns the paper's IB threshold.
func DefaultFECNConfig() FECNConfig { return FECNConfig{Thresh: 50 * units.KB} }

// FECN is the IB CC baseline detector. Its flaw (§3.1.2): CBFC credits
// arrive periodically, so a victim port briefly looks credit-rich right
// after each FCCL update and marks packets as if it were a congestion
// root.
type FECN struct {
	cfg FECNConfig
	// gate and vl name the egress credit counter the root/victim test
	// reads (a cbfc.Gate at install time).
	gate CreditGate
	vl   uint8
	// Marked counts CE marks applied.
	Marked uint64
}

// CreditGate is the egress gate FECN reads: the available credit, in
// bytes, of one virtual lane.
type CreditGate interface {
	Credits(vl uint8) int64
}

// Init makes d, wherever it lives, the detector for one virtual lane of a
// port. gate may be nil, in which case the port is treated as always
// credit-rich (pure queue-threshold marking).
func (d *FECN) Init(cfg FECNConfig, gate CreditGate, vl uint8) {
	*d = FECN{cfg: cfg, gate: gate, vl: vl}
}

// OnEnqueue implements fabric.EnqueueDetector: the root/victim test runs
// when the packet arrives at the egress queue. A packet arriving while
// the port is credit-starved is a victim (no mark); one arriving while
// credits are available — including the window right after each periodic
// FCCL on a victim port — is judged root traffic and marked. This
// arrival-time evaluation is what makes the misbehaviour *partial*
// ("partial packets of F0 are still marked", §3.1.2): only the packets
// landing in credit-rich instants are mismarked.
func (d *FECN) OnEnqueue(now units.Time, pkt *packet.Packet, qlen units.ByteSize) {
	if qlen <= d.cfg.Thresh {
		return
	}
	if d.gate != nil && d.gate.Credits(d.vl) < int64(pkt.Size)+int64(pkt.Size) {
		return // victim: the packet is about to be delayed by lack of credits
	}
	before := pkt.Code
	pkt.Code = pkt.Code.MarkCE()
	if pkt.Code != before {
		d.Marked++
	}
}

// OnDequeue implements fabric.Detector (marking happened at enqueue).
func (d *FECN) OnDequeue(units.Time, *packet.Packet, units.ByteSize) {}

// OnOffStart implements fabric.Detector.
func (d *FECN) OnOffStart(units.Time) {}

// OnOffEnd implements fabric.Detector.
func (d *FECN) OnOffEnd(units.Time) {}
