// Network-wide invariant checking: structural properties every run must
// satisfy regardless of workload, detector, or injected faults. The exp
// test binary flips StrictInvariants on in TestMain, so every experiment
// exercised by the test suite doubles as an invariant test.

package exp

import (
	"fmt"
	"strings"

	"github.com/tcdnet/tcd/internal/cbfc"
	"github.com/tcdnet/tcd/internal/pfc"
	"github.com/tcdnet/tcd/internal/units"
)

// StrictInvariants makes every Rig.Run audit CheckInvariants after the
// horizon and panic on the first violation. Off by default (production
// runs pay nothing); the exp tests enable it globally.
var StrictInvariants bool

// CheckInvariants audits the rig after (or during) a run:
//
//   - Payload conservation: every payload byte a NIC serialized is
//     delivered, destroyed by an injected fault, queued in a switch, or
//     in flight on a wire. Nothing leaks, nothing is minted.
//   - No negative CBFC credit: a gate may never overdraw FCCL.
//   - Buffer bounds on a healthy fabric: no PFC ingress beyond
//     Xoff+Headroom, no CBFC ingress beyond the configured buffer (the
//     Violations counters). Skipped once any fault primitive touched the
//     network — a lost PAUSE or FCCL legitimately breaks losslessness,
//     which is precisely the hazard the injector exists to create.
//   - Xoff ⇒ eventual Xon: a PFC meter may hold PAUSE outstanding only
//     while its occupancy is still above Xon (OnFree resumes the moment
//     it drains, so a pause can never outlive its cause); symmetrically,
//     occupancy above Xoff must have a PAUSE outstanding.
//   - Scheduler heap consistency (sim.DebugCheck).
//
// It returns nil when all hold, or one error describing every violation.
func CheckInvariants(r *Rig) error {
	var errs []string
	fail := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }

	var injected units.ByteSize
	for _, f := range r.Mgr.Flows() {
		injected += f.BytesSent()
	}
	delivered := r.Mgr.TotalRxed()
	dropped := r.Net.FaultDropPayload()
	inFlight := r.Net.InFlightPayload()
	queued := r.Net.QueuedPayload()
	if accounted := delivered + dropped + inFlight + queued; injected != accounted {
		fail("conservation: injected %d B != delivered %d + fault-dropped %d + in-flight %d + queued %d = %d B (leak %d B)",
			injected, delivered, dropped, inFlight, queued, accounted, injected-accounted)
	}

	nPrio := r.Net.Config().Priorities
	healthy := !r.Net.Faulted()
	for _, p := range r.Net.Ports() {
		if g, ok := p.Gate().(*cbfc.Gate); ok {
			for vl := 0; vl < nPrio; vl++ {
				if c := g.Credits(uint8(vl)); c < 0 {
					fail("negative credit: port %s VL %d overdrew FCCL by %d B", p.Label(), vl, -c)
				}
			}
		}
		m := p.Meter()
		if m == nil {
			continue
		}
		if healthy && m.Violations() > 0 {
			fail("buffer bound: port %s ingress exceeded its flow-control bound %d times (max occupancy %d B)",
				p.Label(), m.Violations(), m.MaxOccupancy())
		}
		if m, ok := m.(*pfc.Meter); ok {
			for prio := 0; prio < nPrio; prio++ {
				occ := m.Occupancy(uint8(prio))
				if m.PauseOutstanding(uint8(prio)) && occ <= r.PFCCfg.Xon {
					fail("stuck pause: port %s prio %d holds PAUSE at occupancy %d B <= Xon %d B",
						p.Label(), prio, occ, r.PFCCfg.Xon)
				}
				if !m.PauseOutstanding(uint8(prio)) && occ > r.PFCCfg.Xoff {
					fail("missing pause: port %s prio %d at occupancy %d B > Xoff %d B without PAUSE",
						p.Label(), prio, occ, r.PFCCfg.Xoff)
				}
			}
		}
	}

	if err := r.Sched.DebugCheck(); err != nil {
		fail("scheduler: %v", err)
	}

	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("invariants violated:\n  %s", strings.Join(errs, "\n  "))
}
