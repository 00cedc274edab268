package cc

import (
	"fmt"
	"math"
	"testing"

	"github.com/tcdnet/tcd/internal/rng"
	"github.com/tcdnet/tcd/internal/sim"
	"github.com/tcdnet/tcd/internal/units"
)

// eagerAlpha is the reference for DCQCN's on-demand alpha decay: the
// per-flow timer the reaction point used to keep — armed dcqcnAlphaTimer
// after every cut, one multiplication per fire, re-armed while alpha is
// above the floor. It drives a real DCQCN whose own ageing is switched off
// (alphaDue parked at Forever after every notification), so everything
// but the decay is the production code on both sides.
type eagerAlpha struct {
	d     *DCQCN
	timer sim.Timer
}

func newEagerAlpha(s *sim.Scheduler, cfg DCQCNConfig) *eagerAlpha {
	e := &eagerAlpha{d: new(DCQCN)}
	e.d.Init(s, cfg)
	e.timer.Init(s, func(any) { e.alphaDecay() }, nil)
	return e
}

// alphaOf is d's reduction factor at the scheduler's clock: the decay
// steps due by now applied, as the next cut would apply them.
func alphaOf(d *DCQCN) float64 {
	d.ageAlpha()
	return d.alpha
}

func (e *eagerAlpha) notify(ce, ue bool) {
	e.d.OnNotify(e.d.sched.Now(), ce, ue)
	e.d.alphaDue = units.Forever
	if ce {
		e.timer.Arm(dcqcnAlphaTimer)
	}
}

func (e *eagerAlpha) alphaDecay() {
	e.d.alpha *= 1 - dcqcnG
	if e.d.alpha > 1e-4 {
		e.timer.Arm(dcqcnAlphaTimer)
	}
}

// linkDelay is the CNP's time on the wire in these tests: every fabric in
// the repo uses 4 us links, and the equivalence needs only that it is
// shorter than dcqcnAlphaTimer.
const linkDelay = 4 * units.Microsecond

// TestDCQCNLazyAlphaMatchesTimer drives the on-demand decay and the timer
// reference with the same random notification schedules — CNP bursts,
// gaps of exactly k AlphaTimers (a decay step due at the very instant of
// the cut), UE holds, a gap long enough to reach the 1e-4 floor — and
// requires bit-equal alpha and equal rate after every cut and at every
// probe of alpha between cuts. A CNP is delivered the way the fabric
// delivers one: by an event scheduled a link delay earlier, so at a
// shared instant the reference's timer (armed a whole AlphaTimer earlier)
// fires first.
func TestDCQCNLazyAlphaMatchesTimer(t *testing.T) {
	for _, mk := range []func(units.Rate) DCQCNConfig{DefaultDCQCNConfig, TCDDCQCNConfig} {
		cfg := mk(line)
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("ceil%.1f/seed%d", cfg.AlphaCeil, seed), func(t *testing.T) {
				r := rng.New(seed)
				ls, es := sim.New(), sim.New()
				lazy, eager := new(DCQCN), newEagerAlpha(es, cfg)
				lazy.Init(ls, cfg)

				type sample struct {
					at    units.Time
					alpha uint64
					rc    units.Rate
				}
				var lazyLog, eagerLog []sample
				at := linkDelay
				var probes []units.Time
				for i := 0; i < 400; i++ {
					switch k := r.Intn(8); {
					case i%150 == 100: // idle to the floor (~2400 steps from 1.2)
						at += 150 * units.Millisecond
					case k == 0: // a decay step falls due exactly at the cut
						at += units.Time(1+r.Intn(5)) * dcqcnAlphaTimer
					case k == 1: // a few timers, off the grid
						at += units.Time(1 + r.Intn(int(6*dcqcnAlphaTimer)))
					default: // CNP burst spacing
						at += units.Time(1 + r.Intn(int(50*units.Microsecond)))
					}
					ce := r.Intn(5) != 0
					deliverAt := at
					ls.At(deliverAt-linkDelay, func() {
						ls.After(linkDelay, func() {
							lazy.OnNotify(ls.Now(), ce, !ce)
							lazyLog = append(lazyLog, sample{ls.Now(), math.Float64bits(alphaOf(lazy)), lazy.rc})
						})
					})
					es.At(deliverAt-linkDelay, func() {
						es.After(linkDelay, func() {
							eager.notify(ce, !ce)
							eagerLog = append(eagerLog, sample{es.Now(), math.Float64bits(eager.d.alpha), eager.d.rc})
						})
					})
					if r.Intn(3) == 0 {
						probes = append(probes, at+units.Time(r.Intn(int(3*dcqcnAlphaTimer))))
					}
				}
				for _, p := range probes {
					ls.RunUntil(p)
					es.RunUntil(p)
					if got, want := math.Float64bits(alphaOf(lazy)), math.Float64bits(eager.d.alpha); got != want {
						t.Fatalf("alpha at %v: lazy %x, timer %x", p, got, want)
					}
				}
				ls.Run()
				es.Run()
				if len(lazyLog) != len(eagerLog) || len(lazyLog) != 400 {
					t.Fatalf("delivered %d / %d notifications, want 400", len(lazyLog), len(eagerLog))
				}
				floored := false
				for i := range lazyLog {
					if lazyLog[i] != eagerLog[i] {
						t.Fatalf("notification %d at %v: lazy alpha %x rc %v, timer alpha %x rc %v",
							i, lazyLog[i].at, lazyLog[i].alpha, lazyLog[i].rc, eagerLog[i].alpha, eagerLog[i].rc)
					}
					// A cut right after the floor was reached starts from
					// alpha <= 1e-4 pulled up by one gain step.
					if math.Float64frombits(lazyLog[i].alpha) <= 1e-4+dcqcnG*cfg.AlphaCeil {
						floored = true
					}
				}
				if !floored {
					t.Error("no schedule idled long enough to reach the alpha floor")
				}
				if got, want := math.Float64bits(alphaOf(lazy)), math.Float64bits(eager.d.alpha); got != want {
					t.Errorf("final alpha: lazy %x, timer %x", got, want)
				}
				if lazy.CurrentRate() != eager.d.CurrentRate() {
					t.Errorf("final rate: lazy %v, timer %v", lazy.CurrentRate(), eager.d.CurrentRate())
				}
			})
		}
	}
}

// A reaction point that was cut and then left alone keeps one event
// queued — the increase timer — not an alpha timer beside it.
func TestDCQCNCutThenIdleKeepsOneEvent(t *testing.T) {
	s := sim.New()
	d := new(DCQCN)
	d.Init(s, DefaultDCQCNConfig(line))
	s.At(0, func() { d.OnNotify(0, true, false) })
	s.RunUntil(10 * units.Microsecond)
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending() = %d after a cut, want 1 (the increase timer)", got)
	}
	before := s.Processed()
	s.RunUntil(20 * dcqcnAlphaTimer)
	if got := s.Processed() - before; got != 0 {
		t.Errorf("%d events fired in 20 alpha intervals after the cut, want 0 (the increase timer is 1500 us out)", got)
	}
	if alphaOf(d) >= DefaultDCQCNConfig(line).AlphaCeil*0.95 {
		t.Errorf("alpha = %v after 20 idle intervals, want it decayed", alphaOf(d))
	}
}
