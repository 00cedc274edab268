package exp

import (
	"math"
	"slices"
	"sync"
	"testing"

	"github.com/tcdnet/tcd/internal/fault"
	"github.com/tcdnet/tcd/internal/host"
	"github.com/tcdnet/tcd/internal/obs"
	"github.com/tcdnet/tcd/internal/topo"
	"github.com/tcdnet/tcd/internal/units"
)

// specFromBytes derives a bounded, always-valid fault schedule from raw
// fuzz bytes: up to six events, each decoded from a six-byte record.
// Keeping the construction total (never returning an invalid spec) lets
// the fuzz target assert that Inject succeeds and the run upholds every
// invariant, instead of wasting executions on rejected input: a record
// whose events would duplicate or conflict with one already decoded is
// skipped.
func specFromBytes(raw []byte) *fault.Spec {
	links := []string{"R0-T2", "S1-T0", "T0-L0", "L0-T2"}
	ports := []string{"T2->L0", "L0->T0", "T0->S1", "L0->T2"}
	var evs []fault.Event
	for i := 0; i+6 <= len(raw) && len(evs) < 6; i += 6 {
		b := raw[i : i+6]
		at := 100 + float64(b[2])*5 // 100..1375 us, inside the run
		link := links[int(b[1])%len(links)]
		port := ports[int(b[1])%len(ports)]
		until := at + 10 + float64(b[5])*4
		var rec []fault.Event
		switch b[0] % 9 {
		case 0:
			period := 20 + float64(b[3])
			down := 1 + float64(b[4])*(period-2)/255
			rec = []fault.Event{{Kind: "flap", Link: link, AtUs: at,
				PeriodUs: period, DownUs: down, UntilUs: until}}
		case 1:
			rec = []fault.Event{{Kind: "link-down", Link: link, AtUs: at},
				{Kind: "link-up", Link: link, AtUs: at + 20 + float64(b[3])}}
		case 2:
			prob := (1 + float64(b[3]%100)) / 100
			rec = []fault.Event{{Kind: "ctrl-loss", Port: port, AtUs: at,
				Prob: prob, Seed: uint64(b[4]) + 1, UntilUs: until}}
		case 3:
			rec = []fault.Event{{Kind: "ctrl-delay", Port: port, AtUs: at,
				DelayUs: 1 + float64(b[3]), UntilUs: until}}
		case 4:
			rec = []fault.Event{{Kind: "freeze", Port: port, AtUs: at},
				{Kind: "thaw", Port: port, AtUs: at + 20 + float64(b[3])}}
		case 5:
			// Pause storm, sustained (down 0) or bursty; down stays below
			// the 20us period floor so every decode is a valid storm.
			period := 20 + float64(b[3])
			down := 0.0
			if b[4]%2 == 1 {
				down = 1 + float64(b[4]%16)
			}
			rec = []fault.Event{{Kind: "pause-storm", Port: port, AtUs: at,
				PeriodUs: period, DownUs: down, UntilUs: until}}
		case 6:
			period := 20 + float64(b[3])
			down := 1 + float64(b[4]%18)
			rec = []fault.Event{{Kind: "camouflage", Port: port, AtUs: at,
				PeriodUs: period, DownUs: down, UntilUs: until}}
		case 7:
			prob := (1 + float64(b[3]%100)) / 100
			rec = []fault.Event{{Kind: "spoof-mark", Port: port, AtUs: at,
				Prob: prob, Seed: uint64(b[4]) + 1, UntilUs: until}}
		case 8:
			rec = []fault.Event{{Kind: "route-rewrite", Port: port, AtUs: at,
				UntilUs: until}}
		}
		next := append(slices.Clip(evs), rec...)
		if (&fault.Spec{Events: next}).Validate() == nil {
			evs = next
		}
	}
	return &fault.Spec{Events: evs}
}

const fuzzHorizon = 1500 * units.Microsecond

// fuzzRun drives a small Figure-2 workload with the given schedule and
// returns the trace. NewRig panics on a schedule that does not inject
// cleanly and Rig.Run on a violated invariant, either of which fails the
// fuzz target like any other panic.
func fuzzRun(spec *fault.Spec) []obs.Event {
	ring := obs.NewRing(1 << 17)
	rig := NewFig2Rig(topo.Fig2Config{}, RigConfig{
		Run: Run{Kind: CEE, Seed: 9, Obs: obs.Config{Rec: ring}, Faults: spec}, Det: DetTCD,
	})
	line := 40 * units.Gbps
	rig.Mgr.AddFlow(rig.F2.S1, rig.F2.R1, 10*units.MB, 0, rig.NewCC(CCDCQCN, line))
	rig.LaunchBursts(100*units.Microsecond, 32*units.KB, 2, 50*units.Microsecond)
	rig.Mgr.AddFlow(rig.F2.S0, rig.F2.R0, 10*units.MB, 200*units.Microsecond, host.FixedRate(10*units.Gbps))
	rig.Run(fuzzHorizon)
	return ring.Events()
}

var (
	goldenOnce   sync.Once
	goldenEvents []obs.Event
)

// golden returns the fault-free reference trace, computed once per
// process (fuzz workers each pay it once).
func golden(t *testing.T) []obs.Event {
	goldenOnce.Do(func() {
		goldenEvents = fuzzRun(nil)
	})
	return goldenEvents
}

// FuzzFaultSchedule throws random (bounded) fault schedules at the
// simulator and checks the properties no schedule may break: the run
// never panics, the scheduler heap stays internally consistent, the
// network-wide invariants hold at the horizon, and the trace prefix
// strictly before the schedule's smallest at_us matches the fault-free
// golden run event for event.
func FuzzFaultSchedule(f *testing.F) {
	f.Add([]byte{})                                                              // empty schedule
	f.Add([]byte{0, 0, 10, 50, 128, 100})                                        // one flap on R0-T2
	f.Add([]byte{1, 1, 0, 30, 0, 0, 4, 3, 40, 60, 0, 90})                        // down/up + freeze/thaw
	f.Add([]byte{2, 0, 20, 49, 7, 200, 3, 2, 60, 15, 0, 250})                    // ctrl-loss + ctrl-delay
	f.Add([]byte{0, 3, 1, 0, 255, 255, 1, 2, 200, 90, 0, 0, 2, 1, 5, 99, 1, 30}) // mixed
	f.Add([]byte{5, 0, 20, 30, 1, 100, 6, 3, 40, 10, 7, 200})                    // bursty storm + camouflage
	f.Add([]byte{7, 2, 10, 49, 8, 250, 8, 1, 30, 0, 0, 90})                      // spoof-mark + route-rewrite

	f.Fuzz(func(t *testing.T, raw []byte) {
		spec := specFromBytes(raw)
		events := fuzzRun(spec)
		g := golden(t)
		// Every kind fires its first action at its at_us.
		first := units.Forever
		for _, ev := range spec.Events {
			first = min(first, units.Time(math.Round(ev.AtUs*float64(units.Microsecond))))
		}
		for i := 0; i < len(g) && i < len(events); i++ {
			if g[i].At >= first || events[i].At >= first {
				break
			}
			if g[i] != events[i] {
				t.Fatalf("trace diverged at event %d, before the first injection (%v):\n  golden:  %+v\n  faulted: %+v\nspec: %+v",
					i, first, g[i], events[i], spec)
			}
		}
	})
}
