package obs

import (
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"time"

	"github.com/tcdnet/tcd/internal/sim"
	"github.com/tcdnet/tcd/internal/units"
)

// Progress reports simulation liveness: simulated time versus wall time,
// events executed per wall second, and event-heap depth. It schedules
// itself on the simulator clock, so reports are deterministic points in
// sim time while the wall-side numbers measure the host.
//
// The ticker re-arms itself only while it runs, so it adds one pending
// event at a time; runs bounded by RunUntil(horizon) simply leave the
// final tick unexecuted.
type Progress struct {
	sched *sim.Scheduler
	every units.Time
	w     io.Writer

	wallStart time.Time
	lastWall  time.Time
	lastDone  uint64
}

// AttachProgress starts a progress ticker on s reporting every simEvery
// of simulated time to w (stderr if nil). It must be called before the
// run starts.
func AttachProgress(s *sim.Scheduler, simEvery units.Time, w io.Writer) *Progress {
	if simEvery <= 0 {
		simEvery = units.Millisecond
	}
	if w == nil {
		w = os.Stderr
	}
	now := time.Now()
	p := &Progress{sched: s, every: simEvery, w: w, wallStart: now, lastWall: now}
	s.After(simEvery, p.tick)
	return p
}

func (p *Progress) tick() {
	p.report()
	p.sched.After(p.every, p.tick)
}

// report prints one progress line immediately (the ticker calls it; a
// final call after the run gives closing totals).
func (p *Progress) report() {
	now := time.Now()
	done := p.sched.Processed()
	interval := now.Sub(p.lastWall).Seconds()
	rate := 0.0
	if interval > 0 {
		rate = float64(done-p.lastDone) / interval
	}
	fmt.Fprintf(p.w, "progress: sim=%v wall=%v events=%d rate=%.3gM ev/s pending=%d\n",
		p.sched.Now(), now.Sub(p.wallStart).Round(time.Millisecond),
		done, rate/1e6, p.sched.Pending())
	p.lastWall = now
	p.lastDone = done
}

// Config bundles the observability hooks one run threads through the
// experiment stack. The zero value disables everything.
type Config struct {
	// Rec receives structured events (nil = event log off).
	Rec Recorder
	// Metrics, if non-nil, is populated by the rig's end-of-run snapshot.
	Metrics *Registry
	// Telemetry, if non-nil, folds the event stream into bounded-memory
	// histograms and windowed aggregates; the rig chains it in front of
	// Rec and attaches the queue-depth sampler.
	Telemetry *Telemetry
	// Live, if non-nil, is the introspection endpoint the rig publishes
	// metric and progress snapshots to, once per simulated millisecond.
	Live *Live
	// ProgressEvery enables the progress ticker at this sim interval.
	ProgressEvery units.Time
	// ProgressOut receives progress lines (stderr if nil).
	ProgressOut io.Writer
}

// Attach installs the configured scheduler instrumentation on s.
func (c *Config) Attach(s *sim.Scheduler) {
	if c.ProgressEvery > 0 {
		AttachProgress(s, c.ProgressEvery, c.ProgressOut)
	}
}

// StartCPUProfile writes a CPU profile to path until the returned stop
// function is called.
func StartCPUProfile(path string) (stop func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}
