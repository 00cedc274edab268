package sim

import (
	"fmt"
	"testing"

	"github.com/tcdnet/tcd/internal/units"
)

// This file holds the hybrid scheduler's band — one sorted run, dispatched
// by a cursor — to the heap-only reference on the shapes a run has to
// survive that a heap gets for free: a cohort of thousands in one bucket,
// callbacks that schedule into the band they are running in, and Cancel,
// Reschedule and Stop of band residents from inside it.

// cohortSize is the large cohort: every CBFC meter of a k=16 fat-tree arms
// its first FCCL for the same instant, thousands of events in one level-0
// bucket.
const cohortSize = 10000

// bucket5 is a level-0 bucket a few ahead of time zero.
const bucket5 = units.Time(5) << l0GranBits

// note is one thing a program driving a scheduler observed: an event
// firing (what = its index or token) or an operation's outcome, with the
// clock and the queue depth at that moment.
type note struct {
	what    int
	now     units.Time
	pending int
}

// sameNotes requires the hybrid and the heap-only scheduler to have
// observed the same things in the same order.
func sameNotes(t *testing.T, hybrid, heapOnly []note) {
	t.Helper()
	if len(hybrid) != len(heapOnly) {
		t.Fatalf("hybrid observed %d things, heap-only %d", len(hybrid), len(heapOnly))
	}
	for i := range hybrid {
		if hybrid[i] != heapOnly[i] {
			t.Fatalf("observation %d: hybrid %+v, heap-only %+v", i, hybrid[i], heapOnly[i])
		}
	}
}

// onBoth runs prog on a fresh hybrid scheduler and a fresh heap-only one,
// DebugChecks both afterwards and requires identical observations. prog
// gets the scheduler and a function that records an observation; it
// returns the hybrid scheduler for residency assertions.
func onBoth(t *testing.T, prog func(s *Scheduler, see func(what int))) *Scheduler {
	t.Helper()
	var logs [2][]note
	var scheds [2]*Scheduler
	for i, mk := range []func() *Scheduler{New, NewHeapOnly} {
		s := mk()
		scheds[i] = s
		prog(s, func(what int) { logs[i] = append(logs[i], note{what, s.Now(), s.Pending()}) })
		if err := s.DebugCheck(); err != nil {
			t.Fatalf("scheduler %d: %v", i, err)
		}
	}
	sameNotes(t, logs[0], logs[1])
	if len(logs[0]) == 0 {
		t.Fatal("the program observed nothing")
	}
	return scheds[0]
}

// cohortTimes returns the fire times of a cohortSize cohort inside
// bucket5: all equal, or spread over the bucket out of schedule order.
func cohortTimes(distinct bool) []units.Time {
	ts := make([]units.Time, cohortSize)
	for i := range ts {
		ts[i] = bucket5
		if distinct {
			ts[i] += units.Time(uint64(i) * 2654435761 % (1 << l0GranBits))
		}
	}
	return ts
}

func TestBandLargeCohort(t *testing.T) {
	for _, distinct := range []bool{false, true} {
		t.Run(fmt.Sprintf("distinct=%v", distinct), func(t *testing.T) {
			s := onBoth(t, func(s *Scheduler, see func(int)) {
				for i, at := range cohortTimes(distinct) {
					s.At(at, func() { see(i) })
				}
				see(-1)
				s.Run()
				see(-2)
			})
			want := BandStats{Cohorts: 1, CohortEvents: cohortSize, CohortMax: cohortSize}
			if got := s.BandStats(); got != want {
				t.Errorf("BandStats() = %+v, want %+v", got, want)
			}
		})
	}
}

// Callbacks schedule into the band they run in: After(0) joins the
// running instant behind its peers, At(now+1ps) lands just past the
// cursor, and one aimed at the bucket's last picosecond goes to the end.
func TestBandInsertsFromCallbacks(t *testing.T) {
	for _, distinct := range []bool{false, true} {
		t.Run(fmt.Sprintf("distinct=%v", distinct), func(t *testing.T) {
			s := onBoth(t, func(s *Scheduler, see func(int)) {
				for i, at := range cohortTimes(distinct) {
					s.At(at, func() {
						see(i)
						s.After(0, func() { see(cohortSize + i) })
						if i%3 == 0 {
							s.At(s.Now()+1, func() { see(2*cohortSize + i) })
						}
						if i%1000 == 0 {
							s.At(bucket5+1<<l0GranBits-1, func() { see(3*cohortSize + i) })
							if err := s.DebugCheck(); err != nil {
								t.Fatalf("inside callback %d: %v", i, err)
							}
						}
					})
				}
				s.Run()
			})
			if got := s.BandStats().Inserts; got < cohortSize {
				t.Errorf("BandStats().Inserts = %d, want at least the %d After(0)s", got, cohortSize)
			}
			// With distinct times every insert lands a few keys past the
			// cursor or at the very end, the two places an insert is cheap.
			// (With equal times the After(0)s go in ahead of the growing
			// block of now+1 keys, and pay its length: an insert costs the
			// distance to the nearer end of the run, by design.)
			if distinct && s.moved > 8*cohortSize {
				t.Errorf("in-band inserts shifted %d keys for a cohort of %d: quadratic", s.moved, cohortSize)
			}
		})
	}
}

// Cancel and Reschedule of band residents from inside a callback of the
// same band, at the same instant: cancelled, moved within the band, out to
// level 0, out to level 1 and several rotations out. One Reschedule per
// callback over the whole 10 000 cohort; the work is bounded by counting
// the keys inserts shifted, not by a stopwatch.
func TestBandCancelRescheduleFromCallbacks(t *testing.T) {
	const rot = units.Time(1) << (l1GranBits + wheelBits)
	for _, distinct := range []bool{false, true} {
		t.Run(fmt.Sprintf("distinct=%v", distinct), func(t *testing.T) {
			s := onBoth(t, func(s *Scheduler, see func(int)) {
				ids := make([]EventID, cohortSize)
				outcome := func(ok bool) {
					if ok {
						see(-10)
					} else {
						see(-11)
					}
				}
				for i, at := range cohortTimes(distinct) {
					ids[i] = s.At(at, func() {
						see(i)
						// Victims are spread over the cohort: some have
						// fired (stale handle), most are band residents.
						victim := ids[(i*7919+13)%cohortSize]
						// The second in-band target is one picosecond on
						// when times are distinct (just past the cursor);
						// when every key shares the instant that would
						// build a block at the end which every move to
						// the running instant then has to pass.
						near := s.Now()
						if distinct {
							near++
						}
						switch i % 6 {
						case 0:
							outcome(s.Cancel(victim))
						case 1: // the running instant
							outcome(s.Reschedule(victim, s.Now()))
						case 2:
							outcome(s.Reschedule(victim, near))
						case 3: // out to level 0
							outcome(s.Reschedule(victim, s.Now()+3*units.Microsecond))
						case 4: // out to level 1
							outcome(s.Reschedule(victim, s.Now()+100*units.Microsecond))
						case 5: // parked rotations out
							outcome(s.Reschedule(victim, s.Now()+2*rot+5))
						}
						if i%997 == 0 {
							if err := s.DebugCheck(); err != nil {
								t.Fatalf("inside callback %d: %v", i, err)
							}
						}
					})
				}
				s.Run()
				see(-2)
			})
			if s.moved > 8*cohortSize {
				t.Errorf("%d reschedules shifted %d keys: quadratic", cohortSize, s.moved)
			}
		})
	}
}

// Stop from the middle of a cohort drains the run with it; the scheduler
// restarts clean.
func TestBandStopMidRun(t *testing.T) {
	onBoth(t, func(s *Scheduler, see func(int)) {
		var ids []EventID
		for i, at := range cohortTimes(true)[:500] {
			ids = append(ids, s.At(at, func() {
				see(i)
				if i == 250 {
					s.Cancel(ids[7]) // leave a tombstone (or a stale handle) behind
					s.Reschedule(ids[11], s.Now()+1)
					s.Stop()
					see(-3)
				}
			}))
		}
		s.At(40*units.Millisecond, func() { see(-4) }) // parked in level 1
		s.Run()
		see(-5)
		if err := s.DebugCheck(); err != nil {
			t.Fatalf("after Stop: %v", err)
		}
		s.RunUntil(s.Now())
		s.After(1, func() { see(-6) })
		s.After(units.Microsecond, func() { see(-7) })
		s.Run()
		see(-8)
	})
}

// A flush must not allocate once the run has grown to the cohort size,
// on either side of the insertion-sort cutoff.
func TestCohortFlushSteadyStateAllocs(t *testing.T) {
	for _, n := range []int{6, 3 * insertionMax} {
		s := New()
		fn := func() {}
		step := func() {
			base := (s.Now()>>l0GranBits + 2) << l0GranBits
			for i := 0; i < n; i++ {
				s.At(base+units.Time(i*37%n), fn)
			}
			s.RunUntil(base + 1<<l0GranBits)
		}
		step()
		if allocs := testing.AllocsPerRun(200, step); allocs > 0 {
			t.Errorf("cohort of %d: schedule-flush-dispatch allocates %.1f/op, want 0", n, allocs)
		}
		if got := s.BandStats().CohortMax; got != uint64(n) {
			t.Errorf("CohortMax = %d, want %d (the events did not share a bucket)", got, n)
		}
	}
}

// A timer re-armed over and over inside one band — always the run's last
// key — must not leave a tombstone per re-arm behind.
func TestBandRearmLeavesNoTrail(t *testing.T) {
	s := New()
	fired := 0
	var tm Timer
	tm.Init(s, func(any) { fired++ }, nil)
	s.At(bucket5, func() {
		for i := 0; i < 100000; i++ {
			tm.Arm(units.Time(1 + i%100))
		}
		if err := s.DebugCheck(); err != nil {
			t.Fatal(err)
		}
		if len(s.band) > 8 {
			t.Errorf("run grew to %d keys for one pending timer", len(s.band))
		}
	})
	s.Run()
	if fired != 1 {
		t.Errorf("timer fired %d times, want 1", fired)
	}
}
