package sim

import (
	"runtime"
	"testing"

	"github.com/tcdnet/tcd/internal/units"
)

func TestRunsInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if s.Now() != 30 {
		t.Errorf("Now() = %v, want 30", s.Now())
	}
	if s.Processed() != 3 {
		t.Errorf("Processed() = %d, want 3", s.Processed())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break violated at index %d: got %d", i, v)
		}
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	s := New()
	var fired []units.Time
	s.At(10, func() {
		s.After(5, func() { fired = append(fired, s.Now()) })
		s.At(12, func() { fired = append(fired, s.Now()) })
	})
	s.Run()
	if len(fired) != 2 || fired[0] != 12 || fired[1] != 15 {
		t.Fatalf("fired = %v, want [12 15]", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(5, func() {})
	})
	s.Run()
}

func TestAfterClampsNegative(t *testing.T) {
	s := New()
	ran := false
	s.At(10, func() {
		s.After(-5, func() { ran = true })
	})
	s.Run()
	if !ran {
		t.Error("After with negative delay did not run")
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []units.Time
	for _, tm := range []units.Time{5, 15, 25} {
		tm := tm
		s.At(tm, func() { fired = append(fired, tm) })
	}
	s.RunUntil(20)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if s.Now() != 20 {
		t.Errorf("Now() = %v, want 20 (clock advances to deadline)", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", s.Pending())
	}
	s.RunUntil(30)
	if len(fired) != 3 {
		t.Errorf("remaining event did not fire after second RunUntil")
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(units.Time(i), func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Errorf("ran %d events after Stop, want 3", count)
	}
	// Stop drains the heap: the remaining events are discarded, and a
	// subsequent Run has nothing to execute.
	if s.Len() != 0 {
		t.Errorf("Len() = %d after Stop, want 0 (heap drained)", s.Len())
	}
	s.Run()
	if count != 3 {
		t.Errorf("ran %d events total after resumed Run, want 3 (drained)", count)
	}
}

func TestLenTracksQueue(t *testing.T) {
	s := New()
	if s.Len() != 0 {
		t.Fatalf("empty scheduler Len() = %d, want 0", s.Len())
	}
	for i := 1; i <= 5; i++ {
		s.At(units.Time(i*10), func() {})
	}
	if s.Len() != 5 || s.Pending() != 5 {
		t.Fatalf("Len() = %d, Pending() = %d, want 5, 5", s.Len(), s.Pending())
	}
	s.RunUntil(30)
	if s.Len() != 2 {
		t.Errorf("Len() = %d after RunUntil(30), want 2", s.Len())
	}
	s.Run()
	if s.Len() != 0 {
		t.Errorf("Len() = %d after Run, want 0", s.Len())
	}
}

// TestStopReleasesClosures verifies the drain actually lets the captured
// state go: a finalizer on a pinned allocation must run after Stop plus GC.
func TestStopReleasesClosures(t *testing.T) {
	s := New()
	released := make(chan struct{})
	func() {
		pinned := new([1 << 16]byte)
		runtime.SetFinalizer(pinned, func(*[1 << 16]byte) { close(released) })
		s.At(units.Forever-1, func() { _ = pinned[0] })
	}()
	s.At(1, func() { s.Stop() })
	s.RunUntil(10)
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-released:
			return
		default:
		}
	}
	t.Error("pending closure still retained after Stop + GC")
}

// TestSchedulerSteadyStateAllocs is the allocation-budget gate for the
// event free list: once the heap and the free list are warm, one
// schedule-pop-run cycle must not allocate at all.
func TestSchedulerSteadyStateAllocs(t *testing.T) {
	const budget = 0.0
	s := New()
	var tick func()
	tick = func() {
		if s.Now() < 1<<40 {
			s.After(1, tick)
		}
	}
	// Warm up: fill the free list and the heap's capacity.
	s.At(0, func() { s.After(1, tick) })
	s.RunUntil(100)
	allocs := testing.AllocsPerRun(1000, func() {
		s.RunUntil(s.Now() + 1)
	})
	if allocs > budget {
		t.Errorf("steady-state event cycle allocates %.1f/op, budget %.1f", allocs, budget)
	}
}

// TestEventHandleSemantics pins the EventID contract: Cancel and
// Reschedule act on live handles exactly once, fired or cancelled
// handles go stale, and a recycled slot does not resurrect an old
// handle (generation check).
func TestEventHandleSemantics(t *testing.T) {
	s := New()
	fired := 0
	s.At(0, func() {
		id := s.After(10, func() { fired++ })
		if !s.Scheduled(id) {
			t.Error("fresh handle not Scheduled")
		}
		if !s.Cancel(id) {
			t.Error("Cancel of live handle reported false")
		}
		if s.Cancel(id) {
			t.Error("second Cancel of same handle reported true")
		}
		if s.Scheduled(id) {
			t.Error("cancelled handle still Scheduled")
		}
		// The freed slot is recycled by the next schedule; the stale
		// handle must not alias the new event.
		id2 := s.After(20, func() { fired++ })
		if s.Cancel(id) {
			t.Error("stale handle cancelled the recycled slot's event")
		}
		if !s.Reschedule(id2, s.Now()+5) {
			t.Error("Reschedule of live handle reported false")
		}
	})
	s.Run()
	if fired != 1 {
		t.Errorf("fired = %d, want 1 (cancelled event ran or survivor did not)", fired)
	}
	if s.Now() != 5 {
		t.Errorf("Now() = %v, want 5 (rescheduled fire time)", s.Now())
	}
}

// TestRescheduleResequences pins the determinism contract: a rescheduled
// event fires after everything already queued for the same instant,
// exactly as if it had been cancelled and freshly scheduled.
func TestRescheduleResequences(t *testing.T) {
	s := New()
	var order []string
	s.At(0, func() {
		id := s.At(10, func() { order = append(order, "moved") })
		s.At(20, func() { order = append(order, "sitter") })
		s.Reschedule(id, 20)
	})
	s.Run()
	if len(order) != 2 || order[0] != "sitter" || order[1] != "moved" {
		t.Errorf("order = %v, want [sitter moved]", order)
	}
}

// TestTimerChurnKeepsPendingBounded is the ghost-timer regression test:
// before the indexed heap, every re-Arm/Cancel left the superseded
// closure queued until its original fire time, so sustained churn grew
// Pending() without bound. Now each timer holds at most one queued event.
func TestTimerChurnKeepsPendingBounded(t *testing.T) {
	s := New()
	const nTimers = 8
	timers := make([]*Timer, nTimers)
	for i := range timers {
		timers[i] = NewTimer(s, func() {})
	}
	s.At(0, func() {
		for round := 1; round <= 1000; round++ {
			for _, tm := range timers {
				tm.Arm(units.Time(round) * 100)
				tm.Cancel()
				tm.Arm(units.Time(round) * 200)
				tm.Arm(units.Time(round) * 300) // re-arm of armed timer
			}
			if p := s.Pending(); p > nTimers {
				t.Fatalf("round %d: Pending() = %d, want <= %d (ghost events accumulating)", round, p, nTimers)
			}
		}
	})
	s.Run()
	if s.Pending() != 0 {
		t.Errorf("Pending() = %d after drain, want 0", s.Pending())
	}
}

// TestCancelReleasesClosure verifies Cancel drops the callback reference
// immediately — the slot free list must not retain the closure (or what
// it captures) until the slot is reused.
func TestCancelReleasesClosure(t *testing.T) {
	s := New()
	released := make(chan struct{})
	var id EventID
	func() {
		pinned := new([1 << 16]byte)
		runtime.SetFinalizer(pinned, func(*[1 << 16]byte) { close(released) })
		id = s.At(units.Forever-1, func() { _ = pinned[0] })
	}()
	if !s.Cancel(id) {
		t.Fatal("Cancel of live handle reported false")
	}
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-released:
			return
		default:
		}
	}
	t.Error("cancelled closure still retained after Cancel + GC")
}

func TestTimerBasic(t *testing.T) {
	s := New()
	fired := 0
	tm := NewTimer(s, func() { fired++ })
	if tm.Armed() {
		t.Error("new timer reports armed")
	}
	s.At(0, func() { tm.Arm(100) })
	s.Run()
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if tm.Armed() {
		t.Error("timer reports armed after firing")
	}
}

func TestTimerCancel(t *testing.T) {
	s := New()
	fired := 0
	tm := NewTimer(s, func() { fired++ })
	s.At(0, func() { tm.Arm(100) })
	s.At(50, func() { tm.Cancel() })
	s.Run()
	if fired != 0 {
		t.Errorf("cancelled timer fired %d times", fired)
	}
}

func TestTimerRearmReplacesPending(t *testing.T) {
	s := New()
	var times []units.Time
	tm := NewTimer(s, func() { times = append(times, s.Now()) })
	s.At(0, func() { tm.Arm(100) })
	s.At(50, func() { tm.Arm(100) }) // replaces: should fire once at 150
	s.Run()
	if len(times) != 1 || times[0] != 150 {
		t.Errorf("times = %v, want [150]", times)
	}
}

func TestTimerPeriodic(t *testing.T) {
	s := New()
	var times []units.Time
	var tm *Timer
	tm = NewTimer(s, func() {
		times = append(times, s.Now())
		if len(times) < 3 {
			tm.Arm(10)
		}
	})
	s.At(0, func() { tm.Arm(10) })
	s.Run()
	want := []units.Time{10, 20, 30}
	if len(times) != 3 {
		t.Fatalf("times = %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestTimerFireAt(t *testing.T) {
	s := New()
	tm := NewTimer(s, func() {})
	s.At(5, func() {
		tm.Arm(10)
		if tm.FireAt() != 15 {
			t.Errorf("FireAt = %v, want 15", tm.FireAt())
		}
	})
	s.Run()
	if tm.FireAt() != units.Never {
		t.Errorf("FireAt after fire = %v, want Never", tm.FireAt())
	}
}

func BenchmarkScheduler(b *testing.B) {
	s := New()
	var next func()
	i := 0
	next = func() {
		i++
		if i < b.N {
			s.After(1, next)
		}
	}
	s.At(0, next)
	b.ResetTimer()
	s.Run()
}

// Regression: Stop() drains the heap, but a sim.Timer armed before the
// stop still holds a stale EventID. Re-arming (or rescheduling) it after
// Stop must be a no-op — before the fix, Timer.Arm fell through to At()
// and planted a fresh event into the drained scheduler, resurrecting the
// closure (and everything it captured) past teardown.
func TestPostStopArmAndRescheduleAreNoOps(t *testing.T) {
	s := New()
	fired := 0
	tm := NewTimer(s, func() { fired++ })
	tm.Arm(5 * units.Microsecond)
	id := s.At(7*units.Microsecond, func() { fired++ })

	s.At(units.Microsecond, func() { s.Stop() })
	s.Run()
	if fired != 0 {
		t.Fatalf("fired %d events before Stop, want 0", fired)
	}

	// Direct scheduling into a stopped scheduler is rejected.
	if got := s.At(10*units.Microsecond, func() { fired++ }); got != NoEvent {
		t.Errorf("At after Stop returned %v, want NoEvent", got)
	}
	if got := s.AfterArg(units.Microsecond, func(any) { fired++ }, nil); got != NoEvent {
		t.Errorf("AfterArg after Stop returned %v, want NoEvent", got)
	}
	// Stale handles cannot be revived.
	if s.Reschedule(id, 20*units.Microsecond) {
		t.Error("Reschedule of a drained event reported live")
	}
	// Timer re-arm with its stale EventID is swallowed too.
	tm.Arm(3 * units.Microsecond)
	if tm.Armed() {
		t.Error("Timer.Armed() true after arming a stopped scheduler")
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after post-Stop arms, want 0", got)
	}
	s.Run()
	if fired != 0 {
		t.Errorf("post-Stop events fired %d times, want 0", fired)
	}

	// RunUntil restarts the scheduler: new events are accepted again and
	// the revived timer works normally.
	s.RunUntil(s.Now())
	tm.Arm(2 * units.Microsecond)
	if !tm.Armed() {
		t.Fatal("Timer did not arm after the scheduler restarted")
	}
	s.Run()
	if fired != 1 {
		t.Errorf("fired %d after restart, want 1", fired)
	}
	if err := s.DebugCheck(); err != nil {
		t.Errorf("DebugCheck: %v", err)
	}
}

// DebugCheck accepts a heavily churned scheduler.
func TestDebugCheckOnChurn(t *testing.T) {
	s := New()
	var ids []EventID
	for i := 0; i < 500; i++ {
		ids = append(ids, s.At(units.Time(1+i%37), func() {}))
		if i%3 == 0 {
			s.Cancel(ids[i/2])
		}
		if i%5 == 0 {
			s.Reschedule(ids[i/3], units.Time(40+i%11))
		}
		if err := s.DebugCheck(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	s.Run()
	if err := s.DebugCheck(); err != nil {
		t.Fatalf("after run: %v", err)
	}
}

// Events more than one level-1 rotation (~34.4 ms) out park in the wheel,
// not in the band the near events are ordered in: 1000 events at +40 ms
// stay out of the band while 1 ms of near-term churn runs over them, and
// still fire in (time, sequence) order when their rotation comes up.
func TestParkedEventsStayOutOfTheHeap(t *testing.T) {
	s := New()
	const far = 40 * units.Millisecond
	var got []int
	for i := 0; i < 1000; i++ {
		i := i
		s.At(far+units.Time(i%10), func() { got = append(got, i) })
	}
	ticks, rearms := 0, 0
	var tick func()
	tick = func() {
		ticks++
		s.After(100*units.Nanosecond, tick)
	}
	s.After(0, tick)
	tm := NewTimer(s, func() { t.Error("watchdog fired despite re-arms") })
	var rearm func()
	rearm = func() {
		rearms++
		tm.Arm(50 * units.Microsecond) // a level-1 resident moved in place
		s.After(7*units.Microsecond, rearm)
	}
	s.After(0, rearm)
	for step := units.Time(0); step < units.Millisecond; step += 10 * units.Microsecond {
		s.RunUntil(step)
		if err := s.DebugCheck(); err != nil {
			t.Fatalf("at %v: %v", step, err)
		}
		if depth := len(s.band) - s.pos; depth > 4 {
			t.Fatalf("at %v: band depth %d with only the churn events near", step, depth)
		}
	}
	if ticks < 9000 || rearms < 100 || len(got) != 0 {
		t.Fatalf("after 1 ms: ticks=%d rearms=%d parked fired=%d", ticks, rearms, len(got))
	}
	tm.Cancel()
	s.RunUntil(far + 10)
	if len(got) != 1000 {
		t.Fatalf("parked events fired %d, want 1000", len(got))
	}
	for j, i := range got {
		if want := (j%100)*10 + j/100; i != want {
			t.Fatalf("parked order[%d] = %d, want %d", j, i, want)
		}
	}
	if err := s.DebugCheck(); err != nil {
		t.Fatal(err)
	}
}

// A lone event one simulated hour out fires at exactly its time under
// Run(). Nothing else is queued, so the clock walks there one level-1
// rotation at a time: ~105 000 advance steps (3600 s / 34.4 ms), each a
// bitmap scan plus one re-file of the parked event — O(rotations), a few
// milliseconds of wall time, paid only when the queue is otherwise empty.
func TestLoneFarEventFiresOnTime(t *testing.T) {
	const hour = 3600 * units.Second
	s := New()
	fired := units.Never
	s.At(hour+12345, func() { fired = s.Now() })
	if err := s.DebugCheck(); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if fired != hour+12345 || s.Now() != hour+12345 || s.Pending() != 0 {
		t.Fatalf("fired at %v, now %v, pending %d; want %v", fired, s.Now(), s.Pending(), hour+12345)
	}
	if err := s.DebugCheck(); err != nil {
		t.Fatal(err)
	}
}

// An event cascading out of level 1 into the clock's new bucket lands in
// the heap; a later-scheduled singleton in the same level-0 bucket must
// not jump it through the wheel's singleton fast path.
func TestCascadeRivalBeatsSingleton(t *testing.T) {
	const span = units.Time(1) << l1GranBits
	s := New()
	var order []string
	s.At(3*span+100, func() { order = append(order, "parked") }) // level 1 from time 0
	s.At(2*span+5000, func() {
		// Exactly one level-0 rotation out: level-0 bucket 0, the bucket
		// the parked event cascades into.
		s.At(3*span+200, func() { order = append(order, "late") })
		if err := s.DebugCheck(); err != nil {
			t.Error(err)
		}
	})
	s.Run()
	if len(order) != 2 || order[0] != "parked" || order[1] != "late" {
		t.Fatalf("order = %v, want [parked late]", order)
	}
}
