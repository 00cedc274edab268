package sim

import (
	"testing"

	"github.com/tcdnet/tcd/internal/units"
)

// runFuzzProgram interprets data as a little op program over one
// scheduler — three bytes per op: an opcode and a 16-bit operand — and
// asserts the structural invariants after every single op and inside the
// callbacks that touch the queue: DebugCheck must hold (sorted run or
// heap property, location records, wheel list integrity, occupancy
// bitmaps, counts), the clock must never move backwards, and Pending must
// equal the number of events scheduled and neither fired nor cancelled.
// Offsets and clock steps are derived as powers of two from the operand,
// so ops routinely land on and leap across the level-0 / level-1 /
// multi-rotation boundaries, which is exactly where placement, cascade
// and re-file bugs would live. It returns everything the program
// observed, in order.
func runFuzzProgram(t *testing.T, mk func() *Scheduler, data []byte) []note {
	s := mk()
	var (
		ids  []EventID
		log  []note
		tok  int
		live int
		last = s.Now()
	)
	see := func(what int) { log = append(log, note{what, s.Now(), s.Pending()}) }
	check := func(i int) {
		if err := s.DebugCheck(); err != nil {
			t.Fatalf("op %d: DebugCheck: %v", i, err)
		}
		if s.Now() < last {
			t.Fatalf("op %d: clock moved backwards: %v -> %v", i, last, s.Now())
		}
		last = s.Now()
		if s.Pending() != live {
			t.Fatalf("op %d: Pending() = %d, %d events are live", i, s.Pending(), live)
		}
	}
	add := func(id EventID) {
		if id != NoEvent { // NoEvent: the scheduler is stopped
			live++
			ids = append(ids, id)
		}
	}
	plain := func() func() {
		tok++
		k := tok
		return func() { live--; see(k) }
	}
	outcome := func(ok bool) {
		if ok {
			see(-1)
		} else {
			see(-2)
		}
	}
	// nextBucket is the start of the level-0 bucket two ahead of the
	// clock: everything ops 6 and 7 schedule lands in that one bucket, so
	// they build a cohort and put callbacks that churn the queue inside it.
	nextBucket := func() units.Time { return (s.Now()>>l0GranBits + 2) << l0GranBits }

	// Cap the program length: DebugCheck is O(pending) and runs per
	// op, so long inputs would be all checking and no exploring.
	const maxOps = 512
	for i := 0; i+2 < len(data) && i < 3*maxOps; i += 3 {
		op := data[i]
		arg := uint64(data[i+1])<<8 | uint64(data[i+2])
		// Exponential offset: 2^(arg%40) spans from sub-bucket to
		// 16 level-1 rotations out; the operand low bits de-align
		// it from exact powers of two.
		d := units.Time(1)<<(arg%40) + units.Time(arg&0xff)
		switch op % 8 {
		case 0:
			add(s.At(s.Now()+d, plain()))
		case 1:
			fn := plain()
			add(s.AfterArg(d, func(any) { fn() }, nil))
		case 2:
			if len(ids) > 0 {
				ok := s.Cancel(ids[int(arg)%len(ids)])
				if ok {
					live--
				}
				outcome(ok)
			}
		case 3: // reschedule across bands: fresh exponential offset
			if len(ids) > 0 {
				outcome(s.Reschedule(ids[int(data[i+2])%len(ids)], s.Now()+d))
			}
		case 4: // advance: steps up to 2^36 cross whole level-1 blocks
			s.RunUntil(s.Now() + units.Time(1)<<(arg%37))
		case 5: // same-instant burst: FIFO ties inside one bucket
			at := s.Now() + 1 + units.Time(arg%(1<<l0GranBits))
			for k := 0; k < 3; k++ {
				add(s.At(at, plain()))
			}
		case 6: // a callback that churns the band it is running in
			fn := plain()
			add(s.At(nextBucket()+units.Time(arg%(1<<l0GranBits)), func() {
				fn()
				add(s.After(0, plain()))
				add(s.At(s.Now()+1, plain()))
				if len(ids) > 0 {
					victim := ids[int(arg>>2)%len(ids)]
					if arg&1 == 0 {
						ok := s.Cancel(victim)
						if ok {
							live--
						}
						outcome(ok)
					} else {
						// In-band, to the wheel, to level 1 or rotations out.
						outcome(s.Reschedule(victim, s.Now()+units.Time(1)<<((arg>>3)%40)))
					}
				}
				check(i)
				if arg%61 == 0 {
					s.Stop()
					live = 0
					check(i)
				}
			}))
		case 7: // a cohort: 8..63 events in one bucket, past the insertion-sort cutoff
			base := nextBucket()
			for k := uint64(0); k < 8+arg%56; k++ {
				at := base
				if arg&1 == 0 { // distinct times, scheduled out of order
					at += units.Time(k * 2654435761 % (1 << l0GranBits))
				}
				add(s.At(at, plain()))
			}
		}
		check(i)
	}
	// Drain everything still pending and re-verify: the final run
	// exercises cascade + migration for whatever the program left
	// parked in far buckets.
	s.RunUntil(units.Forever - 1)
	check(len(data))
	if s.Pending() != 0 {
		t.Fatalf("%d events still pending after drain", s.Pending())
	}
	return log
}

// FuzzSchedulerHybrid runs one op program on the hybrid scheduler and on
// the heap-only reference, each under runFuzzProgram's invariant checks,
// and requires the two to have observed the same thing: every event
// firing in the same order at the same clock with the same queue depth,
// every Cancel and Reschedule reporting the same liveness.
func FuzzSchedulerHybrid(f *testing.F) {
	// Seeds: band-crossing schedules with big clock leaps, cancel and
	// reschedule churn over live and dead handles, and same-instant
	// bursts drained across bucket boundaries.
	f.Add([]byte("\x00\x00\x08\x00\x40\x00\x00\xa0\x00\x04\x80\x00\x04\x90\x00\x04\xa8\x00"))
	f.Add([]byte("\x00\x10\x00\x01\x60\x00\x02\x00\x00\x03\x88\x01\x02\x00\x01\x04\x70\x00"))
	f.Add([]byte("\x05\x00\x40\x05\x00\x40\x04\x40\x00\x05\x01\x00\x04\x88\x00\x04\x98\x00"))
	f.Add([]byte("\x00\x27\x00\x03\x27\x00\x04\x8c\x00\x03\x05\x01\x02\x01\x00\x04\xa3\x00"))
	// Far-parked: events 2, 4 and 8 level-1 rotations out; a two-rotation
	// leap; the farthest rescheduled near, a near one rescheduled 16
	// rotations out, a parked one cancelled; two more leaps.
	f.Add([]byte("\x00\x00\x26\x00\x00\x25\x01\x00\x24\x00\x00\x0a\x04\x00\x24\x03\x00\x14\x00\x00\x0c\x03\x00\x27\x02\x00\x01\x04\x00\x24\x04\x00\x24"))
	// Cohorts past the insertion-sort cutoff: 41 equal-time events and 40
	// distinct-time ones in one bucket, then run through it.
	f.Add([]byte("\x07\x00\x21\x07\x00\x20\x04\x00\x10"))
	// A cohort with callbacks inside it that After(0)/At(now+1), cancel a
	// band resident, and reschedule band residents in-band, to level 0, to
	// level 1 and rotations out — all from the running band.
	f.Add([]byte("\x07\x00\x1e\x06\x00\x10\x06\x01\x05\x06\x02\x4b\x06\x03\x9d\x06\x05\x2f\x06\x00\xd3\x04\x00\x10\x04\x00\x26"))
	// Stop from inside a cohort (operand 61), restart, schedule and run again.
	f.Add([]byte("\x07\x00\x10\x06\x00\x3d\x07\x00\x11\x04\x00\x10\x04\x00\x00\x00\x00\x05\x07\x00\x09\x04\x00\x12"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sameNotes(t, runFuzzProgram(t, New, data), runFuzzProgram(t, NewHeapOnly, data))
	})
}
