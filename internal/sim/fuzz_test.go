package sim

import (
	"testing"

	"github.com/tcdnet/tcd/internal/units"
)

// FuzzSchedulerHybrid interprets the input as a little op program over
// the hybrid scheduler — three bytes per op: an opcode and a 16-bit
// operand — and asserts the structural invariants after every single op:
// DebugCheck must hold (heap property, backpointers, wheel list
// integrity, occupancy bitmaps, counts) and the clock must never move
// backwards. Offsets and clock steps are derived as powers of two from
// the operand, so ops routinely land on and leap across the level-0 /
// level-1 / multi-rotation boundaries, which is exactly where placement,
// cascade and re-file bugs would live.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		s := New()
		var ids []EventID
		fired := 0
		last := s.Now()
		check := func(i int) {
			if err := s.DebugCheck(); err != nil {
				t.Fatalf("op %d: DebugCheck: %v", i, err)
			}
			if s.Now() < last {
				t.Fatalf("op %d: clock moved backwards: %v -> %v", i, last, s.Now())
			}
			last = s.Now()
		}
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
			switch op % 6 {
			case 0:
				ids = append(ids, s.At(s.Now()+d, func() { fired++ }))
			case 1:
				ids = append(ids, s.AfterArg(d, func(any) { fired++ }, nil))
			case 2:
				if len(ids) > 0 {
					s.Cancel(ids[int(arg)%len(ids)])
				}
			case 3: // reschedule across bands: fresh exponential offset
				if len(ids) > 0 {
					s.Reschedule(ids[int(data[i+2])%len(ids)], s.Now()+d)
				}
			case 4: // advance: steps up to 2^36 cross whole level-1 blocks
				s.RunUntil(s.Now() + units.Time(1)<<(arg%37))
			case 5: // same-instant burst: FIFO ties inside one bucket
				at := s.Now() + 1 + units.Time(arg%(1<<l0GranBits))
				for k := 0; k < 3; k++ {
					ids = append(ids, s.At(at, func() { fired++ }))
				}
			}
			check(i)
		}
		// Drain everything still pending and re-verify: the final run
		// exercises cascade + migration for whatever the program left
		// parked in far buckets.
		pending := s.Pending()
		firedBefore := fired
		s.RunUntil(units.Forever - 1)
		check(len(data))
		if fired-firedBefore != pending {
			t.Fatalf("drain fired %d events, %d were pending", fired-firedBefore, pending)
		}
		if s.Pending() != 0 {
			t.Fatalf("%d events still pending after drain", s.Pending())
		}
	})
}
