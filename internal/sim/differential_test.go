package sim

import (
	"container/heap"
	"fmt"
	"testing"

	"github.com/tcdnet/tcd/internal/rng"
	"github.com/tcdnet/tcd/internal/units"
)

// This file cross-checks the indexed four-ary heap against a reference
// scheduler built on container/heap — the shape of the implementation
// this package replaced. The reference "cancels" by ghosting (the dead
// entry stays queued and pops as a no-op) and "reschedules" by ghosting
// plus pushing a freshly sequenced copy, which is exactly the semantics
// the old sim.Timer had. Driving both with the same randomized
// schedule/cancel/reschedule trace must produce the same execution
// order and the same clock: in-place removal is an optimization, not a
// behavior change.

type refEvent struct {
	at  units.Time
	seq uint64
	fn  func()
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() (x any) {
	old := *h
	n := len(old) - 1
	x = old[n]
	*h = old[:n]
	return x
}

type refSched struct {
	now  units.Time
	seq  uint64
	h    refHeap
	live map[uint64]*refEvent
}

func newRefSched() *refSched {
	return &refSched{live: make(map[uint64]*refEvent)}
}

func (r *refSched) At(t units.Time, fn func()) uint64 {
	r.seq++
	ev := &refEvent{at: t, seq: r.seq, fn: fn}
	heap.Push(&r.h, ev)
	r.live[r.seq] = ev
	return r.seq
}

func (r *refSched) Cancel(id uint64) bool {
	ev := r.live[id]
	if ev == nil {
		return false
	}
	delete(r.live, id)
	ev.fn = nil // ghost: stays queued, pops as a no-op
	return true
}

// Reschedule ghosts the old entry and pushes a freshly sequenced copy,
// returning the new handle (the reference has no stable handles).
func (r *refSched) Reschedule(id uint64, t units.Time) (uint64, bool) {
	ev := r.live[id]
	if ev == nil {
		return 0, false
	}
	fn := ev.fn
	delete(r.live, id)
	ev.fn = nil
	return r.At(t, fn), true
}

func (r *refSched) RunUntil(deadline units.Time) {
	for len(r.h) > 0 && r.h[0].at <= deadline {
		ev := heap.Pop(&r.h).(*refEvent)
		r.now = ev.at
		if ev.fn != nil {
			delete(r.live, ev.seq)
			ev.fn()
		}
	}
	if r.now < deadline {
		r.now = deadline
	}
}

// TestDifferentialHorizonCrossing drives three schedulers — the
// wheel+heap hybrid (New), the heap-only configuration (NewHeapOnly) and
// the container/heap ghost-semantics reference — with one randomized
// trace whose fire times straddle every band boundary: the current
// level-0 bucket, the level-0 wheel, the first level-1 rotation, and
// one to eight rotations beyond it, where events park in level 1 and are
// re-filed once per rotation. Clock steps likewise range from
// intra-bucket hops to leaps that cross whole level-1 rotations, so
// events repeatedly migrate level 1→level 0→heap as the clock advances.
// On top of the per-op schedule/cancel mix, a mass-churn op cancels or
// reschedules a window of recent handles in one burst (reschedules
// deliberately jump bands), and a parked-event op cancels a multi-rotation
// resident and moves one far→near and one near→far. All three must agree
// on firing order, clock and liveness after every chunk, and both DUTs
// must pass DebugCheck (which rejects any hybrid heap entry outside the
// current band) — wheel residency is a placement optimization, never a
// behavior change.
func TestDifferentialHorizonCrossing(t *testing.T) {
	const (
		l0Span = 1 << l1GranBits // level-0 wheel horizon, in time units
		l1Span = int64(1) << 35  // one level-1 rotation
		ops    = 40
		chunks = 60
	)
	for _, seed := range []uint64{7, 99, 0xfeedface} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rng.New(seed)
			dut := New()
			ho := NewHeapOnly()
			ref := newRefSched()

			var dutLog, hoLog, refLog []uint64
			var token uint64
			var dutIDs, hoIDs []EventID
			var refIDs []uint64

			offset := func() units.Time {
				switch r.Intn(4) {
				case 0: // current or next level-0 bucket
					return units.Time(1 + r.Intn(1<<l0GranBits))
				case 1: // level-0 wheel band
					return units.Time(1 + r.Intn(l0Span))
				case 2: // level-1 wheel band
					return units.Time(int64(l0Span) + int64(r.Intn(int(l1Span-l0Span))))
				default: // one to eight rotations out: parked in level 1
					return units.Time(l1Span + int64(r.Intn(int(7*l1Span))))
				}
			}
			schedule := func(at units.Time) {
				token++
				tok := token
				dutIDs = append(dutIDs, dut.At(at, func() { dutLog = append(dutLog, tok) }))
				hoIDs = append(hoIDs, ho.At(at, func() { hoLog = append(hoLog, tok) }))
				refIDs = append(refIDs, ref.At(at, func() { refLog = append(refLog, tok) }))
			}
			cancel := func(i int) {
				ok1, ok2, ok3 := dut.Cancel(dutIDs[i]), ho.Cancel(hoIDs[i]), ref.Cancel(refIDs[i])
				if ok1 != ok3 || ok2 != ok3 {
					t.Fatalf("Cancel liveness diverged: dut=%v heapOnly=%v ref=%v", ok1, ok2, ok3)
				}
			}
			reschedule := func(i int, at units.Time) {
				ok1, ok2 := dut.Reschedule(dutIDs[i], at), ho.Reschedule(hoIDs[i], at)
				nid, ok3 := ref.Reschedule(refIDs[i], at)
				if ok1 != ok3 || ok2 != ok3 {
					t.Fatalf("Reschedule liveness diverged: dut=%v heapOnly=%v ref=%v", ok1, ok2, ok3)
				}
				if ok3 {
					refIDs[i] = nid
				}
			}

			base := units.Time(0)
			for chunk := 0; chunk < chunks; chunk++ {
				for op := 0; op < ops; op++ {
					switch r.Intn(7) {
					case 0, 1: // schedule across a random band
						schedule(base + offset())
					case 2: // cancel a random handle (live or stale)
						if len(dutIDs) == 0 {
							continue
						}
						cancel(r.Intn(len(dutIDs)))
					case 3: // reschedule into a (usually different) band
						if len(dutIDs) == 0 {
							continue
						}
						reschedule(r.Intn(len(dutIDs)), base+offset())
					case 4: // same-instant burst at a band boundary: FIFO ties
						at := base + units.Time(1+r.Intn(3)*l0Span/2)
						for k := 0; k < 3; k++ {
							schedule(at)
						}
					case 5: // mass churn: cancel or band-hop a window of recent handles
						n := len(dutIDs)
						if n == 0 {
							continue
						}
						lo := n - 16
						if lo < 0 {
							lo = 0
						}
						for i := lo; i < n; i++ {
							if (i-lo)%2 == 0 {
								cancel(i)
							} else {
								reschedule(i, base+offset())
							}
						}
					case 6: // parked events: cancel one, move one far→near, one near→far
						far := base + units.Time(l1Span*int64(2+r.Intn(7)))
						near := base + units.Time(1+r.Intn(l0Span))
						schedule(far)
						schedule(far + 1)
						schedule(near)
						n := len(dutIDs)
						cancel(n - 3)
						reschedule(n-2, near+1)
						reschedule(n-1, far+2)
					}
				}
				// Step the clock: intra-bucket, cross-bucket, cross-block, or
				// a leap over several level-1 blocks.
				switch r.Intn(4) {
				case 0:
					base += units.Time(1 + r.Intn(1<<l0GranBits))
				case 1:
					base += units.Time(1 + r.Intn(l0Span))
				case 2:
					base += units.Time(1 + int64(r.Intn(int(l1Span))))
				default:
					base += units.Time(l1Span + int64(r.Intn(int(l1Span))))
				}
				dut.RunUntil(base)
				ho.RunUntil(base)
				ref.RunUntil(base)
				if dut.Now() != ref.now || ho.Now() != ref.now {
					t.Fatalf("chunk %d: clock diverged: dut=%v heapOnly=%v ref=%v", chunk, dut.Now(), ho.Now(), ref.now)
				}
				if dut.Pending() != len(ref.live) || ho.Pending() != len(ref.live) {
					t.Fatalf("chunk %d: live events diverged: dut=%d heapOnly=%d ref=%d", chunk, dut.Pending(), ho.Pending(), len(ref.live))
				}
				if err := dut.DebugCheck(); err != nil {
					t.Fatalf("chunk %d: hybrid DebugCheck: %v", chunk, err)
				}
				if err := ho.DebugCheck(); err != nil {
					t.Fatalf("chunk %d: heap-only DebugCheck: %v", chunk, err)
				}
			}
			dut.RunUntil(units.Forever - 1)
			ho.RunUntil(units.Forever - 1)
			ref.RunUntil(units.Forever - 1)
			if len(dutLog) != len(refLog) || len(hoLog) != len(refLog) {
				t.Fatalf("fired dut=%d heapOnly=%d ref=%d events", len(dutLog), len(hoLog), len(refLog))
			}
			for i := range dutLog {
				if dutLog[i] != refLog[i] || hoLog[i] != refLog[i] {
					t.Fatalf("execution order diverged at %d: dut=%d heapOnly=%d ref=%d", i, dutLog[i], hoLog[i], refLog[i])
				}
			}
		})
	}
}

// TestDifferentialAgainstContainerHeap drives both schedulers with an
// identical randomized trace and requires identical firing order, clock
// advance and live-event counts after every chunk.
func TestDifferentialAgainstContainerHeap(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 0xdecafbad} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rng.New(seed)
			dut := New()
			ref := newRefSched()

			var dutLog, refLog []uint64
			var token uint64
			// Parallel handle lists: index i refers to the same logical
			// event in both schedulers.
			var dutIDs []EventID
			var refIDs []uint64

			base := units.Time(0)
			for chunk := 0; chunk < 200; chunk++ {
				for op := 0; op < 30; op++ {
					switch r.Intn(5) {
					case 0, 1: // schedule
						token++
						tok := token
						at := base + units.Time(1+r.Intn(5000))
						// Exercise both payload forms on the DUT; the
						// reference only has closures.
						if r.Intn(2) == 0 {
							dutIDs = append(dutIDs, dut.At(at, func() { dutLog = append(dutLog, tok) }))
						} else {
							dutIDs = append(dutIDs, dut.AtArg(at, func(a any) { dutLog = append(dutLog, a.(uint64)) }, tok))
						}
						refIDs = append(refIDs, ref.At(at, func() { refLog = append(refLog, tok) }))
					case 2: // cancel a random handle (live or stale)
						if len(dutIDs) == 0 {
							continue
						}
						i := r.Intn(len(dutIDs))
						ok1 := dut.Cancel(dutIDs[i])
						ok2 := ref.Cancel(refIDs[i])
						if ok1 != ok2 {
							t.Fatalf("chunk %d: Cancel liveness diverged: dut=%v ref=%v", chunk, ok1, ok2)
						}
					case 3: // reschedule a random handle
						if len(dutIDs) == 0 {
							continue
						}
						i := r.Intn(len(dutIDs))
						at := base + units.Time(1+r.Intn(5000))
						ok1 := dut.Reschedule(dutIDs[i], at)
						nid, ok2 := ref.Reschedule(refIDs[i], at)
						if ok1 != ok2 {
							t.Fatalf("chunk %d: Reschedule liveness diverged: dut=%v ref=%v", chunk, ok1, ok2)
						}
						if ok2 {
							refIDs[i] = nid
						}
					case 4: // burst of same-instant events: stresses FIFO ties
						at := base + units.Time(1+r.Intn(50))
						for k := 0; k < 3; k++ {
							token++
							tok := token
							dutIDs = append(dutIDs, dut.At(at, func() { dutLog = append(dutLog, tok) }))
							refIDs = append(refIDs, ref.At(at, func() { refLog = append(refLog, tok) }))
						}
					}
				}
				base += units.Time(1 + r.Intn(2000))
				dut.RunUntil(base)
				ref.RunUntil(base)
				if dut.Now() != ref.now {
					t.Fatalf("chunk %d: clock diverged: dut=%v ref=%v", chunk, dut.Now(), ref.now)
				}
				if dut.Pending() != len(ref.live) {
					t.Fatalf("chunk %d: live events diverged: dut=%d ref=%d", chunk, dut.Pending(), len(ref.live))
				}
			}
			dut.RunUntil(units.Forever - 1)
			ref.RunUntil(units.Forever - 1)
			if len(dutLog) != len(refLog) {
				t.Fatalf("fired %d events, reference fired %d", len(dutLog), len(refLog))
			}
			for i := range dutLog {
				if dutLog[i] != refLog[i] {
					t.Fatalf("execution order diverged at %d: dut=%d ref=%d", i, dutLog[i], refLog[i])
				}
			}
		})
	}
}
