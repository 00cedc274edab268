package sim

import (
	"fmt"

	"github.com/tcdnet/tcd/internal/units"
)

// This file is heap-only mode (NewHeapOnly): one indexed four-ary min-heap
// holding every pending event, the scheduler this package had before the
// timing wheel. The hybrid scheduler (New) never reaches any of it — its
// current band is a sorted run (see sim.go) — so it survives as what the
// differential tests compare the hybrid against and as the baseline arm of
// the benchmark's churn probe.

// pad is the heap root's index. Rooting the four-ary heap at 3 instead
// of 0 (indices 0-2 are unused dummies) makes every child group
// [4i-8, 4i-5] start at a multiple-of-64-byte offset: with 16-byte keys
// the four children a sift compares live in one cache line instead of
// always straddling two, and the parent/child index math loses its
// root special case (parent(i) = (i+8)>>2 uniformly).
const pad = 3

// NewHeapOnly returns a scheduler with the timing wheel disabled: every
// event goes straight into the indexed heap, reproducing the pre-wheel
// scheduler exactly. It exists as the semantic reference for the
// differential tests and as the baseline arm of the wheel-vs-heap
// crossover benchmarks; simulations should use New.
func NewHeapOnly() *Scheduler {
	return &Scheduler{
		heap:    make([]key, pad, pad+61),
		bandEnd: units.Forever,
		noWheel: true,
	}
}

// heapPush files a live slot's event into the heap. Heap residents keep
// their heap index in the slot's location record (idx >= 0), kept in sync
// by every sift.
func (s *Scheduler) heapPush(slot uint32, t units.Time, sq uint32) {
	i := len(s.heap)
	s.locs[slot].idx = int32(i)
	s.heap = append(s.heap, makeKey(t, sq, slot))
	s.siftUp(i)
}

// heapMove re-keys the event at heap index i in place: one key update
// plus a sift.
func (s *Scheduler) heapMove(i int, t units.Time, sq uint32) {
	s.heap[i] = makeKey(t, sq, s.heap[i].slotIdx())
	s.fix(i)
}

// removeAt deletes the event at heap index i and releases its slot.
func (s *Scheduler) removeAt(i int) {
	s.releaseSlot(s.heap[i].slotIdx())
	n := len(s.heap) - 1
	if i != n {
		s.heap[i] = s.heap[n]
		s.locs[s.heap[i].slotIdx()].idx = int32(i)
	}
	s.heap = s.heap[:n]
	if i < n {
		s.fix(i)
	}
}

// fix restores the heap property around index i after its key changed.
func (s *Scheduler) fix(i int) {
	if i > pad && less(&s.heap[i], &s.heap[(i+8)>>2]) {
		s.siftUp(i)
	} else {
		s.siftDown(i)
	}
}

// popTop removes the minimum event (the root). Instead of moving the
// last element to the root and sifting it down (comparing it at every
// level), the root hole bubbles down along min-children to a leaf and
// the displaced last element sifts up from there: that element came
// from the bottom, so it almost always belongs near the bottom, and
// skipping the per-level "would it fit here" compare saves a quarter of
// the comparisons.
func (s *Scheduler) popTop() {
	n := len(s.heap) - 1
	s.releaseSlot(s.heap[pad].slotIdx())
	e := s.heap[n]
	s.heap = s.heap[:n]
	if n == pad {
		return
	}
	h := s.heap
	i := pad
	for {
		c := i<<2 - 8
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if less(&h[j], &h[m]) {
				m = j
			}
		}
		h[i] = h[m]
		s.locs[h[i].slotIdx()].idx = int32(i)
		i = m
	}
	h[i] = e
	s.locs[e.slotIdx()].idx = int32(i)
	s.siftUp(i)
}

func (s *Scheduler) siftUp(i int) {
	h := s.heap
	e := h[i]
	for i > pad {
		p := (i + 8) >> 2
		if !less(&e, &h[p]) {
			break
		}
		h[i] = h[p]
		s.locs[h[i].slotIdx()].idx = int32(i)
		i = p
	}
	h[i] = e
	s.locs[e.slotIdx()].idx = int32(i)
}

func (s *Scheduler) siftDown(i int) {
	h := s.heap
	n := len(h)
	e := h[i]
	for {
		c := i<<2 - 8
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if less(&h[j], &h[m]) {
				m = j
			}
		}
		if !less(&h[m], &e) {
			break
		}
		h[i] = h[m]
		s.locs[h[i].slotIdx()].idx = int32(i)
		i = m
	}
	h[i] = e
	s.locs[e.slotIdx()].idx = int32(i)
}

// drainHeap discards every heap resident (Stop).
func (s *Scheduler) drainHeap() {
	for i := pad; i < len(s.heap); i++ {
		s.releaseSlot(s.heap[i].slotIdx())
	}
	s.heap = s.heap[:pad]
}

// runHeapOnly is RunUntil's loop in heap-only mode: pop the root while it
// is due.
func (s *Scheduler) runHeapOnly(deadline units.Time) {
	for !s.stopped && len(s.heap) > pad {
		at := s.heap[pad].at
		if at > deadline {
			break
		}
		s.runBatch(at)
	}
}

// runBatch executes every heap event with fire time exactly at. The heap
// pops equal-time events in sequence order, and events a callback
// schedules for the running instant land in the heap with a later
// sequence, so they join the same batch in FIFO position.
func (s *Scheduler) runBatch(at units.Time) {
	s.now = at
	for {
		top := s.heap[pad]
		pf := &s.fns[top.slotIdx()]
		fn, afn, arg := pf.fn, pf.afn, pf.arg
		s.popTop()
		s.processed++
		if fn != nil {
			fn()
		} else {
			afn(arg)
		}
		if s.stopped || len(s.heap) <= pad || s.heap[pad].at != at {
			return
		}
	}
}

// checkHeap is DebugCheck's heap-only part: the heap property over every
// parent/child pair and location backpointers matching heap positions.
// It returns the number of live events found.
func (s *Scheduler) checkHeap() (int, error) {
	if len(s.band) != 0 || s.wheelCount != 0 {
		return 0, fmt.Errorf("sim: heap-only scheduler holds %d band keys and %d wheel residents", len(s.band), s.wheelCount)
	}
	for i := pad; i < len(s.heap); i++ {
		k := &s.heap[i]
		if i > pad {
			p := (i + 8) >> 2
			if less(k, &s.heap[p]) {
				return 0, fmt.Errorf("sim: heap property violated at index %d (parent %d)", i, p)
			}
		}
		slot := k.slotIdx()
		if int(slot) >= len(s.locs) {
			return 0, fmt.Errorf("sim: heap index %d references slot %d beyond table (%d)", i, slot, len(s.locs))
		}
		if ref := &s.locs[slot]; int(ref.idx) != i {
			return 0, fmt.Errorf("sim: slot %d backpointer %d, heap position %d", slot, ref.idx, i)
		}
		if pf := &s.fns[slot]; pf.fn == nil && pf.afn == nil {
			return 0, fmt.Errorf("sim: queued slot %d has no callback", slot)
		}
	}
	return len(s.heap) - pad, nil
}
