// Package sim provides a deterministic discrete-event scheduler.
//
// All simulator components share one Scheduler. Events scheduled for the
// same instant fire in the order they were scheduled (FIFO tie-breaking via
// a monotonically increasing sequence number), which makes every run
// reproducible regardless of map iteration order or GC timing.
//
// The queue is a hybrid of a two-level hierarchical timing wheel and one
// sorted run. Every event past the current time bucket is filed into a
// power-of-two time slot with O(1) insert and O(1) cancel — no
// comparison — and linked intrusively through the slot table, so the
// wheel itself allocates nothing per event. Only the "current band"
// (events in the time bucket the clock is in, which is where ordering
// actually matters) is ordered: when the clock enters a bucket its cohort
// is copied into the run and sorted by (time, sequence) once — a handful
// of keys, already nearly in order — and dispatch is a cursor walking the
// run. That makes batched delivery bit-identical to the fully sorted
// order a single global heap would produce, without a heap: almost
// nothing is ever inserted into a band after its flush (16 events in 2.7
// million on the k=8 fat-tree workload, 561 in 5.1 million on the k=16
// one), so a structure built for interleaved inserts and pops would be
// paying per event for an order one small sort gives. An event more than
// one level-1 rotation (~34 ms of simulated time) out parks in the
// level-1 bucket its time maps to and is re-filed there, one O(1) splice,
// each time the clock passes that bucket; when nothing nearer is queued
// the clock walks to it one rotation per step.
//
// Every scheduled event gets an EventID, and Cancel/Reschedule remove or
// move the event in place wherever it lives (wheel slot list or run)
// instead of leaving live "ghost" entries queued until their fire time: a
// wheel resident is unlinked, a band resident is found by binary search on
// its key and tombstoned, so no back-pointer is maintained as keys move.
// The run holds only pointer-free keys (time, sequence, slot) — sorting
// moves are plain memmoves with no write barriers — while callbacks live
// in the slot table and never move. Hot emitters schedule a preallocated
// func(arg) + arg pair (AtArg/AfterArg) instead of minting a fresh
// closure per event.
//
// NewHeapOnly (heaponly.go) is the scheduler this package had before the
// wheel, one indexed four-ary heap for everything. It is the reference
// the differential tests hold the hybrid to, not a mode simulations use.
package sim

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/tcdnet/tcd/internal/units"
)

// EventID is a stable handle for a scheduled event, returned by At/After
// and their Arg variants. It stays valid until the event fires or is
// cancelled; using it afterwards is safe (Cancel/Reschedule report false)
// because the handle carries a generation that slot reuse invalidates.
type EventID uint64

// NoEvent is the zero EventID; no live event ever has it.
const NoEvent EventID = 0

// Wheel geometry. Level 0 buckets are 2^l0GranBits ps (~8.2 ns) wide —
// below the median event gap of a busy fig3-scale run (~14 ns), so most
// buckets hold zero or one event and dispatch takes the singleton fast
// path in advance — and level 1 buckets span one full level-0 rotation.
// Both levels have 2^wheelBits slots:
//
//	level 0: 2048 x 8.192 ns  -> horizon ~16.8 us
//	level 1: 2048 x 16.8 us   -> one rotation ~34.4 ms
//
// Level 1 is not a horizon: an event k rotations out waits in its bucket
// through k cascades (see place). The per-level slot arrays are plain
// uint32 list heads (8 KB per level); event linkage lives in the slot
// table, so wheel residency costs no allocation.
// The granularity was picked empirically: 2^12..2^16 are within a few
// percent of each other on fig3, coarser buckets lose the singleton
// fast path, finer ones pay more empty-bucket advances.
const (
	l0GranBits = 13
	wheelBits  = 11
	wheelSize  = 1 << wheelBits
	wheelMask  = wheelSize - 1
	l1GranBits = l0GranBits + wheelBits
)

// noIdx terminates the intrusive per-bucket lists.
const noIdx = ^uint32(0)

// key is one entry of the band's run (or of heap-only mode's heap): the
// sort key plus the slot holding the payload. It is deliberately
// pointer-free (moves are barrier-free copies) and packed to 16 bytes —
// seq in the high word of ss, slot in the low.
type key struct {
	at units.Time
	ss uint64 // seq<<32 | slot
}

func makeKey(at units.Time, sq, slot uint32) key {
	return key{at: at, ss: uint64(sq)<<32 | uint64(slot)}
}

func (k *key) slotIdx() uint32 { return uint32(k.ss) }

// deadSlot in a run key's slot field marks a tombstone: the event was
// cancelled or moved while in the band. The key keeps its time and
// sequence, so the run stays sorted around it, and the cursor steps over
// it. No live slot has this index (it is also the list terminator).
const deadSlot = noIdx

// inBand is the location index of every band resident in hybrid mode.
// Where in the run the event sits is not recorded: Cancel and Reschedule
// find it by its unique key.
const inBand = 0

// less orders events by (time, sequence). The sequence is the low 32 bits
// of a monotone counter compared with wraparound arithmetic: the order of
// two equal-time events is FIFO whenever their schedule calls are within
// 2^31 of each other. Exceeding that would take two events aimed at the
// same picosecond scheduled more than two billion events apart — far
// beyond any run here — and even then the order stays deterministic.
func less(a, b *key) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return int32(uint32(a.ss>>32)-uint32(b.ss>>32)) < 0
}

// slotLoc is one handle's location record. idx encodes where the event
// currently lives:
//
//	idx >= 0            current band: inBand in hybrid mode; in heap-only
//	                    mode the heap index, kept in sync by every sift
//	idx == -1           dead (fired, cancelled, or never scheduled)
//	idx <= -2           wheel: level 0 slot -(idx+2), or level 1 slot
//	                    -(idx+2)-wheelSize
//
// Wheel-resident events keep their fire time and sequence here (at, sq)
// and are doubly linked through next/prev, so insert and cancel are O(1)
// pointer splices and flushing a bucket rebuilds run keys without
// touching any per-bucket storage; at and sq stay valid in the band, where
// they are the key a Cancel searches the run for. gen is the generation
// outstanding EventIDs must match.
//
// Locations are deliberately split from payloads (slotFn): every wheel
// splice touches two or three location records at effectively random
// slot indices, so halving the record doubles how many of those scattered
// touches the caches absorb. The payload is only read once, at dispatch.
type slotLoc struct {
	idx  int32
	gen  uint32
	at   units.Time
	sq   uint32
	next uint32
	prev uint32
}

// slotFn is one handle's event payload. Exactly one of fn/afn is set:
// fn is the closure form, afn+arg the typed-argument form used by
// per-packet hot paths (a pointer-shaped arg boxes into the interface
// without allocating). The payload is written once at schedule time and
// cleared at release.
type slotFn struct {
	fn  func()
	afn func(any)
	arg any
}

// Scheduler is a discrete-event executor. The zero value is not usable;
// call New.
type Scheduler struct {
	now units.Time
	seq uint64
	// bandEnd is the exclusive end of the current time band, the end of
	// level-0 bucket curB (units.Forever in heap-only mode). Every band
	// event has at < bandEnd, so the run's next key is always runnable
	// without consulting the wheel.
	bandEnd units.Time
	// band is the current band and nothing else: band[pos:] is a run of
	// pointer-free keys sorted by (time, sequence), pos the dispatch
	// cursor. Keys below pos have fired; the space is reused when the run
	// drains. dead counts the tombstones in band[pos:] (see deadSlot), so
	// Pending stays exact.
	band []key
	pos  int
	dead int
	// heap is heap-only mode's queue (heaponly.go); nil in hybrid mode.
	heap []key
	// locs and fns map EventID slots to locations and payloads (parallel
	// tables, see slotLoc); freeSlots recycles released slot indices so
	// the tables stay as small as the peak queue depth.
	locs      []slotLoc
	fns       []slotFn
	freeSlots []uint32

	// Timing wheel state. curB is the level-0 bucket the clock is in
	// (now>>l0GranBits), curB1 the level-1 bucket (now>>l1GranBits).
	// head0/head1 are the per-slot intrusive list heads, occ0/occ1 the
	// occupancy bitmaps used to jump over empty buckets, wheelCount the
	// number of events resident in either level.
	curB       int64
	curB1      int64
	head0      []uint32
	head1      []uint32
	occ0       []uint64
	occ1       []uint64
	wheelCount int
	// count1 is the number of events resident in level 1 alone, letting
	// advance skip the level-1 occupancy scan (32 words) entirely while
	// nothing is parked there.
	count1 int
	// noWheel forces every event into the heap — the pre-wheel behavior,
	// kept for differential tests and crossover benchmarks.
	noWheel bool

	// processed counts executed events, for instrumentation.
	processed uint64
	stopped   bool
	// stats counts band residency (see BandStats); moved counts the keys
	// in-band inserts shifted, which tests bound.
	stats BandStats
	moved uint64
}

// BandStats says how events reached the current band, counted per bucket
// flush and per in-band insert — never per event. Everything else the
// scheduler processed (Processed − CohortEvents − Inserts) was a singleton
// dispatched straight off the wheel.
type BandStats struct {
	// Cohorts is the number of level-0 buckets flushed into the band and
	// CohortEvents the events in them; CohortMax is the largest one.
	Cohorts, CohortEvents, CohortMax uint64
	// Inserts counts events filed into the band directly: scheduled,
	// rescheduled or cascaded into the bucket the clock is already in.
	Inserts uint64
}

// BandStats reports the band residency counters (all zero in heap-only
// mode).
func (s *Scheduler) BandStats() BandStats { return s.stats }

// New returns an empty hybrid scheduler at time zero.
func New() *Scheduler {
	s := &Scheduler{
		band:    make([]key, 0, 64),
		bandEnd: 1 << l0GranBits,
		head0:   make([]uint32, wheelSize),
		head1:   make([]uint32, wheelSize),
		occ0:    make([]uint64, wheelSize/64),
		occ1:    make([]uint64, wheelSize/64),
	}
	for i := range s.head0 {
		s.head0[i] = noIdx
		s.head1[i] = noIdx
	}
	return s
}

// Now reports the current simulated time.
func (s *Scheduler) Now() units.Time { return s.now }

// Processed reports how many events have been executed so far.
func (s *Scheduler) Processed() uint64 { return s.processed }

// At schedules fn to run at absolute time t. Scheduling in the past is a
// programming error and panics, because it would silently reorder causality.
func (s *Scheduler) At(t units.Time, fn func()) EventID {
	return s.schedule(t, fn, nil, nil)
}

// After schedules fn to run d after the current time.
func (s *Scheduler) After(d units.Time, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return s.schedule(s.now+d, fn, nil, nil)
}

// AtArg schedules fn(arg) at absolute time t. Callers on per-event hot
// paths preallocate fn once and vary only arg, so scheduling allocates
// nothing (pointer-shaped args box for free).
func (s *Scheduler) AtArg(t units.Time, fn func(any), arg any) EventID {
	return s.schedule(t, nil, fn, arg)
}

// AfterArg schedules fn(arg) to run d after the current time.
func (s *Scheduler) AfterArg(d units.Time, fn func(any), arg any) EventID {
	if d < 0 {
		d = 0
	}
	return s.schedule(s.now+d, nil, fn, arg)
}

func (s *Scheduler) schedule(t units.Time, fn func(), afn func(any), arg any) EventID {
	if s.stopped {
		// A stopped scheduler has drained its queue and retains nothing;
		// accepting new events would silently re-grow it from stale
		// timers (armed sim.Timers re-arming out of teardown paths).
		// Scheduling after Stop is a no-op until the next RunUntil.
		return NoEvent
	}
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	s.seq++
	var slot uint32
	if n := len(s.freeSlots); n > 0 {
		slot = s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
	} else {
		slot = uint32(len(s.locs))
		s.locs = append(s.locs, slotLoc{gen: 1})
		s.fns = append(s.fns, slotFn{})
	}
	// releaseSlot nil-cleared the payload, so store only the form in
	// use: fewer pointer writes, fewer GC write barriers per event.
	pf := &s.fns[slot]
	if fn != nil {
		pf.fn = fn
	} else {
		pf.afn, pf.arg = afn, arg
	}
	ref := &s.locs[slot]
	sq := uint32(s.seq)
	ref.at, ref.sq = t, sq
	s.place(slot, t, sq)
	return EventID(uint64(ref.gen)<<32 | uint64(slot))
}

// place files a live slot's event into the structure its fire time calls
// for: the run for the current band, a level-0 bucket inside the level-0
// horizon, a level-1 bucket for everything past it, however many
// rotations away (d0 > wheelSize puts t at least one level-1 bucket
// ahead of curB1). The slotLoc's at/sq must already be set.
func (s *Scheduler) place(slot uint32, t units.Time, sq uint32) {
	if s.noWheel {
		s.heapPush(slot, t, sq)
		return
	}
	if d0 := int64(t)>>l0GranBits - s.curB; d0 >= 1 {
		if d0 <= wheelSize {
			s.wheelPush(s.head0, s.occ0, int(int64(t)>>l0GranBits)&wheelMask, slot, false)
		} else {
			s.wheelPush(s.head1, s.occ1, int(int64(t)>>l1GranBits)&wheelMask, slot, true)
		}
		return
	}
	s.locs[slot].idx = inBand
	s.bandInsert(makeKey(t, sq, slot))
}

// bandInsert files a key into the live run at its sorted position — the
// rare path: an event aimed at the bucket the clock is already in. A
// callback schedules relative to now, so the key usually belongs at one
// end: after everything (append) or just past the cursor, where the
// fired keys below pos leave room to slide the few earlier ones down
// instead of the whole tail up. The cost is the distance to the nearer
// end.
func (s *Scheduler) bandInsert(k key) {
	s.stats.Inserts++
	run, lo := s.band, s.pos
	n := len(run)
	if lo == n {
		// Drained: restart at the front, so a chain of in-band inserts
		// (After(0) from a callback) reuses the same few entries.
		s.band = append(run[:0], k)
		s.pos = 0
		return
	}
	if !less(&k, &run[n-1]) {
		s.band = append(run, k)
		return
	}
	// Keys are unique, so the search lands on where k belongs.
	i, _ := slices.BinarySearchFunc(run[lo:], k, cmpKey)
	i += lo
	if lo > 0 && i-lo < n-i {
		copy(run[lo-1:], run[lo:i])
		run[i-1] = k
		s.pos = lo - 1
		s.moved += uint64(i - lo)
		return
	}
	run = append(run, key{})
	copy(run[i+1:], run[i:n])
	run[i] = k
	s.band = run
	s.moved += uint64(n - i)
}

// bandKill tombstones a band resident's key, found by binary search on
// the (time, sequence) its location record still holds. The caller
// releases or re-files the slot.
func (s *Scheduler) bandKill(slot uint32) {
	ref := &s.locs[slot]
	i, found := slices.BinarySearchFunc(s.band[s.pos:], makeKey(ref.at, ref.sq, slot), cmpKey)
	if !found {
		panic(fmt.Sprintf("sim: band resident slot %d (at %v) is not in the run", slot, ref.at))
	}
	i += s.pos
	if i == len(s.band)-1 {
		// The last key just goes: a timer pushed back again and again
		// inside one band leaves no trail.
		s.band = s.band[:i]
		return
	}
	s.band[i].ss |= uint64(deadSlot)
	s.dead++
}

// insertionMax is the run length up to which sortRun insertion-sorts: a
// cohort is a handful of keys in nearly ascending order, where that is a
// compare per key and no call.
const insertionMax = 24

// cmpKey is less as a three-way comparison, for package slices.
func cmpKey(a, b key) int {
	switch {
	case less(&a, &b):
		return -1
	case less(&b, &a):
		return 1
	}
	return 0
}

// sortRun orders a run by (time, sequence). Keys are unique, so the order
// is total and the result does not depend on the algorithm.
func sortRun(run []key) {
	if len(run) > insertionMax {
		slices.SortFunc(run, cmpKey)
		return
	}
	for i := 1; i < len(run); i++ {
		e := run[i]
		j := i
		for j > 0 && less(&e, &run[j-1]) {
			run[j] = run[j-1]
			j--
		}
		run[j] = e
	}
}

// wheelPush front-inserts a slot into one bucket's intrusive list. Order
// within a bucket is irrelevant: the flush into the band sorts the cohort
// by (time, sequence).
func (s *Scheduler) wheelPush(head []uint32, occ []uint64, b int, slot uint32, l1 bool) {
	ref := &s.locs[slot]
	if l1 {
		ref.idx = -2 - int32(b) - wheelSize
	} else {
		ref.idx = -2 - int32(b)
	}
	h := head[b]
	ref.next, ref.prev = h, noIdx
	if h != noIdx {
		s.locs[h].prev = slot
	}
	head[b] = slot
	occ[b>>6] |= 1 << (uint(b) & 63)
	s.wheelCount++
	if l1 {
		s.count1++
	}
}

// wheelRemove unlinks a wheel-resident slot (ref.idx <= -2) from its
// bucket list in O(1).
func (s *Scheduler) wheelRemove(slot uint32) {
	ref := &s.locs[slot]
	b := int(-ref.idx) - 2
	head, occ := s.head0, s.occ0
	if b >= wheelSize {
		b -= wheelSize
		head, occ = s.head1, s.occ1
		s.count1--
	}
	if ref.prev != noIdx {
		s.locs[ref.prev].next = ref.next
	} else {
		head[b] = ref.next
		if ref.next == noIdx {
			occ[b>>6] &^= 1 << (uint(b) & 63)
		}
	}
	if ref.next != noIdx {
		s.locs[ref.next].prev = ref.prev
	}
	s.wheelCount--
}

// flushBucket migrates one level-0 bucket's cohort into the band and
// sorts the run. Bucket lists are LIFO and later-scheduled events mostly
// fire later, so reversing the cohort into ascending-sequence order first
// hands the sort nearly sorted input. The caller has drained the run; at
// most a few keys the cascade just filed are ahead of the cohort.
func (s *Scheduler) flushBucket(b int) {
	cur := s.head0[b]
	s.head0[b] = noIdx
	s.occ0[b>>6] &^= 1 << (uint(b) & 63)
	start := len(s.band)
	for cur != noIdx {
		ref := &s.locs[cur]
		ref.idx = inBand
		s.band = append(s.band, makeKey(ref.at, ref.sq, cur))
		cur = ref.next
	}
	cohort := s.band[start:]
	n := uint64(len(cohort))
	s.wheelCount -= len(cohort)
	s.stats.Cohorts++
	s.stats.CohortEvents += n
	if n > s.stats.CohortMax {
		s.stats.CohortMax = n
	}
	slices.Reverse(cohort)
	sortRun(s.band[s.pos:])
}

// cascade re-files one level-1 bucket when the clock enters its span: an
// event due in this span lands in a level-0 bucket (or the band, if its
// bucket is the current one), one parked for a later rotation goes
// straight back into bucket b.
func (s *Scheduler) cascade(b int) {
	cur := s.head1[b]
	s.head1[b] = noIdx
	s.occ1[b>>6] &^= 1 << (uint(b) & 63)
	for cur != noIdx {
		ref := &s.locs[cur]
		next := ref.next
		s.wheelCount--
		s.count1--
		s.place(cur, ref.at, ref.sq)
		cur = next
	}
}

// nextOcc scans an occupancy bitmap for the first set bit at wrapped
// distance 1..wheelSize from slot from, returning the distance (0 = none).
func nextOcc(occ []uint64, from int) int {
	// The remainder of the starting slot's word first, then whole words
	// around the ring. Within a word the lowest set bit is always the
	// nearest in scan order (the full-circle word's high bits were
	// already checked empty by the first probe).
	start := (from + 1) & wheelMask
	w := start >> 6
	bit := uint(start) & 63
	if word := occ[w] >> bit; word != 0 {
		s0 := w<<6 + int(bit) + bits.TrailingZeros64(word)
		return (s0 - from) & wheelMask
	}
	for i := 1; i <= wheelSize/64; i++ {
		wi := (w + i) & (wheelSize/64 - 1)
		if word := occ[wi]; word != 0 {
			d := (wi<<6 + bits.TrailingZeros64(word) - from) & wheelMask
			if d == 0 {
				d = wheelSize
			}
			return d
		}
	}
	return 0
}

// lookup resolves a handle to its slot, rejecting stale handles
// (fired, cancelled, or recycled slots).
func (s *Scheduler) lookup(id EventID) (uint32, bool) {
	slot := uint32(id)
	if int(slot) >= len(s.locs) {
		return 0, false
	}
	ref := &s.locs[slot]
	if ref.gen != uint32(id>>32) || ref.idx == -1 {
		return 0, false
	}
	return slot, true
}

// Cancel removes a pending event from the queue in place — an O(1) list
// splice for wheel-resident events, a binary search and a tombstone for
// band residents — dropping its callback and argument references
// immediately. It reports
// whether the handle was live; cancelling an already-fired or
// already-cancelled event is a no-op.
func (s *Scheduler) Cancel(id EventID) bool {
	slot, ok := s.lookup(id)
	if !ok {
		return false
	}
	switch i := s.locs[slot].idx; {
	case i < 0:
		s.wheelRemove(slot)
	case s.noWheel:
		s.removeAt(int(i))
		return true
	default:
		s.bandKill(slot)
	}
	s.releaseSlot(slot)
	return true
}

// Reschedule moves a pending event to absolute time t in place. The
// event is re-sequenced as if freshly scheduled, so it fires after
// everything already queued for the same instant (identical tie-breaking
// to Cancel+At). It reports whether the handle was live.
func (s *Scheduler) Reschedule(id EventID, t units.Time) bool {
	slot, ok := s.lookup(id)
	if !ok {
		return false
	}
	if t < s.now {
		panic(fmt.Sprintf("sim: rescheduling event to %v before now %v", t, s.now))
	}
	s.seq++
	sq := uint32(s.seq)
	ref := &s.locs[slot]
	switch i := ref.idx; {
	case i < 0:
		s.wheelRemove(slot)
	case s.noWheel:
		ref.at, ref.sq = t, sq
		s.heapMove(int(i), t, sq)
		return true
	default:
		s.bandKill(slot) // reads the old at/sq
	}
	ref.at, ref.sq = t, sq
	s.place(slot, t, sq)
	return true
}

// releaseSlot frees a slot, drops its callback and argument references,
// and invalidates every outstanding handle to it by bumping the
// generation (skipping 0, which marks NoEvent).
func (s *Scheduler) releaseSlot(slot uint32) {
	ref := &s.locs[slot]
	ref.idx = -1
	ref.gen++
	if ref.gen == 0 {
		ref.gen = 1
	}
	pf := &s.fns[slot]
	if pf.fn != nil {
		pf.fn = nil
	} else {
		pf.afn, pf.arg = nil, nil
	}
	s.freeSlots = append(s.freeSlots, slot)
}

// Stop makes Run/RunUntil return after the current event completes and
// drains the queue: every pending event (and its closure) is discarded
// from both the band and the wheel, so a stopped scheduler retains
// nothing. Long sweeps run thousands of schedulers back to back; without
// the drain each stopped run would pin its undelivered closures (and
// everything they capture) until the whole sweep finished.
func (s *Scheduler) Stop() {
	s.stopped = true
	if s.noWheel {
		s.drainHeap()
		return
	}
	for _, k := range s.band[s.pos:] {
		if slot := k.slotIdx(); slot != deadSlot {
			s.releaseSlot(slot)
		}
	}
	s.band, s.pos, s.dead = s.band[:0], 0, 0
	if s.wheelCount > 0 {
		for _, lvl := range [2]struct {
			head []uint32
			occ  []uint64
		}{{s.head0, s.occ0}, {s.head1, s.occ1}} {
			for b := 0; b < wheelSize; b++ {
				for cur := lvl.head[b]; cur != noIdx; {
					next := s.locs[cur].next
					s.releaseSlot(cur)
					cur = next
				}
				lvl.head[b] = noIdx
			}
			for w := range lvl.occ {
				lvl.occ[w] = 0
			}
		}
		s.wheelCount = 0
		s.count1 = 0
	}
}

// Pending reports the number of queued events across the band and both
// wheel levels.
func (s *Scheduler) Pending() int {
	if s.noWheel {
		return len(s.heap) - pad
	}
	return len(s.band) - s.pos - s.dead + s.wheelCount
}

// Run executes events until the queue is empty or Stop is called.
func (s *Scheduler) Run() {
	s.RunUntil(units.Forever)
}

// RunUntil executes events with timestamps <= deadline, advancing the clock.
// Events scheduled beyond the deadline remain queued; the clock is left at
// the deadline (or at the last event if the queue drained first).
func (s *Scheduler) RunUntil(deadline units.Time) {
	s.stopped = false
	if s.noWheel {
		s.runHeapOnly(deadline)
	} else {
		// Dispatch the band's run, then move the band on; either reports
		// false once nothing more is due by the deadline.
		for more := true; more && !s.stopped; {
			if s.pos < len(s.band) {
				more = s.runBand(deadline)
			} else {
				more = s.advance(deadline)
			}
		}
	}
	if deadline != units.Forever && s.now < deadline {
		s.now = deadline
	}
}

// runBand dispatches the run from the cursor on, in order, until it
// drains, Stop is called, or the next key is past the deadline (the only
// case it reports false for). The run is sorted by (time, sequence) and
// an event a callback schedules for the running instant is inserted with
// a later sequence behind its equal-time peers, so same-timestamp events
// fire in FIFO order exactly as a global sorted queue would deliver them.
func (s *Scheduler) runBand(deadline units.Time) bool {
	for s.pos < len(s.band) {
		k := s.band[s.pos]
		if k.at > deadline {
			return false
		}
		s.pos++
		slot := k.slotIdx()
		if slot == deadSlot {
			s.dead--
			continue
		}
		s.now = k.at
		pf := &s.fns[slot]
		fn, afn, arg := pf.fn, pf.afn, pf.arg
		s.releaseSlot(slot)
		s.processed++
		if fn != nil {
			fn()
		} else {
			afn(arg)
		}
		if s.stopped {
			break
		}
	}
	return true
}

// advance moves the clock's band forward to the next bucket holding
// work, cascading and flushing wheel cohorts into the band. The caller
// has drained the run, so the wheel alone decides the target. It
// reports whether the caller should re-check the run; false means
// nothing is pending at or before the deadline (the clock is settled).
func (s *Scheduler) advance(deadline units.Time) bool {
	s.band, s.pos = s.band[:0], 0
	for {
		if s.wheelCount == 0 {
			return false // nothing pending anywhere
		}
		target := int64(units.Forever) >> l0GranBits
		if d := nextOcc(s.occ0, int(s.curB)&wheelMask); d > 0 {
			target = s.curB + int64(d)
		}
		if s.count1 > 0 {
			if d := nextOcc(s.occ1, int(s.curB1)&wheelMask); d > 0 {
				// The earliest possible event in a level-1 bucket is its
				// first level-0 bucket; if the residents are all parked
				// for later rotations the stop is an empty one.
				if b := (s.curB1 + int64(d)) << wheelBits; b < target {
					target = b
				}
			}
		}
		if target > int64(deadline)>>l0GranBits {
			if s.now < deadline {
				s.now = deadline
			}
			return false
		}
		s.curB = target
		s.bandEnd = units.Time(target+1) << l0GranBits
		if b1 := target >> wheelBits; b1 != s.curB1 {
			s.curB1 = b1
			s.cascade(int(b1) & wheelMask)
		}
		b := int(target) & wheelMask
		if s.occ0[b>>6]&(1<<(uint(b)&63)) != 0 {
			if slot := s.head0[b]; len(s.band) == 0 && s.locs[slot].next == noIdx && s.locs[slot].at <= deadline {
				// Singleton fast path: one event in the bucket and an
				// empty run (the cascade above may have filed a rival
				// for this bucket there) means the event is the global
				// minimum with no same-instant rival, so dispatch it
				// straight off the wheel — no copy into the run — and
				// advance again: runs of singleton buckets (the common
				// case at this bucket granularity) stay inside this
				// loop. Events the callback schedules for the running
				// instant land in the (empty) run, which bounces back
				// to the caller's dispatch loop.
				s.head0[b] = noIdx
				s.occ0[b>>6] &^= 1 << (uint(b) & 63)
				s.wheelCount--
				s.now = s.locs[slot].at
				pf := &s.fns[slot]
				fn, afn, arg := pf.fn, pf.afn, pf.arg
				s.releaseSlot(slot)
				s.processed++
				if fn != nil {
					fn()
				} else {
					afn(arg)
				}
				if s.stopped || len(s.band) > 0 {
					return true
				}
				continue
			}
			s.flushBucket(b)
		}
		return true
	}
}

// DebugCheck verifies the internal consistency of the queue. In hybrid
// mode: the live run strictly sorted by (time, sequence), every key in it
// inside the current band and not before the clock, every live key's
// location record saying "in band" with the same time and sequence, the
// tombstone count; wheel occupancy bitmaps and the wheelCount matching
// the lists, every wheel resident being filed in the bucket its fire
// time maps to (level 0 within one rotation, level 1 any number out), and
// free slots being truly dead. In heap-only mode the heap property and
// backpointers stand in for the run checks. It is O(n + wheelSize) and
// meant for tests (the scheduler fuzzers call it after every operation);
// it returns the first violation found, or nil.
func (s *Scheduler) DebugCheck() error {
	check := s.checkBand
	if s.noWheel {
		check = s.checkHeap
	}
	live, err := check()
	if err != nil {
		return err
	}
	inWheel, inL1 := 0, 0
	for lvl, w := range [2]struct {
		head []uint32
		occ  []uint64
		gran uint
		cur  int64
	}{{s.head0, s.occ0, l0GranBits, s.curB}, {s.head1, s.occ1, l1GranBits, s.curB1}} {
		for b := 0; b < len(w.head); b++ {
			occupied := w.occ[b>>6]&(1<<(uint(b)&63)) != 0
			if (w.head[b] != noIdx) != occupied {
				return fmt.Errorf("sim: wheel L%d bucket %d occupancy bit %v but head %v", lvl, b, occupied, w.head[b])
			}
			prev := noIdx
			for cur := w.head[b]; cur != noIdx; cur = s.locs[cur].next {
				ref := &s.locs[cur]
				want := -2 - int32(b) - int32(lvl)*wheelSize
				if ref.idx != want {
					return fmt.Errorf("sim: wheel L%d bucket %d slot %d has idx %d, want %d", lvl, b, cur, ref.idx, want)
				}
				if ref.prev != prev {
					return fmt.Errorf("sim: wheel L%d bucket %d slot %d prev %d, want %d", lvl, b, cur, ref.prev, prev)
				}
				if got := int(int64(ref.at)>>w.gran) & wheelMask; got != b {
					return fmt.Errorf("sim: wheel L%d bucket %d holds event for bucket %d (at=%v)", lvl, b, got, ref.at)
				}
				if d := int64(ref.at)>>w.gran - w.cur; d < 1 || lvl == 0 && d > wheelSize {
					return fmt.Errorf("sim: wheel L%d bucket %d event at %v outside window (distance %d)", lvl, b, ref.at, d)
				}
				if pf := &s.fns[cur]; pf.fn == nil && pf.afn == nil {
					return fmt.Errorf("sim: wheel slot %d has no callback", cur)
				}
				prev = cur
				inWheel++
				inL1 += lvl
			}
		}
	}
	if inWheel != s.wheelCount {
		return fmt.Errorf("sim: wheel lists hold %d events, wheelCount %d", inWheel, s.wheelCount)
	}
	if inL1 != s.count1 {
		return fmt.Errorf("sim: level-1 lists hold %d events, count1 %d", inL1, s.count1)
	}
	live += inWheel
	for _, slot := range s.freeSlots {
		ref := &s.locs[slot]
		if ref.idx != -1 {
			return fmt.Errorf("sim: free slot %d still points at location %d", slot, ref.idx)
		}
		if pf := &s.fns[slot]; pf.fn != nil || pf.afn != nil || pf.arg != nil {
			return fmt.Errorf("sim: free slot %d retains a callback or argument", slot)
		}
	}
	if live+len(s.freeSlots) != len(s.locs) {
		return fmt.Errorf("sim: %d live + %d free != %d slots", live, len(s.freeSlots), len(s.locs))
	}
	return nil
}

// checkBand is DebugCheck's run part; it returns the number of live
// events in the band.
func (s *Scheduler) checkBand() (int, error) {
	if s.heap != nil {
		return 0, fmt.Errorf("sim: hybrid scheduler has a heap (%d keys)", len(s.heap))
	}
	if s.pos > len(s.band) {
		return 0, fmt.Errorf("sim: run cursor %d past the run's end %d", s.pos, len(s.band))
	}
	live, dead := 0, 0
	for i := s.pos; i < len(s.band); i++ {
		k := &s.band[i]
		if k.at >= s.bandEnd || k.at < s.now {
			return 0, fmt.Errorf("sim: run index %d holds event at %v outside [now %v, band end %v)", i, k.at, s.now, s.bandEnd)
		}
		if i > s.pos && !less(&s.band[i-1], k) {
			return 0, fmt.Errorf("sim: run not sorted at index %d", i)
		}
		slot := k.slotIdx()
		if slot == deadSlot {
			dead++
			continue
		}
		if int(slot) >= len(s.locs) {
			return 0, fmt.Errorf("sim: run index %d references slot %d beyond table (%d)", i, slot, len(s.locs))
		}
		if ref := &s.locs[slot]; ref.idx != inBand || ref.at != k.at || ref.sq != uint32(k.ss>>32) {
			return 0, fmt.Errorf("sim: run index %d key (%v, %d) but slot %d records idx %d (%v, %d)", i, k.at, uint32(k.ss>>32), slot, ref.idx, ref.at, ref.sq)
		}
		if pf := &s.fns[slot]; pf.fn == nil && pf.afn == nil {
			return 0, fmt.Errorf("sim: queued slot %d has no callback", slot)
		}
		live++
	}
	if dead != s.dead {
		return 0, fmt.Errorf("sim: run holds %d tombstones, dead count %d", dead, s.dead)
	}
	return live, nil
}

// Timer is a re-armable timer built on the scheduler. It is
// used for periodic credit updates, CNP generation windows, rate-increase
// timers and similar protocol machinery.
//
// Arm of an already-armed timer is one in-place Reschedule — the queue
// never grows, and no closure is created: the scheduler is handed the
// static timerFire with the timer as its argument, and the timer calls
// its owner's static callback with the owner as the argument, so a
// timer costs its owner no method value either.
type Timer struct {
	s   *Scheduler
	fn  func(any)
	arg any
	id  EventID // the live arm's handle; NoEvent when idle
}

// Init makes t an unarmed timer that runs fn(arg) when it fires. A Timer
// lives by value in its owner, which must not be copied afterwards: the
// scheduler is handed t as its event argument.
func (t *Timer) Init(s *Scheduler, fn func(any), arg any) {
	*t = Timer{s: s, fn: fn, arg: arg}
}

// Arm (re)schedules the timer to fire d from now, replacing any pending
// arm. Arming against a stopped scheduler is a no-op: Stop() drained the
// queue and invalidated every handle, so a stale timer re-arming out of a
// teardown path must not resurrect events (the timer stays unarmed).
func (t *Timer) Arm(d units.Time) {
	if d < 0 {
		d = 0
	}
	at := t.s.Now() + d
	if t.id != NoEvent && t.s.Reschedule(t.id, at) {
		return
	}
	t.id = t.s.AtArg(at, timerFire, t)
}

func timerFire(arg any) { arg.(*Timer).fire() }

func (t *Timer) fire() {
	t.id = NoEvent
	t.fn(t.arg)
}
