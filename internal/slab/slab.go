// Package slab hands out the records a simulation keeps for its whole
// run — ports, endpoints, flows, detectors, rate controllers — from
// chunked arrays, so building a run costs a number of allocations that
// grows with the bytes it needs, not with how many records it has.
//
// A record lives as long as the chunk it sits in, and chunks are never
// freed before the whole slab is dropped: that is the lifetime of every
// record a run builds once and keeps. A Slab is not safe for concurrent
// use; each run owns its own.
package slab

import "unsafe"

const (
	// chunkBytes caps a chunk under the allocator's 32 KB large-object
	// limit: one large slab per rig raises the peak resident set of a
	// k=16 fat-tree run measurably, chunks of this size do not.
	chunkBytes = 32 << 10
	// firstChunk is the length of the first chunk; each next one doubles
	// up to the cap, so a small rig does not pay for a full chunk.
	firstChunk = 16
)

// Of allocates records of type T. The zero value is ready to use.
type Of[T any] struct {
	free []T
	next int
}

// New returns a pointer to a zeroed T carved from the current chunk,
// allocating a new chunk when it is used up. The pointer stays valid for
// as long as the caller holds it.
func (s *Of[T]) New() *T {
	if len(s.free) == 0 {
		limit := max(1, chunkBytes/int(max(1, unsafe.Sizeof(*new(T)))))
		s.next = min(max(s.next*2, firstChunk), limit)
		s.free = make([]T, s.next)
	}
	p := &s.free[0]
	s.free = s.free[1:]
	return p
}
