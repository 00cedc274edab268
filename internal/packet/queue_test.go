package packet

import (
	"testing"
	"unsafe"
)

// TestPacketIsOneCacheLine pins the field order that packs a packet into
// 64 bytes, so 512 of them fill a 32 KB arena chunk.
func TestPacketIsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(Packet{}); n != 64 {
		t.Errorf("Packet is %d bytes, want 64", n)
	}
}

// TestQueueFIFO drives a queue through wrap-around and growth against a
// plain slice, from a seeded ring and from none.
func TestQueueFIFO(t *testing.T) {
	for _, seeded := range []bool{false, true} {
		var q Queue
		if seeded {
			q.Seed(new(Ring))
		}
		pkts := make([]Packet, 300)
		var want []*Packet
		next := 0
		// Push bursts longer than the pops, so the ring wraps before it
		// grows and grows with its head in the middle.
		for round := 0; next < len(pkts); round++ {
			for i := 0; i < 3+round%5 && next < len(pkts); i++ {
				q.Push(&pkts[next])
				want = append(want, &pkts[next])
				next++
			}
			for i := 0; i < 2 && !q.Empty(); i++ {
				if got := q.Pop(); got != want[0] {
					t.Fatalf("seeded=%v: popped packet %p, want %p", seeded, got, want[0])
				}
				want = want[1:]
			}
			if q.Len() != len(want) {
				t.Fatalf("seeded=%v: Len %d, want %d", seeded, q.Len(), len(want))
			}
			for i, p := range want {
				if q.At(i) != p {
					t.Fatalf("seeded=%v: At(%d) is not the %d-th queued packet", seeded, i, i)
				}
			}
		}
		for len(want) > 0 {
			if q.Peek() != want[0] || q.Pop() != want[0] {
				t.Fatalf("seeded=%v: drain out of order", seeded)
			}
			want = want[1:]
		}
		if !q.Empty() {
			t.Fatalf("seeded=%v: queue not empty after drain", seeded)
		}
	}
}

// TestQueueSteadyStateAllocs: once a queue has reached its high-water
// mark, pushing and popping reuses its slots.
func TestQueueSteadyStateAllocs(t *testing.T) {
	var q Queue
	var p Packet
	for i := 0; i < 8; i++ {
		q.Push(&p)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		q.Push(&p)
		q.Pop()
	}); allocs > 0 {
		t.Errorf("steady-state Push/Pop allocates %.1f/op, want 0", allocs)
	}
}
