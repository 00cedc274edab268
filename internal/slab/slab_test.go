package slab

import "testing"

type rec struct {
	a, b int64
	p    *rec
}

func TestNewHandsOutDistinctZeroedRecords(t *testing.T) {
	var s Of[rec]
	seen := make(map[*rec]bool)
	for i := 0; i < 5000; i++ {
		r := s.New()
		if seen[r] {
			t.Fatalf("record %d handed out twice", i)
		}
		if *r != (rec{}) {
			t.Fatalf("record %d not zeroed: %+v", i, *r)
		}
		seen[r] = true
		r.a, r.b, r.p = int64(i), -1, r
	}
	for r := range seen {
		if r.p != r || r.b != -1 {
			t.Fatal("a later New overwrote an earlier record")
		}
	}
}

// TestNewAllocsPerChunk pins the allocation count: chunks double from 16
// records up to 32 KB, so 5000 24-byte records take 16+32+...+1024 (7
// chunks) and then 1365-record chunks (3 more).
func TestNewAllocsPerChunk(t *testing.T) {
	allocs := testing.AllocsPerRun(3, func() {
		var s Of[rec]
		for i := 0; i < 5000; i++ {
			s.New()
		}
	})
	if allocs > 10 {
		t.Errorf("5000 records took %.0f allocations, want 10", allocs)
	}
}
