package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
)

// cacheOp is one step of a resultCache script.
type cacheOp struct {
	// op is "put" (reserve and complete with size bytes), "fail" (reserve
	// and complete with an error), "reserve" (leave in flight) or "touch"
	// (lookup).
	op   string
	hash string
	size int
}

// fits is the budget that holds exactly n bodies of size bytes.
func fits(n, size int) int64 { return int64(n) * int64(size+entryOverhead) }

// flood is n puts of distinct size-byte bodies, with a touch of warm
// after each when warm is non-empty.
func flood(n, size int, warm string) []cacheOp {
	var ops []cacheOp
	for i := 0; i < n; i++ {
		ops = append(ops, cacheOp{"put", fmt.Sprintf("flood%d", i), size})
		if warm != "" {
			ops = append(ops, cacheOp{"touch", warm, 0})
		}
	}
	return ops
}

// TestResultCacheBudget scripts the cache directly: what survives, in
// recency order, what is charged and how many were evicted. After every
// step the charge must equal the cost of the completed entries and stay
// inside the budget, so it cannot drift and is zero whenever nothing
// completed is held.
func TestResultCacheBudget(t *testing.T) {
	cases := []struct {
		name    string
		budget  int64
		ops     []cacheOp
		want    []string // completed entries, most recently used first
		pinned  []string // in-flight entries still registered
		evicted uint64
	}{
		{
			name:   "least recently used goes first",
			budget: fits(3, 100),
			ops: []cacheOp{
				{"put", "a", 100}, {"put", "b", 100}, {"put", "c", 100},
				{"touch", "a", 0}, {"put", "d", 100}, {"put", "e", 100},
			},
			want:    []string{"e", "d", "a"},
			evicted: 2,
		},
		{
			name:    "the charge is bytes, not entries",
			budget:  fits(4, 100),
			ops:     []cacheOp{{"put", "a", 100}, {"put", "b", 100}, {"put", "c", 100}, {"put", "big", 300 + 2*entryOverhead}},
			want:    []string{"big", "c"},
			evicted: 2,
		},
		{
			name:    "a flood of tiny bodies is bounded by the overhead",
			budget:  8 * entryOverhead,
			ops:     flood(100, 0, ""),
			want:    []string{"flood99", "flood98", "flood97", "flood96", "flood95", "flood94", "flood93", "flood92"},
			evicted: 92,
		},
		{
			name:    "a touched entry survives a flood",
			budget:  fits(4, 100),
			ops:     append([]cacheOp{{"put", "warm", 100}}, flood(50, 100, "warm")...),
			want:    []string{"warm", "flood49", "flood48", "flood47"},
			evicted: 47,
		},
		{
			name:   "in-flight entries are neither charged nor evicted",
			budget: fits(2, 100),
			ops: append([]cacheOp{{"reserve", "x", 0}, {"reserve", "y", 0}},
				append(flood(10, 100, ""), cacheOp{"touch", "x", 0})...),
			want:    []string{"flood9", "flood8"},
			pinned:  []string{"x", "y"},
			evicted: 8,
		},
		{
			name:   "failed runs are not retained",
			budget: fits(2, 100),
			ops:    []cacheOp{{"fail", "a", 0}, {"fail", "b", 0}},
		},
		{
			name:    "an over-budget body is not kept and flushes nothing",
			budget:  fits(2, 100),
			ops:     []cacheOp{{"put", "a", 100}, {"put", "huge", 1000}, {"put", "b", 100}},
			want:    []string{"b", "a"},
			evicted: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newResultCache(tc.budget)
			for i, op := range tc.ops {
				switch op.op {
				case "touch":
					if c.lookup(op.hash) == nil {
						t.Fatalf("step %d: %s is gone", i, op.hash)
					}
				case "reserve", "put", "fail":
					e, created := c.reserve(op.hash)
					if !created {
						t.Fatalf("step %d: %s already registered", i, op.hash)
					}
					body := bytes.Repeat([]byte{'x'}, op.size)
					switch op.op {
					case "put":
						c.complete(e, body, nil, 0)
					case "fail":
						c.complete(e, nil, errors.New("boom"), 0)
					}
					// Whatever the cache kept, the waiters are served.
					if op.op != "reserve" && (!e.completed() || len(e.bytes) != op.size) {
						t.Fatalf("step %d: %s resolved with %d bytes, want %d", i, op.hash, len(e.bytes), op.size)
					}
				}
				var sum int64
				for el := c.order.Front(); el != nil; el = el.Next() {
					sum += el.Value.(*cacheEntry).cost()
				}
				if c.used != sum || c.used > c.budget {
					t.Fatalf("step %d: charged %d, entries cost %d, budget %d", i, c.used, sum, c.budget)
				}
			}
			var got, pinned []string
			for el := c.order.Front(); el != nil; el = el.Next() {
				got = append(got, el.Value.(*cacheEntry).hash)
			}
			for h, e := range c.entries {
				if !e.completed() {
					pinned = append(pinned, h)
				}
			}
			slices.Sort(pinned)
			if !slices.Equal(got, tc.want) || !slices.Equal(pinned, tc.pinned) {
				t.Errorf("kept %v pinning %v, want %v pinning %v", got, pinned, tc.want, tc.pinned)
			}
			live, done, used, evicted := c.stats()
			if live != len(tc.want)+len(tc.pinned) || done != len(tc.want) || evicted != tc.evicted {
				t.Errorf("stats: %d live, %d done, %d evicted; want %d, %d, %d",
					live, done, evicted, len(tc.want)+len(tc.pinned), len(tc.want), tc.evicted)
			}
			if len(tc.want) == 0 && used != 0 {
				t.Errorf("nothing kept, %d bytes charged", used)
			}
		})
	}
}

// seedBody is a stub result that names its spec, padded to size bytes.
func seedBody(spec *JobSpec, size int) []byte {
	b := append([]byte(`{"echo":`), spec.Canonical()...)
	return append(b, bytes.Repeat([]byte{' '}, size-len(b))...)
}

// TestEvictionReleasesBytes floods a daemon whose budget holds a few
// dozen bodies with more distinct jobs than the record ring holds. The
// cache must stay inside its budget, the heap must not keep the evicted
// bodies (a finished record that pinned its body would keep them all),
// and a record whose body is gone answers 410 and names the spec hash; a
// resubmission recomputes the same bytes.
func TestEvictionReleasesBytes(t *testing.T) {
	const (
		bodySize = 32 << 10
		budget   = 1 << 20
		n        = jobRecords + 8
	)
	s, ts := newTestDaemon(t, Config{Workers: 1, CacheBytes: budget, Exec: func(_ context.Context, spec *JobSpec, _ io.Writer) ([]byte, error) {
		return seedBody(spec, bodySize), nil
	}})

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const probe = 100 // recorded to the end, evicted from the cache long before
	var probeID, probeHash string
	var probeBody []byte
	for i := 0; i < n; i++ {
		code, hdr, body := submitWait(t, ts.URL, distinctSpec(i))
		if code != http.StatusOK || len(body) != bodySize {
			t.Fatalf("job %d: status %d, %d bytes", i, code, len(body))
		}
		if i == probe {
			probeID, probeHash, probeBody = hdr.Get("X-Job-Id"), hdr.Get("X-Spec-Hash"), body
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	st := s.snapshot()
	if st.CacheBytes > budget || st.CacheBudget != budget || st.CacheEvicted < n-budget/bodySize {
		t.Errorf("cache holds %d of %d bytes after %d evictions", st.CacheBytes, st.CacheBudget, st.CacheEvicted)
	}
	var held int64
	s.cache.mu.Lock()
	for _, e := range s.cache.entries {
		held += int64(len(e.bytes))
	}
	s.cache.mu.Unlock()
	if held > budget {
		t.Errorf("cache entries hold %d body bytes, budget %d", held, budget)
	}
	// Pinned bodies would be n x 32 KB = 131 MB; allow the budget, the
	// records and their replay buffers.
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 16*budget {
		t.Errorf("heap grew by %d MB over %d jobs under a %d MB budget", grown>>20, n, budget>>20)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + probeID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone || resp.Header.Get("X-Spec-Hash") != probeHash {
		t.Errorf("result of an evicted body: status %d, X-Spec-Hash %q; want 410 and %q", resp.StatusCode, resp.Header.Get("X-Spec-Hash"), probeHash)
	}
	code, hdr, body := submitWait(t, ts.URL, distinctSpec(probe))
	if code != http.StatusOK || hdr.Get("X-Cache") != "miss" || !bytes.Equal(body, probeBody) {
		t.Errorf("resubmitting an evicted spec: status %d, X-Cache %q, same bytes %v", code, hdr.Get("X-Cache"), bytes.Equal(body, probeBody))
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/" + probeID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, probeBody) {
		t.Errorf("old record after the resubmission: status %d, same bytes %v", resp.StatusCode, bytes.Equal(got, probeBody))
	}
}

// TestMixedWaveUnderBudget is TestMixedWave with a cache that holds six
// of the wave's 36 distinct bodies, so entries are evicted while their
// twins are being served and warm specs may be recomputed. Every body
// must still be the one for the spec that was sent, every miss is one
// run, and the cache ends inside its budget.
func TestMixedWaveUnderBudget(t *testing.T) {
	const bodySize = 4 << 10
	var runs atomic.Uint64
	s, ts := newTestDaemon(t, Config{Workers: 4, QueueCap: 256, CacheBytes: fits(6, bodySize), Exec: func(_ context.Context, spec *JobSpec, _ io.Writer) ([]byte, error) {
		runs.Add(1)
		return seedBody(spec, bodySize), nil
	}})

	const n = 96
	mixedWave(t, ts.URL, n, func(spec *JobSpec) []byte { return seedBody(spec, bodySize) })

	const distinct = n/3 + 4
	st := s.snapshot()
	if st.Failed != 0 || st.Misses < distinct || st.Misses != runs.Load() {
		t.Errorf("%d failed, %d misses, %d runs; want 0, at least %d (one per distinct spec), and as many runs as misses", st.Failed, st.Misses, runs.Load(), distinct)
	}
	if st.CacheEvicted < distinct-6 || st.CacheBytes > st.CacheBudget {
		t.Errorf("%d evicted, %d of %d bytes held; want at least %d evictions inside the budget", st.CacheEvicted, st.CacheBytes, st.CacheBudget, distinct-6)
	}
}

// TestEvictedSpecRecomputesSameBytes: through the real executor, a
// spec's miss, its hit, a direct CatalogExec and — after a flood has
// evicted it — its second miss are one body.
func TestEvictedSpecRecomputesSameBytes(t *testing.T) {
	_, ts := newTestDaemon(t, Config{Workers: 2, CacheBytes: 16 << 10})
	spec, err := ParseJobSpec([]byte(shortSpec))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := CatalogExec(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"miss", "hit", "miss"}
	for i, cache := range want {
		code, hdr, body := submitWait(t, ts.URL, shortSpec)
		if code != http.StatusOK || hdr.Get("X-Cache") != cache || !bytes.Equal(body, direct) {
			t.Fatalf("submit %d: status %d, X-Cache %q (want %q), equals a direct run: %v", i, code, hdr.Get("X-Cache"), cache, bytes.Equal(body, direct))
		}
		if i == 1 {
			shortFlood(t, ts.URL, 32)
		}
	}
}
