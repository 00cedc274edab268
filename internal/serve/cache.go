package serve

import (
	"container/list"
	"sync"
	"time"
)

// cacheEntry is the unit of result sharing: every submission of one
// spec hash is answered from one entry. The entry is created in-flight
// when the first submission reserves the hash; concurrent identical
// submissions coalesce onto it instead of enqueueing duplicate work, and
// later submissions after completion are warm hits served straight from
// bytes.
type cacheEntry struct {
	hash string
	// done closes when the run completes (successfully or not); bytes
	// and err are immutable afterwards. Waiters select on done, so a
	// coalesced or waiting client never polls.
	done chan struct{}
	// bytes is the full deterministic result JSON.
	bytes []byte
	err   error
	// wall is the producing run's duration (zero for failed runs).
	wall time.Duration
	// lru is the entry's position in the cache's eviction list (nil
	// while in-flight; in-flight entries are never evicted).
	lru *list.Element
}

// completed reports whether the entry has resolved.
func (e *cacheEntry) completed() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// entryOverhead is what a completed entry is charged beyond its body:
// the entry, its hash, its done channel, its list element and its map
// slot, rounded up. It makes a flood of tiny bodies a bounded one.
const entryOverhead = 512

// cost is what a completed entry weighs against the budget.
func (e *cacheEntry) cost() int64 { return int64(len(e.bytes)) + entryOverhead }

// resultCache maps canonical-spec hashes to entries and keeps the
// completed ones inside a byte budget, least recently used out first.
// In-flight entries are pinned and weigh nothing: evicting one would
// orphan its waiters, and it has no body yet. The cache is the only
// long-lived holder of a body — job records keep the hash — so an
// eviction frees the bytes once the last in-progress response has
// written them.
type resultCache struct {
	mu      sync.Mutex
	budget  int64
	used    int64 // sum of cost() over order
	entries map[string]*cacheEntry
	// order tracks completed entries, most recently used at the front.
	order   *list.List
	evicted uint64
}

func newResultCache(budget int64) *resultCache {
	return &resultCache{
		budget:  budget,
		entries: make(map[string]*cacheEntry),
		order:   list.New(),
	}
}

// lookup returns the entry for hash, refreshing its LRU position, or nil.
func (c *resultCache) lookup(hash string) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[hash]
	if e != nil && e.lru != nil {
		c.order.MoveToFront(e.lru)
	}
	return e
}

// reserve returns the existing entry for hash, or creates and registers
// a fresh in-flight entry (created=true) that the caller must resolve
// via complete or abandon via release.
func (c *resultCache) reserve(hash string) (e *cacheEntry, created bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[hash]; e != nil {
		if e.lru != nil {
			c.order.MoveToFront(e.lru)
		}
		return e, false
	}
	e = &cacheEntry{hash: hash, done: make(chan struct{})}
	c.entries[hash] = e
	return e, true
}

// complete resolves an in-flight entry and charges it to the budget,
// evicting the least recently used completed entries until the total
// fits again. Failed runs resolve their waiters but are not retained:
// the next submission of the same spec retries instead of replaying the
// error. Neither is a body that alone exceeds the budget: its waiters
// are served and it counts as evicted, without flushing the rest.
func (c *resultCache) complete(e *cacheEntry, bytes []byte, err error, wall time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.bytes, e.err, e.wall = bytes, err, wall
	close(e.done)
	switch {
	case err != nil:
		delete(c.entries, e.hash)
	case e.cost() > c.budget:
		delete(c.entries, e.hash)
		c.evicted++
	default:
		e.lru = c.order.PushFront(e)
		c.used += e.cost()
		for c.used > c.budget {
			old := c.order.Remove(c.order.Back()).(*cacheEntry)
			delete(c.entries, old.hash)
			c.used -= old.cost()
			c.evicted++
		}
	}
}

// release abandons an in-flight reservation that never started (queue
// full): the entry is unregistered so a later submission can retry, and
// any racer that coalesced onto it in the meantime is resolved with err.
func (c *resultCache) release(e *cacheEntry, err error) {
	c.mu.Lock()
	e.err = err
	close(e.done)
	delete(c.entries, e.hash)
	c.mu.Unlock()
}

// stats reports the live entry count (in-flight + completed), the
// completed count, the bytes charged to the budget and the eviction
// total.
func (c *resultCache) stats() (live, completed int, used int64, evicted uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries), c.order.Len(), c.used, c.evicted
}
