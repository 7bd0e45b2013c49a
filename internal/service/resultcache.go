package service

import (
	"container/list"
	"sync"
	"sync/atomic"

	"csq/internal/exec"
	"csq/internal/wire"
)

// resultCache is the service's version-keyed result cache: a deterministic
// query whose UDFs are all catalog-declared pure can serve its entire result
// from memory when an identical query ran before over unchanged data. Keys
// come from plan.TreeVersionKey — the rendered logical tree plus the data
// version of every scanned table (and segment set) and the catalog version —
// so any write or catalog mutation invalidates implicitly: the stale entry
// simply stops being found and ages out of the LRU. This is the
// trigger-on-update reasoning of incremental integrity checking (Decker):
// a cached answer is exactly as fresh as the base facts it was derived from.
//
// What is stored is the answer as it left the server: the encoded frames of
// its result stream, minus the query ID each payload starts with. A stream
// starts with empty dictionaries, so the sequence is self-contained, and a
// hit on the wire path is a write of the stored bytes under the new query's
// ID — nothing is encoded. Callers that want tuples decode the frames.
//
// Memory is governed like a query's: every stored result is charged, at the
// exact length of its frames, to a service-level exec.MemTracker, and
// least-recently-used entries are evicted until the cache is back under its
// byte budget. Single results larger than maxEntryFraction of the budget are
// not cached at all (they would evict everything else for one query's
// benefit).
type resultCache struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List // front = most recently used; values are *cachedResult
	tracker *exec.MemTracker

	hits   atomic.Int64
	misses atomic.Int64
}

// cachedResult is one stored answer. It is immutable once stored and shared
// by every query it serves.
type cachedResult struct {
	key string
	// frames is the result stream, in order.
	frames []wire.ResultFrame
	// stream tells which encoder produced frames: the stream-dictionary one,
	// or the plain one (the query that filled the entry came from a peer
	// without wire.CapResultStream).
	stream bool
	// rows is the answer's row count, what the stream's End frame reports.
	rows int64
	// bytes is the summed length of the frame bodies: the entry's charge.
	bytes int64
}

// maxEntryFraction bounds one cached result's share of the cache budget.
const maxEntryFraction = 8

// newResultCache returns a cache bounded to budget bytes.
func newResultCache(budget int64) *resultCache {
	return &resultCache{
		entries: make(map[string]*list.Element),
		order:   list.New(),
		tracker: exec.NewMemTracker(budget),
	}
}

// maxEntryBytes is the largest result the cache stores.
func (c *resultCache) maxEntryBytes() int64 {
	return c.tracker.Budget() / maxEntryFraction
}

// lookup returns the cached result for key, if any.
func (c *resultCache) lookup(key string) (*cachedResult, bool) {
	if c == nil || key == "" {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	c.order.MoveToFront(el)
	return el.Value.(*cachedResult), true
}

// store records a result under its key, evicting least-recently-used entries
// until the cache is under budget. Oversized results are dropped.
func (c *resultCache) store(res *cachedResult) {
	if c == nil || res.key == "" || res.bytes > c.maxEntryBytes() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[res.key]; ok {
		// Same key means same data versions, hence the same result; keep the
		// incumbent and just refresh its recency.
		c.order.MoveToFront(el)
		return
	}
	_ = c.tracker.Grow(res.bytes) // budget tracker: never a hard limit
	c.entries[res.key] = c.order.PushFront(res)
	for c.tracker.OverBudget() && c.order.Len() > 1 {
		back := c.order.Back()
		if back == nil {
			break
		}
		e := c.order.Remove(back).(*cachedResult)
		delete(c.entries, e.key)
		c.tracker.Shrink(e.bytes)
	}
}

// Hits returns how many queries were served entirely from the cache.
func (c *resultCache) Hits() int64 {
	if c == nil {
		return 0
	}
	return c.hits.Load()
}

// Misses returns how many eligible lookups fell through to execution.
func (c *resultCache) Misses() int64 {
	if c == nil {
		return 0
	}
	return c.misses.Load()
}

// UsedBytes returns the cache's current retained footprint.
func (c *resultCache) UsedBytes() int64 {
	if c == nil {
		return 0
	}
	return c.tracker.Used()
}

// Len returns the number of cached results.
func (c *resultCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
