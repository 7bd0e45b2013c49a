package plan

import (
	"container/list"
	"fmt"
	"sort"
	"strings"
	"sync"

	"csq/internal/catalog"
	"csq/internal/logical"
	"csq/internal/storage"
)

// This file holds the one cache every cross-query cache is an instance of —
// sampled statistics, link observations, plans, prepared plans and the
// service's answers — and the one version stamp their keys embed. A key
// carries the data version of every scanned relation (plus the segment-set
// version for columnar backends) and the catalog version, so any write or
// catalog mutation invalidates implicitly by changing the key: the stale entry
// is never purged eagerly, it simply stops being found and ages out of the
// LRU. PAPERS.md's incremental integrity-checking line (Decker) grounds this:
// a cached fact stays valid exactly until a base fact it depends on changes.

// maxEntryFraction bounds one entry's share of a cache's budget: a larger
// entry would evict everything else for one query's benefit.
const maxEntryFraction = 8

// Cache is a version-keyed LRU bounded by a budget. Each entry is charged
// cost(value) against the budget, or one when cost is nil, and least recently
// used entries are evicted while the cache is over budget and holds more than
// one entry. Equal keys mean equal versions and configuration, hence an equal
// value: storing under a present key keeps the incumbent and refreshes its
// recency.
//
// A Cache is safe for concurrent use. A nil *Cache is a disabled cache, and an
// empty key is an uncacheable value: lookups miss without counting and stores
// are dropped.
type Cache[V any] struct {
	budget int64
	cost   func(V) int64

	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List // front = most recently used; values are *cacheEntry[V]
	used    int64
	hits    int64
	misses  int64
}

type cacheEntry[V any] struct {
	key  string
	val  V
	cost int64
}

// NewCache returns an empty cache bounded to budget.
func NewCache[V any](budget int64, cost func(V) int64) *Cache[V] {
	return &Cache[V]{budget: budget, cost: cost, entries: make(map[string]*list.Element), order: list.New()}
}

// NewPlanCache returns a plan cache bounded to plans entries (<= 0 means a
// small default). Repeated queries with the same shape over unchanged data
// reuse the whole TreePlan — rewrite, sampling, probing and strategy choice all
// skipped. A cached TreePlan is safe to share across concurrent queries: it is
// read-only after planning and NewOperator builds fresh operators per call.
func NewPlanCache(plans int) *Cache[*TreePlan] {
	if plans <= 0 {
		plans = 64
	}
	return NewCache[*TreePlan](int64(plans), nil)
}

// MaxEntry is the largest cost Store admits.
func (c *Cache[V]) MaxEntry() int64 {
	if c == nil {
		return 0
	}
	return max(1, c.budget/maxEntryFraction)
}

// Lookup returns the value stored under key, if any.
func (c *Cache[V]) Lookup(key string) (V, bool) {
	var zero V
	if c == nil || key == "" {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return zero, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry[V]).val, true
}

// Store records v under key, evicting least recently used entries until the
// cache is back under budget. A value costing more than MaxEntry is dropped.
func (c *Cache[V]) Store(key string, v V) {
	if c == nil || key == "" {
		return
	}
	cost := int64(1)
	if c.cost != nil {
		cost = c.cost(v)
	}
	if cost > c.MaxEntry() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry[V]{key: key, val: v, cost: cost})
	c.used += cost
	for c.used > c.budget && c.order.Len() > 1 {
		e := c.order.Remove(c.order.Back()).(*cacheEntry[V])
		delete(c.entries, e.key)
		c.used -= e.cost
	}
}

// Values returns the cached values, most recently used first.
func (c *Cache[V]) Values() []V {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]V, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*cacheEntry[V]).val)
	}
	return out
}

// Hits returns how many lookups found their key.
func (c *Cache[V]) Hits() int64 { return c.count(func() int64 { return c.hits }) }

// Misses returns how many lookups of a cacheable key fell through.
func (c *Cache[V]) Misses() int64 { return c.count(func() int64 { return c.misses }) }

// Used returns the summed cost of the cached entries.
func (c *Cache[V]) Used() int64 { return c.count(func() int64 { return c.used }) }

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int { return int(c.count(func() int64 { return int64(len(c.entries)) })) }

func (c *Cache[V]) count(read func() int64) int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return read()
}

// TreeVersionKey derives the version-stamped identity of a logical tree: the
// rendered tree plus the data version of every scanned relation and the
// catalog version. Two trees with equal keys are guaranteed to compute the
// same result (same shape over same data), which is what every cache keys on.
//
// ok is false when the identity cannot be established: some leaf of the tree
// is not a Scan over version-reporting storage, so staleness could not be
// detected.
func TreeVersionKey(root logical.Node, cat *catalog.Catalog) (key string, ok bool) {
	versions, ok := leafVersions(root)
	if !ok {
		return "", false
	}
	var b strings.Builder
	fmt.Fprintf(&b, "tables=%s", strings.Join(versions, ","))
	if cat != nil {
		fmt.Fprintf(&b, "|cat=%d", cat.Version())
	}
	fmt.Fprintf(&b, "|tree=%s", logical.Format(root))
	return b.String(), true
}

// leafVersions collects the version stamp of every leaf of the tree, or
// ok == false when a leaf is not a versioned Scan.
func leafVersions(n logical.Node) (versions []string, ok bool) {
	if n == nil {
		return nil, false
	}
	children := n.Children()
	if len(children) == 0 {
		sc, isScan := n.(*logical.Scan)
		if !isScan {
			return nil, false
		}
		v, isVersioned := sc.Table.Data.(storage.Versioned)
		if !isVersioned {
			return nil, false
		}
		ver := fmt.Sprintf("%s@%d", strings.ToLower(sc.Table.Name), v.Version())
		// Segmented backends additionally key on the segment-set version: a
		// flush reshapes segments without changing row contents, which changes
		// plan costs (pruning estimates) and what a pruned sampling scan reads
		// even though results are unaffected.
		if sv, isSeg := sc.Table.Data.(storage.SegmentVersioned); isSeg {
			ver += "/" + sv.SegmentSetVersion()
		}
		return []string{ver}, true
	}
	for _, c := range children {
		vs, cok := leafVersions(c)
		if !cok {
			return nil, false
		}
		versions = append(versions, vs...)
	}
	sort.Strings(versions)
	return versions, true
}

// PureTree reports whether every UDF applied anywhere in the tree is declared
// Pure in the catalog (deterministic, side-effect free). UDF-free trees are
// trivially pure. Only pure trees are eligible for result caching — an impure
// UDF must re-execute per query.
func PureTree(root logical.Node, cat *catalog.Catalog) bool {
	for _, apply := range logical.Applies(root) {
		for _, u := range apply.UDFs {
			if cat == nil {
				return false
			}
			udf, err := cat.UDF(u.Name)
			if err != nil || !udf.Pure {
				return false
			}
		}
	}
	return true
}

// PlanCacheKey derives the plan cache key for a logical tree under a planner
// configuration, or ok == false when the plan is not cacheable. It extends
// TreeVersionKey with everything else the planning pass depends on: the
// probe size and session cap, the link identity (probe observations differ per
// link) and the memory budget (it sizes spill fan-out and the spill-expected
// flag baked into decisions).
func PlanCacheKey(root logical.Node, cat *catalog.Catalog, cfg Config) (key string, ok bool) {
	base, ok := TreeVersionKey(root, cat)
	if !ok {
		return "", false
	}
	var b strings.Builder
	b.WriteString(base)
	fmt.Fprintf(&b, "|budget=%d|link=%s", cfg.MemBudget, cfg.LinkKey)
	if cfg.Link != nil {
		fmt.Fprintf(&b, "|obs=%v", *cfg.Link)
	}
	return b.String(), true
}
