package plan

import (
	"fmt"

	"csq/internal/exec"
)

// statsCacheEntries bounds each of a StatsCache's two instances: every table
// write strands the entries keyed on the old version until the LRU evicts
// them.
const statsCacheEntries = 1024

// StatsCache is the cross-query statistics cache: repeated queries over
// unchanged data reuse the sampled cardinality, record sizes, distinct
// fractions and selectivities (and the probe-measured link observation)
// instead of re-running a sampling pass and a link probe per plan.
//
// Sample entries are keyed by the version stamp of the sampled input subtree
// (see TreeVersionKey) plus the argument ordinals and the sampling
// configuration, so a cache hit is exactly as fresh as a re-sample. Link
// observations are keyed by a caller-supplied link identity (e.g. the client
// address).
//
// A StatsCache is safe for concurrent use by any number of planners; the
// service layer shares one across all queries.
type StatsCache struct {
	samples *Cache[SampleStats]
	links   *Cache[exec.LinkObservation]
}

// NewStatsCache returns an empty cache.
func NewStatsCache() *StatsCache {
	return &StatsCache{
		samples: NewCache[SampleStats](statsCacheEntries, nil),
		links:   NewCache[exec.LinkObservation](statsCacheEntries, nil),
	}
}

// caches returns the two instances, both nil (disabled) for a nil StatsCache.
func (c *StatsCache) caches() (*Cache[SampleStats], *Cache[exec.LinkObservation]) {
	if c == nil {
		return nil, nil
	}
	return c.samples, c.links
}

// Hits returns how many sampling passes the cache has saved.
func (c *StatsCache) Hits() int64 {
	samples, _ := c.caches()
	return samples.Hits()
}

// Misses returns how many lookups fell through to a live sampling pass.
func (c *StatsCache) Misses() int64 {
	samples, _ := c.caches()
	return samples.Misses()
}

// sampleCacheKey derives the cache key for one UDF application's sampling
// pass: the version stamp of its input plus what D is computed over. It is
// empty, and the pass uncacheable, when the input has no version stamp.
func sampleCacheKey(spec applySpec) string {
	base, ok := TreeVersionKey(spec.apply.Input, spec.cat)
	if !ok {
		return ""
	}
	return fmt.Sprintf("%s|args=%v", base, spec.apply.ArgOrdinals())
}
