package plan

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"csq/internal/catalog"
	"csq/internal/exec"
	"csq/internal/logical"
	"csq/internal/netsim"
	"csq/internal/storage"
	"csq/internal/types"
	"csq/internal/wire"
)

// countingRelation wraps a heap table and counts how many snapshot iterators
// are handed out — i.e. how many scans actually touch storage. The planner's
// sampling pass opens exactly one per plan, so the counter distinguishes a
// cache hit (no new scan) from a re-sample.
type countingRelation struct {
	*storage.HeapTable
	scans atomic.Int64
}

func (c *countingRelation) Iterator() storage.RowIterator {
	c.scans.Add(1)
	return c.HeapTable.Iterator()
}

// statsCacheFixture builds a heap-backed catalog table behind a counting
// wrapper plus a planner with a fixed link observation (no probing) and a
// shared StatsCache.
func statsCacheFixture(t *testing.T) (*countingRelation, *catalog.Catalog, *Planner, *StatsCache) {
	t.Helper()
	heap, err := storage.NewHeapTable("objects", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := heap.Insert(rowWithKey(i, uint32(i%50))); err != nil {
			t.Fatal(err)
		}
	}
	counting := &countingRelation{HeapTable: heap}
	cat := testCatalog(t, testRuntime(t))
	if err := cat.AddTable(&catalog.Table{
		Name:   "objects",
		Schema: testSchema(),
		Stats:  heap.Stats(),
		Data:   counting,
	}); err != nil {
		t.Fatal(err)
	}
	cache := NewStatsCache()
	p := NewPlanner(nil)
	p.Config.Link = &exec.LinkObservation{
		DownBytesPerSec: 3600, UpBytesPerSec: 3600, Asymmetry: 1, RTT: 200 * time.Millisecond,
	}
	p.Config.StatsCache = cache
	return counting, cat, p, cache
}

func statsCacheQuery(t *testing.T, cat *catalog.Catalog) logical.Node {
	t.Helper()
	scan, err := scanByName(cat, "objects", "")
	if err != nil {
		t.Fatal(err)
	}
	return testQuery(t, scan)
}

// TestStatsCacheHitSkipsSamplingPass plans the same query twice: the second
// plan must not run a second sampling pass (no new storage scan) and must
// produce the same decision.
func TestStatsCacheHitSkipsSamplingPass(t *testing.T) {
	counting, cat, p, cache := statsCacheFixture(t)
	q := statsCacheQuery(t, cat)

	first, err := p.PlanTree(context.Background(), q, cat)
	if err != nil {
		t.Fatalf("first plan: %v", err)
	}
	if got := counting.scans.Load(); got != 1 {
		t.Fatalf("first plan ran %d scans, want exactly 1 (the sampling pass)", got)
	}
	if first.Applies[0].Decision.StatsFromCache {
		t.Fatalf("first plan claims cached stats")
	}

	second, err := p.PlanTree(context.Background(), q, cat)
	if err != nil {
		t.Fatalf("second plan: %v", err)
	}
	if got := counting.scans.Load(); got != 1 {
		t.Fatalf("second plan re-sampled: %d scans total, want 1", got)
	}
	d1, d2 := first.Applies[0].Decision, second.Applies[0].Decision
	if !d2.StatsFromCache {
		t.Fatalf("second plan did not use the cache")
	}
	if d1.Strategy != d2.Strategy || d1.EstimatedRows != d2.EstimatedRows {
		t.Fatalf("cached decision differs: %s/%d vs %s/%d",
			d1.Strategy, d1.EstimatedRows, d2.Strategy, d2.EstimatedRows)
	}
	if cache.Hits() != 1 || cache.Misses() != 1 {
		t.Fatalf("cache counters hits=%d misses=%d, want 1/1", cache.Hits(), cache.Misses())
	}
}

// TestStatsCacheInvalidatedByTableWrite mutates the scanned table between
// plans; the stale entry's key no longer matches, forcing a fresh sampling
// pass.
func TestStatsCacheInvalidatedByTableWrite(t *testing.T) {
	counting, cat, p, _ := statsCacheFixture(t)
	q := statsCacheQuery(t, cat)

	if _, err := p.PlanTree(context.Background(), q, cat); err != nil {
		t.Fatalf("first plan: %v", err)
	}
	if err := counting.Insert(rowWithKey(999, 999)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.PlanTree(context.Background(), q, cat); err != nil {
		t.Fatalf("plan after insert: %v", err)
	}
	if got := counting.scans.Load(); got != 2 {
		t.Fatalf("plan after a table write must re-sample: %d scans, want 2", got)
	}
}

// TestStatsCacheInvalidatedByCatalogChange mutates the catalog (a UDF
// re-registration, as a reconnecting client would) between plans; the cache
// key carries the catalog version, so the entry goes stale.
func TestStatsCacheInvalidatedByCatalogChange(t *testing.T) {
	counting, cat, p, _ := statsCacheFixture(t)
	q := statsCacheQuery(t, cat)

	if _, err := p.PlanTree(context.Background(), q, cat); err != nil {
		t.Fatalf("first plan: %v", err)
	}
	if _, err := cat.RegisterClientUDF(&wire.RegisterUDF{
		Name: "Score", ResultKind: types.KindBytes, ResultSize: 4000,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.PlanTree(context.Background(), q, cat); err != nil {
		t.Fatalf("plan after catalog change: %v", err)
	}
	if got := counting.scans.Load(); got != 2 {
		t.Fatalf("plan after a catalog change must re-sample: %d scans, want 2", got)
	}
}

// TestStatsCacheLinkReuse probes a live in-process link once and serves the
// second plan's N from the cache.
func TestStatsCacheLinkReuse(t *testing.T) {
	counting, cat, _, cache := statsCacheFixture(t)
	_ = counting
	rt := testRuntime(t)
	p := newTestPlanner(t, rt, netsim.LinkConfig{
		DownBandwidth: 1 << 20, UpBandwidth: 1 << 20, TimeScale: 1000,
	})
	p.Config.StatsCache = cache
	p.Config.LinkKey = "inproc-test-link"
	q := statsCacheQuery(t, cat)

	first, err := p.PlanTree(context.Background(), q, cat)
	if err != nil {
		t.Fatalf("first plan: %v", err)
	}
	if first.Applies[0].Decision.LinkFromCache {
		t.Fatalf("first plan claims a cached link observation")
	}
	second, err := p.PlanTree(context.Background(), q, cat)
	if err != nil {
		t.Fatalf("second plan: %v", err)
	}
	d := second.Applies[0].Decision
	if !d.LinkFromCache {
		t.Fatalf("second plan re-probed the link")
	}
	if d.Link != first.Applies[0].Decision.Link {
		t.Fatalf("cached link observation differs")
	}
}

// TestValuesInputsAreNotCached ensures inputs with no data version bypass
// the cache entirely rather than serving stale samples.
func TestValuesInputsAreNotCached(t *testing.T) {
	_, cat, p, cache := statsCacheFixture(t)
	rows := make([]types.Tuple, 50)
	for i := range rows {
		rows[i] = rowWithKey(i, uint32(i))
	}
	q := testQuery(t, unversionedScan(t, rows))
	if _, err := p.PlanTree(context.Background(), q, cat); err != nil {
		t.Fatalf("plan: %v", err)
	}
	if _, err := p.PlanTree(context.Background(), q, cat); err != nil {
		t.Fatalf("second plan: %v", err)
	}
	if cache.Hits() != 0 {
		t.Fatalf("unversioned query hit the cache (%d hits)", cache.Hits())
	}
}

// TestSampleCacheKeyNeedsEveryLeafVersioned: a sampled input that joins a
// versioned scan with an unversioned relation has no version stamp, because
// the tree's rendering alone cannot tell two of its states apart.
func TestSampleCacheKeyNeedsEveryLeafVersioned(t *testing.T) {
	_, cat, scan := versionKeyFixture(t)
	join, err := logical.NewJoin(scan, unversionedScan(t, []types.Tuple{rowWithKey(0, 0)}), []int{0}, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	keyOf := func(input logical.Node) string {
		apply, err := logical.NewUDFApply(input, []exec.UDFBinding{{Name: "f", ArgOrdinals: []int{1}, ResultKind: types.KindBytes}})
		if err != nil {
			t.Fatal(err)
		}
		return sampleCacheKey(applySpec{apply: apply, cat: cat})
	}
	if keyOf(scan) == "" {
		t.Fatal("a sample over a versioned scan must be cacheable")
	}
	if key := keyOf(join); key != "" {
		t.Fatalf("a sample over a scan joined with an unversioned relation got the key %q", key)
	}
}

// TestStatsCacheSamplesBounded plans and then writes the table, over and over:
// each write strands the sample keyed on the old version. The stranded
// entries must age out of the bounded cache, and the current version's sample
// must still be served on a repeat.
func TestStatsCacheSamplesBounded(t *testing.T) {
	counting, cat, p, cache := statsCacheFixture(t)
	q := statsCacheQuery(t, cat)
	for i := 0; i < 2*statsCacheEntries; i++ {
		if _, err := p.PlanTree(context.Background(), q, cat); err != nil {
			t.Fatal(err)
		}
		if err := counting.Insert(rowWithKey(1000+i, uint32(i%50))); err != nil {
			t.Fatal(err)
		}
	}
	if n := cache.samples.Len(); n > statsCacheEntries {
		t.Fatalf("%d rounds of plan then write left %d samples, want at most %d", 2*statsCacheEntries, n, statsCacheEntries)
	}
	if _, err := p.PlanTree(context.Background(), q, cat); err != nil {
		t.Fatal(err)
	}
	again, err := p.PlanTree(context.Background(), q, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Applies[0].Decision.StatsFromCache {
		t.Fatal("a repeated plan over unchanged data re-sampled")
	}
}

// TestStatsCacheLinksBounded stores observations under ever new link
// identities: the oldest age out, the latest is served.
func TestStatsCacheLinksBounded(t *testing.T) {
	cache := NewStatsCache()
	for i := 0; i < 2*statsCacheEntries; i++ {
		cache.links.Store(fmt.Sprintf("client-%d", i), exec.LinkObservation{Asymmetry: float64(i)})
	}
	if n := cache.links.Len(); n > statsCacheEntries {
		t.Fatalf("%d link identities left %d observations, want at most %d", 2*statsCacheEntries, n, statsCacheEntries)
	}
	last := 2*statsCacheEntries - 1
	if obs, ok := cache.links.Lookup(fmt.Sprintf("client-%d", last)); !ok || obs.Asymmetry != float64(last) {
		t.Fatalf("latest observation = %+v, %v", obs, ok)
	}
	var nilCache *StatsCache
	if nilCache.Hits() != 0 || nilCache.Misses() != 0 {
		t.Fatalf("nil cache counters must be zero")
	}
}

func TestPickSpillPartitions(t *testing.T) {
	cases := []struct {
		est, budget int64
		want        int
	}{
		{0, 1 << 20, 0},           // no estimate: engine default
		{1 << 20, 0, 0},           // no budget: engine default
		{1 << 20, 1 << 20, 16},    // small overage: floor
		{256 << 20, 1 << 20, 128}, // huge overage: clamped
		{32 << 20, 1 << 20, 64},   // 32M over 512K halves = 64
	}
	for _, c := range cases {
		if got := pickSpillPartitions(c.est, c.budget); got != c.want {
			t.Errorf("pickSpillPartitions(%d, %d) = %d, want %d", c.est, c.budget, got, c.want)
		}
	}
}
