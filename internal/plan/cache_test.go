package plan

import (
	"context"
	"strings"
	"testing"

	"csq/internal/catalog"
	"csq/internal/exec"
	"csq/internal/logical"
	"csq/internal/storage"
	"csq/internal/types"
	"csq/internal/wire"
)

// versionKeyFixture builds a heap-backed catalog table and a simple scan tree
// over it.
func versionKeyFixture(t *testing.T) (*storage.HeapTable, *catalog.Catalog, logical.Node) {
	t.Helper()
	heap, err := storage.NewHeapTable("objects", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := heap.Insert(rowWithKey(i, uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	cat := catalog.New()
	if err := cat.AddTable(&catalog.Table{Name: "objects", Schema: testSchema(), Stats: heap.Stats(), Data: heap}); err != nil {
		t.Fatal(err)
	}
	scan, err := scanByName(cat, "objects", "")
	if err != nil {
		t.Fatal(err)
	}
	return heap, cat, scan
}

// TestTreeVersionKeyTracksWrites pins the invalidation scheme: the key is
// stable across reads and changes on every table write and catalog mutation.
func TestTreeVersionKeyTracksWrites(t *testing.T) {
	heap, cat, tree := versionKeyFixture(t)

	k1, ok := TreeVersionKey(tree, cat)
	if !ok {
		t.Fatal("versioned scan tree must be keyable")
	}
	k2, _ := TreeVersionKey(tree, cat)
	if k1 != k2 {
		t.Fatalf("key not stable across reads:\n%s\n%s", k1, k2)
	}

	if err := heap.Insert(rowWithKey(99, 99)); err != nil {
		t.Fatal(err)
	}
	k3, _ := TreeVersionKey(tree, cat)
	if k3 == k1 {
		t.Fatal("key unchanged after a table write — stale results would be served")
	}

	if _, err := cat.RegisterClientUDF(&wire.RegisterUDF{Name: "f", ArgKinds: []types.Kind{types.KindInt}, ResultKind: types.KindInt}); err != nil {
		t.Fatal(err)
	}
	k4, _ := TreeVersionKey(tree, cat)
	if k4 == k3 {
		t.Fatal("key unchanged after a catalog mutation")
	}
}

// TestTreeVersionKeyRejectsUnversionedLeaves: a relation with no data
// version makes the tree uncacheable rather than silently cached forever.
func TestTreeVersionKeyRejectsUnversionedLeaves(t *testing.T) {
	vals := unversionedScan(t, []types.Tuple{rowWithKey(0, 0)})
	if _, ok := TreeVersionKey(vals, catalog.New()); ok {
		t.Fatal("unversioned leaf must not produce a version key")
	}
}

// TestPureTree pins result-cache eligibility: UDF-free trees are pure,
// catalog-declared-pure UDFs are pure, anything else is not.
func TestPureTree(t *testing.T) {
	_, cat, scan := versionKeyFixture(t)
	if !PureTree(scan, cat) {
		t.Fatal("UDF-free tree must be pure")
	}

	if _, err := cat.RegisterClientUDF(&wire.RegisterUDF{
		Name: "det", ArgKinds: []types.Kind{types.KindBytes}, ResultKind: types.KindBytes, Pure: true,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.RegisterClientUDF(&wire.RegisterUDF{
		Name: "rand", ArgKinds: []types.Kind{types.KindBytes}, ResultKind: types.KindBytes,
	}); err != nil {
		t.Fatal(err)
	}
	mkApply := func(name string) logical.Node {
		apply, err := logical.NewUDFApply(scan, []exec.UDFBinding{{Name: name, ArgOrdinals: []int{1}, ResultKind: types.KindBytes}})
		if err != nil {
			t.Fatal(err)
		}
		return apply
	}
	if !PureTree(mkApply("det"), cat) {
		t.Fatal("catalog-declared-pure UDF tree must be pure")
	}
	if PureTree(mkApply("rand"), cat) {
		t.Fatal("undeclared UDF tree must not be pure")
	}
	if PureTree(mkApply("det"), nil) {
		t.Fatal("UDF tree without a catalog must not be pure")
	}
}

// TestPlanCacheKeyIncludesConfig: the same tree under different planner
// configurations must produce different keys — a plan decided under one
// budget or link must not be reused under another.
func TestPlanCacheKeyIncludesConfig(t *testing.T) {
	_, cat, tree := versionKeyFixture(t)
	var cfg Config
	cfg.LinkKey = "linkA"
	k1, ok := PlanCacheKey(tree, cat, cfg)
	if !ok {
		t.Fatal("tree must be plan-cacheable")
	}
	cfg.MemBudget = 1 << 20
	k2, _ := PlanCacheKey(tree, cat, cfg)
	if k1 == k2 {
		t.Fatal("key ignores MemBudget")
	}
	cfg.LinkKey = "linkB"
	k3, _ := PlanCacheKey(tree, cat, cfg)
	if k3 == k2 {
		t.Fatal("key ignores LinkKey")
	}
	if !strings.Contains(k1, "tables=objects@") {
		t.Fatalf("key %q lacks the version-stamped table identity", k1)
	}
}

// TestPlanCacheLRUAndCounters exercises Lookup/Store, the LRU bound, and the
// hit/miss counters the service stats surface.
func TestPlanCacheLRUAndCounters(t *testing.T) {
	c := NewPlanCache(2)
	tp := &TreePlan{}
	if _, hit := c.Lookup("a"); hit {
		t.Fatal("empty cache hit")
	}
	c.Store("a", tp)
	c.Store("b", tp)
	if _, hit := c.Lookup("a"); !hit {
		t.Fatal("stored plan not found")
	}
	// "b" is now least recently used; storing "c" must evict it.
	c.Store("c", tp)
	if _, hit := c.Lookup("b"); hit {
		t.Fatal("LRU entry survived eviction")
	}
	if _, hit := c.Lookup("c"); !hit {
		t.Fatal("fresh entry evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if c.Hits() != 2 || c.Misses() != 2 {
		t.Fatalf("hits/misses = %d/%d, want 2/2", c.Hits(), c.Misses())
	}

	// nil receiver is a disabled cache, not a crash.
	var nilCache *Cache[*TreePlan]
	if _, hit := nilCache.Lookup("x"); hit {
		t.Fatal("nil cache hit")
	}
	nilCache.Store("x", tp)
	if nilCache.Hits() != 0 || nilCache.Misses() != 0 || nilCache.Len() != 0 {
		t.Fatal("nil cache counters non-zero")
	}
}

// TestCacheChargesCost pins the budget rules on a cost-charged instance, as
// the service's result cache is: an entry over MaxEntry is refused, the least
// recently used entries go once the charged total passes the budget, and a
// store under a present key keeps the incumbent but refreshes its recency.
func TestCacheChargesCost(t *testing.T) {
	c := NewCache(100, func(s string) int64 { return int64(len(s)) })
	if c.MaxEntry() != 12 {
		t.Fatalf("MaxEntry = %d, want budget/8 = 12", c.MaxEntry())
	}
	c.Store("big", strings.Repeat("x", 13))
	if c.Len() != 0 {
		t.Fatal("an entry over MaxEntry was stored")
	}
	for i := 0; i < 10; i++ {
		c.Store(string(rune('a'+i)), strings.Repeat(string(rune('a'+i)), 10))
	}
	if c.Used() != 100 || c.Len() != 10 {
		t.Fatalf("used/len = %d/%d, want 100/10", c.Used(), c.Len())
	}
	c.Store("b", "incumbent?")
	c.Store("k", strings.Repeat("k", 10))
	c.Store("l", strings.Repeat("l", 10))
	if _, hit := c.Lookup("a"); hit {
		t.Fatal("least recently used entry survived going over budget")
	}
	if v, hit := c.Lookup("b"); !hit || v != strings.Repeat("b", 10) {
		t.Fatalf("refreshed entry = %q, %v; want the incumbent", v, hit)
	}
	if _, hit := c.Lookup("c"); hit {
		t.Fatal("eviction skipped the least recently used entry")
	}
	if c.Used() != 100 || c.Len() != 10 {
		t.Fatalf("used/len = %d/%d, want 100/10", c.Used(), c.Len())
	}
	if got := c.Values()[0]; got != strings.Repeat("b", 10) {
		t.Fatalf("most recent value = %q", got)
	}
	if small := NewCache[int](3, nil); small.MaxEntry() != 1 {
		t.Fatalf("MaxEntry of a 3-entry cache = %d, want 1", small.MaxEntry())
	}
}

// TestPlannerReplanMatchesCachedPlan: planning the same tree twice over
// unchanged data produces identical keys, and the cached TreePlan executes to
// the same rows a fresh plan does.
func TestPlannerReplanMatchesCachedPlan(t *testing.T) {
	_, cat, tree := versionKeyFixture(t)
	p := NewPlanner(nil)
	p.Config.Link = &exec.LinkObservation{Asymmetry: 1}
	tp, err := p.PlanTree(context.Background(), tree, cat)
	if err != nil {
		t.Fatal(err)
	}
	key, ok := PlanCacheKey(tree, cat, p.Config)
	if !ok {
		t.Fatal("not cacheable")
	}
	c := NewPlanCache(4)
	c.Store(key, tp)

	key2, _ := PlanCacheKey(tree, cat, p.Config)
	cached, hit := c.Lookup(key2)
	if !hit {
		t.Fatal("replanning the same tree over unchanged data missed the cache")
	}
	op1, err := cached.NewOperator()
	if err != nil {
		t.Fatal(err)
	}
	op2, err := tp.NewOperator()
	if err != nil {
		t.Fatal(err)
	}
	if op1 == op2 {
		t.Fatal("NewOperator must build fresh operators for each execution")
	}
}
