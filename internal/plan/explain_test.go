package plan

import (
	"context"
	"strings"
	"testing"

	"csq/internal/catalog"
	"csq/internal/netsim"
	"csq/internal/storage"
	"csq/internal/types"
)

// TestExplainRendersAllThreeLayers plans a semi-join-winning query over a
// real heap table and checks the EXPLAIN rendering: logical tree, rewritten
// tree, and the physical plan with the server-side pushable wrappers the
// semi-join strategy lowers to.
func TestExplainRendersAllThreeLayers(t *testing.T) {
	rows := make([]types.Tuple, 400)
	for i := range rows {
		rows[i] = rowWithKey(i, uint32(i%8)) // duplicate-heavy: semi-join wins
	}
	table, err := storage.NewHeapTable("events", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := table.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	rt := testRuntime(t)
	cat := testCatalog(t, rt)
	if err := cat.AddTable(&catalog.Table{Name: "events", Schema: testSchema(), Stats: table.Stats(), Data: table}); err != nil {
		t.Fatal(err)
	}
	scan, err := scanByName(cat, "events", "e")
	if err != nil {
		t.Fatal(err)
	}
	p := newTestPlanner(t, rt, netsim.LinkConfig{})

	tp, d := planOne(t, p, testQuery(t, scan), cat)
	if d.Strategy != StrategySemiJoin {
		t.Fatalf("planned %s, want semi-join", d.Strategy)
	}
	out := tp.Explain()
	for _, want := range []string{
		"logical plan:",
		"rewritten plan:",
		"physical plan:",
		"scan events as e",
		"project [0 2] (server side)",
		"filter $3 (server side, above join-back)",
		"semi-join [Score Qualify]",
		"table-scan events",
		"cost/tuple",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain output missing %q:\n%s", want, out)
		}
	}

	// The planned scan-backed tree executes like the values-backed one.
	_, got := collectPlan(t, tp)
	want := 0
	for i := range rows {
		if uint32(i%8)%10 == 0 {
			want++
		}
	}
	if len(got) != want {
		t.Errorf("scan-backed plan returned %d rows, want %d", len(got), want)
	}
}

// TestLowerScanWithoutHandle: a catalog entry without a storage handle fails
// at lowering with a clear error instead of a panic.
func TestLowerScanWithoutHandle(t *testing.T) {
	cat := catalog.New()
	if err := cat.AddTable(&catalog.Table{Name: "ghost", Schema: testSchema()}); err != nil {
		t.Fatal(err)
	}
	scan, err := scanByName(cat, "ghost", "")
	if err != nil {
		t.Fatal(err)
	}
	rt := testRuntime(t)
	p := newTestPlanner(t, rt, netsim.LinkConfig{})
	_, err = p.PlanTree(context.Background(), applyQuery(t, scan, testBindings(), nil, nil), testCatalog(t, rt))
	if err == nil || !strings.Contains(err.Error(), "no storage handle") {
		t.Errorf("planning a handle-less scan = %v, want storage-handle error", err)
	}
}

// TestPlanEmptyInputFallsBackToNaive: an empty source with no priors cannot
// feed the cost model; the plan degrades to the naive strategy (correct at
// any cardinality) instead of failing, and executes to an empty result.
func TestPlanEmptyInputFallsBackToNaive(t *testing.T) {
	rt := testRuntime(t)
	p := newTestPlanner(t, rt, netsim.LinkConfig{})
	tp, d := planOne(t, p, testQuery(t, testValues(t, nil)), testCatalog(t, rt))
	if d.Strategy != StrategyNaive || !d.Fallback {
		t.Fatalf("empty input planned as %s (fallback=%v), want naive fallback", d.Strategy, d.Fallback)
	}
	if _, got := collectPlan(t, tp); len(got) != 0 {
		t.Errorf("empty input returned %d rows", len(got))
	}
}
