package plan

import (
	"context"
	"testing"

	"csq/internal/exec"
	"csq/internal/expr"
	"csq/internal/logical"
	"csq/internal/netsim"
	"csq/internal/types"
)

// The new query shapes the logical IR unlocks: UDF applications above joins,
// several UDF applications in one tree, and aggregates over UDF results.
// Each is planned through logical→rewrite→lower and verified byte-identical
// against a hand-built exec operator tree.

func tupleKeys(t *testing.T, out []types.Tuple) []string {
	t.Helper()
	keys := make([]string, len(out))
	for i, tup := range out {
		enc, err := types.EncodeTuple(nil, tup)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = string(enc)
	}
	return keys
}

func mustCollect(t *testing.T, op exec.Operator) []string {
	t.Helper()
	out, err := exec.Collect(context.Background(), op)
	if err != nil {
		t.Fatal(err)
	}
	return tupleKeys(t, out)
}

func requireSameRows(t *testing.T, got, want []string, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d differs\n got %q\nwant %q", label, i, got[i], want[i])
		}
	}
}

// newNaive builds the naive strategy by hand: a semi-join at concurrency
// factor 1.
func newNaive(input exec.Operator, link exec.ClientLink, udfs []exec.UDFBinding) (*exec.SemiJoin, error) {
	sj, err := exec.NewSemiJoin(input, link, udfs)
	if err != nil {
		return nil, err
	}
	sj.ConcurrencyFactor = 1
	return sj, nil
}

// joinWorkload builds two relations joined on an int key, with the UDF
// argument payload on the left side.
func joinWorkload(t *testing.T) (left, right *logical.Scan, leftRows, rightRows []types.Tuple, leftSchema, rightSchema *types.Schema) {
	t.Helper()
	leftSchema = types.NewSchema(
		types.Column{Name: "K", Kind: types.KindInt},
		types.Column{Name: "Payload", Kind: types.KindBytes},
	)
	rightSchema = types.NewSchema(
		types.Column{Name: "K", Kind: types.KindInt},
		types.Column{Name: "Tag", Kind: types.KindString},
	)
	for i := 0; i < 40; i++ {
		leftRows = append(leftRows, types.NewTuple(types.NewInt(int64(i%10)), rowWithKey(i, uint32(i))[1]))
	}
	for i := 0; i < 10; i++ {
		tag := "even"
		if i%2 == 1 {
			tag = "odd"
		}
		rightRows = append(rightRows, types.NewTuple(types.NewInt(int64(i)), types.NewString(tag)))
	}
	var err error
	if left, err = rowsScan("l", leftSchema, leftRows); err != nil {
		t.Fatal(err)
	}
	if right, err = rowsScan("r", rightSchema, rightRows); err != nil {
		t.Fatal(err)
	}
	return
}

// TestLowerUDFAboveJoin plans a UDF application whose input is a join — a
// shape the closure-based planner could not express — and verifies the
// lowered plan byte-identical against the hand-built operator tree.
func TestLowerUDFAboveJoin(t *testing.T) {
	left, right, leftRows, rightRows, leftSchema, rightSchema := joinWorkload(t)
	rt := testRuntime(t)
	cat := testCatalog(t, rt)
	p := newTestPlanner(t, rt, netsim.LinkConfig{})

	// Joined schema: 0 K, 1 Payload, 2 K, 3 Tag; extended adds 4 Score, 5
	// Qualify. Keep qualifying rows, return (Tag, Score).
	join, err := logical.NewJoin(left, right, []int{0}, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	udfs := []exec.UDFBinding{
		{Name: "Score", ArgOrdinals: []int{1}, ResultKind: types.KindBytes},
		{Name: "Qualify", ArgOrdinals: []int{1}, ResultKind: types.KindBool},
	}
	apply, err := logical.NewUDFApply(join, udfs)
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := logical.NewFilter(apply, expr.NewBoundColumnRef(5, types.KindBool))
	if err != nil {
		t.Fatal(err)
	}
	root, err := logical.NewProject(filtered, []int{3, 4})
	if err != nil {
		t.Fatal(err)
	}

	tp, err := p.PlanTree(context.Background(), root, cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(tp.Applies) != 1 {
		t.Fatalf("planned %d applies, want 1", len(tp.Applies))
	}
	op, err := tp.NewOperator()
	if err != nil {
		t.Fatal(err)
	}
	got := mustCollect(t, op)

	// Hand-built equivalent: join → naive → filter → project.
	hj, err := exec.NewHashJoin(
		rowsOp(leftSchema, leftRows),
		rowsOp(rightSchema, rightRows),
		[]int{0}, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	nu, err := newNaive(hj, p.Link, udfs)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := exec.NewProjectOrdinals(exec.NewFilter(nu, expr.NewBoundColumnRef(5, types.KindBool)), []int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	want := mustCollect(t, proj)
	if len(want) == 0 {
		t.Fatal("workload produced no rows; test is vacuous")
	}
	requireSameRows(t, got, want, "UDF above join")
}

// TestLowerTwoUDFApplies chains two UDF applications in one tree — the
// second consumes the first's extended record — and verifies byte-identical
// results against the hand-built double-operator tree. Each application gets
// its own strategy decision.
func TestLowerTwoUDFApplies(t *testing.T) {
	rows := make([]types.Tuple, 50)
	for i := range rows {
		rows[i] = rowWithKey(i, uint32(i%7))
	}
	rt := testRuntime(t)
	cat := testCatalog(t, rt)
	p := newTestPlanner(t, rt, netsim.LinkConfig{})

	score := []exec.UDFBinding{{Name: "Score", ArgOrdinals: []int{1}, ResultKind: types.KindBytes}}
	qualify := []exec.UDFBinding{{Name: "Qualify", ArgOrdinals: []int{1}, ResultKind: types.KindBool}}

	apply1, err := logical.NewUDFApply(testValues(t, rows), score)
	if err != nil {
		t.Fatal(err)
	}
	// Schema after apply1: 0 ID, 1 Payload, 2 Extra, 3 Score; after apply2:
	// 4 Qualify.
	apply2, err := logical.NewUDFApply(apply1, qualify)
	if err != nil {
		t.Fatal(err)
	}
	root, err := logical.NewFilter(apply2, expr.NewBoundColumnRef(4, types.KindBool))
	if err != nil {
		t.Fatal(err)
	}

	tp, err := p.PlanTree(context.Background(), root, cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(tp.Applies) != 2 {
		t.Fatalf("planned %d applies, want 2", len(tp.Applies))
	}
	op, err := tp.NewOperator()
	if err != nil {
		t.Fatal(err)
	}
	got := mustCollect(t, op)

	n1, err := newNaive(rowsOp(testSchema(), rows), p.Link, score)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := newNaive(n1, p.Link, qualify)
	if err != nil {
		t.Fatal(err)
	}
	want := mustCollect(t, exec.NewFilter(n2, expr.NewBoundColumnRef(4, types.KindBool)))
	if len(want) == 0 {
		t.Fatal("workload produced no rows; test is vacuous")
	}
	requireSameRows(t, got, want, "two UDF applications")
}

// TestLowerAggregateOverUDF aggregates over a UDF result column — COUNT per
// Qualify outcome — and verifies against the hand-built tree.
func TestLowerAggregateOverUDF(t *testing.T) {
	rows := make([]types.Tuple, 60)
	for i := range rows {
		rows[i] = rowWithKey(i, uint32(i))
	}
	rt := testRuntime(t)
	cat := testCatalog(t, rt)
	p := newTestPlanner(t, rt, netsim.LinkConfig{})

	qualify := []exec.UDFBinding{{Name: "Qualify", ArgOrdinals: []int{1}, ResultKind: types.KindBool}}
	apply, err := logical.NewUDFApply(testValues(t, rows), qualify)
	if err != nil {
		t.Fatal(err)
	}
	// Extended schema: 0 ID, 1 Payload, 2 Extra, 3 Qualify.
	aggs := []exec.Aggregate{{Func: exec.AggCount, Ordinal: -1, Name: "n"}}
	root, err := logical.NewAggregate(apply, []int{3}, aggs)
	if err != nil {
		t.Fatal(err)
	}

	tp, err := p.PlanTree(context.Background(), root, cat)
	if err != nil {
		t.Fatal(err)
	}
	op, err := tp.NewOperator()
	if err != nil {
		t.Fatal(err)
	}
	got := mustCollect(t, op)

	nu, err := newNaive(rowsOp(testSchema(), rows), p.Link, qualify)
	if err != nil {
		t.Fatal(err)
	}
	ha, err := exec.NewHashAggregate(nu, []int{3}, aggs)
	if err != nil {
		t.Fatal(err)
	}
	want := mustCollect(t, ha)
	if len(want) != 2 {
		t.Fatalf("expected both qualify outcomes, got %d groups", len(want))
	}
	requireSameRows(t, got, want, "aggregate over UDF result")
}

// TestLowerPrunesProjectedQuery pins the projection-pruning rule end to end:
// a query projecting (ID, Score) must not ship the unused Extra column — the
// rewritten tree narrows the input to (ID, Payload) and remaps every ordinal.
func TestLowerPrunesProjectedQuery(t *testing.T) {
	rows := make([]types.Tuple, 300)
	for i := range rows {
		rows[i] = rowWithKey(i, uint32(5000+i)) // all distinct: client join
	}
	rt := testRuntime(t)
	p := newTestPlanner(t, rt, netsim.LinkConfig{})

	tp, d := planOne(t, p, testQuery(t, testValues(t, rows)), testCatalog(t, rt))
	apply := tp.Applies[0].Apply
	if w := apply.InputWidth(); w != 2 {
		t.Fatalf("pruned input width = %d, want 2 (ID, Payload)", w)
	}
	proj, ok := apply.Input.(*logical.Project)
	if !ok {
		t.Fatalf("pruned input is %T, want *logical.Project", apply.Input)
	}
	if len(proj.Ordinals) != 2 || proj.Ordinals[0] != 0 || proj.Ordinals[1] != 1 {
		t.Fatalf("pruned ordinals = %v, want [0 1]", proj.Ordinals)
	}
	// Remapped extended schema: 0 ID, 1 Payload, 2 Score, 3 Qualify.
	if len(apply.Project) != 2 || apply.Project[0] != 0 || apply.Project[1] != 2 {
		t.Fatalf("remapped projection = %v, want [0 2]", apply.Project)
	}

	// The pruned plan executes correctly and ships fewer downlink bytes than
	// an unpruned client join of the same query.
	if d.Strategy != StrategyClientJoin {
		t.Fatalf("planned %s, want client-site join", d.Strategy)
	}
	op, err := tp.NewOperator()
	if err != nil {
		t.Fatal(err)
	}
	got := mustCollect(t, op)
	prunedDown := exec.NetStatsOf(op).BytesDown

	udfs := testBindings()
	cj, err := exec.NewClientJoin(rowsOp(testSchema(), rows), p.Link, udfs)
	if err != nil {
		t.Fatal(err)
	}
	cj.Pushable = expr.NewBoundColumnRef(4, types.KindBool)
	cj.ProjectOrdinals = []int{0, 3}
	want := mustCollect(t, cj)
	unprunedDown := exec.NetStatsOf(cj).BytesDown
	requireSameRows(t, got, want, "pruned query")
	if prunedDown >= unprunedDown {
		t.Errorf("pruned plan shipped %d B down, unpruned %d B — pruning saved nothing", prunedDown, unprunedDown)
	}
}
