package plan

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"csq/internal/catalog"
	"csq/internal/client"
	"csq/internal/costmodel"
	"csq/internal/exec"
	"csq/internal/expr"
	"csq/internal/logical"
	"csq/internal/netsim"
	"csq/internal/storage"
	"csq/internal/types"
	"csq/internal/wire"
)

// The test workload: records (ID string, Payload bytes, Extra bytes) with two
// client-site UDFs over the payload — Score returns a large derived object,
// Qualify is a boolean predicate UDF. Both are deterministic in the payload so
// every strategy computes identical results.

const (
	testScoreBytes  = 2000
	testPayloadSize = 100
	testExtraSize   = 100
)

func testSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "ID", Kind: types.KindString},
		types.Column{Name: "Payload", Kind: types.KindBytes},
		types.Column{Name: "Extra", Kind: types.KindBytes},
	)
}

// rowWithKey builds one record whose payload is keyed by key: rows sharing a
// key share the whole argument column.
func rowWithKey(i int, key uint32) types.Tuple {
	payload := make([]byte, testPayloadSize)
	payload[0] = byte(key % 10)
	payload[1] = byte(key)
	payload[2] = byte(key >> 8)
	payload[3] = byte(key >> 16)
	extra := make([]byte, testExtraSize)
	return types.NewTuple(
		types.NewString(fmt.Sprintf("N%04d", i)),
		types.NewBytes(payload),
		types.NewBytes(extra),
	)
}

func qualifies(payload []byte) bool { return payload[0] == 0 }

func testRuntime(t testing.TB) *client.Runtime {
	t.Helper()
	rt := client.NewRuntime()
	if err := rt.Register(&client.Func{
		Name:       "Score",
		ArgKinds:   []types.Kind{types.KindBytes},
		ResultKind: types.KindBytes,
		ResultSize: testScoreBytes,
		Body: func(args []types.Value) (types.Value, error) {
			p, err := args[0].Bytes()
			if err != nil {
				return types.Value{}, err
			}
			out := make([]byte, testScoreBytes)
			for i := range out {
				out[i] = p[1]
			}
			return types.NewBytes(out), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Register(&client.Func{
		Name:        "Qualify",
		ArgKinds:    []types.Kind{types.KindBytes},
		ResultKind:  types.KindBool,
		ResultSize:  3,
		Selectivity: 0.1,
		Body: func(args []types.Value) (types.Value, error) {
			p, err := args[0].Bytes()
			if err != nil {
				return types.Value{}, err
			}
			return types.NewBool(qualifies(p)), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	return rt
}

// testCatalog registers the client UDFs the way a live system would: through
// the wire announcement path.
func testCatalog(t testing.TB, rt *client.Runtime) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for _, f := range rt.Functions() {
		reg := wire.RegisterUDF{
			Name:        f.Name,
			ArgKinds:    f.ArgKinds,
			ResultKind:  f.ResultKind,
			ResultSize:  f.ResultSize,
			Selectivity: f.Selectivity,
			PerCallCost: f.PerCallCost,
		}
		if _, err := cat.RegisterClientUDF(&reg); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func testBindings() []exec.UDFBinding {
	return []exec.UDFBinding{
		{Name: "Score", ArgOrdinals: []int{1}, ResultKind: types.KindBytes},
		{Name: "Qualify", ArgOrdinals: []int{1}, ResultKind: types.KindBool},
	}
}

// testValues builds the declarative source node over the rows.
func testValues(t testing.TB, rows []types.Tuple) logical.Node {
	t.Helper()
	src, err := rowsScan("objects", testSchema(), rows)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// rowsScan is a scan over a heap table holding rows, outside any catalog.
func rowsScan(name string, schema *types.Schema, rows []types.Tuple) (*logical.Scan, error) {
	heap, err := storage.NewHeapTable(name, schema)
	if err != nil {
		return nil, err
	}
	if err := heap.InsertBatch(rows); err != nil {
		return nil, err
	}
	return logical.NewScan(&catalog.Table{Name: name, Schema: schema, Stats: heap.Stats(), Data: heap}, "")
}

// rowsOp is a table scan operator over a heap table holding rows.
func rowsOp(schema *types.Schema, rows []types.Tuple) exec.Operator {
	scan, err := rowsScan("v", schema, rows)
	if err != nil {
		panic(err)
	}
	return exec.NewTableScan(scan.Table.Data.(storage.Relation), "")
}

// unversioned hides its relation's data version.
type unversioned struct{ storage.Relation }

// unversionedScan is testValues over a relation that reports no data version.
func unversionedScan(t testing.TB, rows []types.Tuple) logical.Node {
	t.Helper()
	scan, err := rowsScan("objects", testSchema(), rows)
	if err != nil {
		t.Fatal(err)
	}
	tbl := *scan.Table
	tbl.Data = unversioned{tbl.Data.(storage.Relation)}
	src, err := logical.NewScan(&tbl, "")
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// applyQuery applies udfs to src, keeps the rows pushable accepts and
// projects the extended schema, leaving out the filter and projection when
// nil: the tree a text query with one run of udf clauses compiles to.
func applyQuery(t testing.TB, src logical.Node, udfs []exec.UDFBinding, pushable expr.Expr, project []int) logical.Node {
	t.Helper()
	root, err := logical.NewUDFApply(src, udfs)
	if err != nil {
		t.Fatal(err)
	}
	var n logical.Node = root
	if pushable != nil {
		if n, err = logical.NewFilter(n, pushable); err != nil {
			t.Fatal(err)
		}
	}
	if len(project) > 0 {
		if n, err = logical.NewProject(n, project); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// testQuery applies both UDFs to src, keeps the rows Qualify accepts and
// returns (ID, Score). Extended schema ordinals: 0 ID, 1 Payload, 2 Extra,
// 3 Score, 4 Qualify.
func testQuery(t testing.TB, src logical.Node) logical.Node {
	t.Helper()
	return applyQuery(t, src, testBindings(), expr.NewBoundColumnRef(4, types.KindBool), []int{0, 3})
}

// planOne plans a tree with exactly one UDF application and returns the plan
// with that application's decision.
func planOne(t testing.TB, p *Planner, root logical.Node, cat *catalog.Catalog) (*TreePlan, *Decision) {
	t.Helper()
	tp, err := p.PlanTree(context.Background(), root, cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(tp.Applies) != 1 {
		t.Fatalf("planned %d UDF applications, want 1", len(tp.Applies))
	}
	return tp, tp.Applies[0].Decision
}

// collectPlan instantiates the plan's operator tree and drains it.
func collectPlan(t testing.TB, tp *TreePlan) (exec.Operator, []types.Tuple) {
	t.Helper()
	op, err := tp.NewOperator()
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Collect(context.Background(), op)
	if err != nil {
		t.Fatal(err)
	}
	return op, got
}

func TestSampleInputMeasures(t *testing.T) {
	rows := make([]types.Tuple, 200)
	for i := range rows {
		rows[i] = rowWithKey(i, uint32(i%20)) // 10% distinct arguments
	}
	src := rowsOp(testSchema(), rows)
	// Server filter: ID >= "N0100" keeps the second half.
	filter := expr.NewBinary(expr.OpGe,
		expr.NewBoundColumnRef(0, types.KindString),
		expr.NewConst(types.NewString("N0100")))
	stats, err := sampleInput(context.Background(), src, []int{1}, filter, nil, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Exhausted || stats.ScannedRows != 200 || stats.PassingRows != 100 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.FilterSelectivity != 0.5 {
		t.Errorf("filter selectivity = %g, want 0.5", stats.FilterSelectivity)
	}
	wantArg := float64(6 + testPayloadSize)
	if stats.AvgArgBytes != wantArg {
		t.Errorf("avg arg bytes = %g, want %g", stats.AvgArgBytes, wantArg)
	}
	if stats.AvgRecordBytes <= stats.AvgArgBytes {
		t.Errorf("record bytes %g should exceed arg bytes", stats.AvgRecordBytes)
	}
	// The filtered half still cycles through all 20 keys: D = 20/100.
	if stats.DistinctFraction != 0.2 {
		t.Errorf("distinct fraction = %g, want 0.2", stats.DistinctFraction)
	}
}

// TestChooseStrategyMatchesArgmin is the planner/cost-model agreement
// property: for random valid parameters the planner's strategy equals the
// analytic argmin of the two bottleneck costs, with ties going to the
// semi-join and the naive fallback only in the ≤1-invocation degenerate case.
func TestChooseStrategyMatchesArgmin(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		p := costmodel.Params{
			Rows:               1 + r.Intn(10000),
			InputSize:          1 + r.Float64()*5000,
			ArgFraction:        nextUnitOpen(r),
			DistinctFraction:   nextUnitOpen(r),
			Selectivity:        r.Float64(),
			ProjectionFraction: r.Float64(),
			ResultSize:         r.Float64() * 5000,
			Asymmetry:          0.01 + r.Float64()*200,
			PerTupleOverhead:   float64(r.Intn(32)),
		}
		got, sjc, cjc, err := ChooseStrategy(p)
		if err != nil {
			t.Fatalf("valid params rejected: %v (%+v)", err, p)
		}
		want := StrategySemiJoin
		if cjc.Bottleneck() < sjc.Bottleneck() {
			want = StrategyClientJoin
		} else if float64(p.Rows)*p.DistinctFraction <= 1 {
			want = StrategyNaive
		}
		if got != want {
			t.Fatalf("params %+v: planner chose %s, argmin is %s (sj %g, cj %g)",
				p, got, want, sjc.Bottleneck(), cjc.Bottleneck())
		}
	}
}

func nextUnitOpen(r *rand.Rand) float64 {
	for {
		if v := r.Float64(); v > 0 {
			return v
		}
	}
}

func TestChooseStrategyTieAndDegenerate(t *testing.T) {
	// Exact tie: both strategies bottleneck on a 1000-byte downlink.
	tie := costmodel.Params{
		Rows: 100, InputSize: 1000, ArgFraction: 1, DistinctFraction: 1,
		Selectivity: 0.5, ProjectionFraction: 1, ResultSize: 100, Asymmetry: 1,
	}
	s, sjc, cjc, err := ChooseStrategy(tie)
	if err != nil {
		t.Fatal(err)
	}
	if sjc.Bottleneck() != cjc.Bottleneck() {
		t.Fatalf("test setup broken: not a tie (%g vs %g)", sjc.Bottleneck(), cjc.Bottleneck())
	}
	if s != StrategySemiJoin {
		t.Errorf("tie went to %s, want semi-join", s)
	}

	// One expected invocation: the pipeline degenerates to the naive strategy.
	one := tie
	one.Rows = 1
	if s, _, _, _ := ChooseStrategy(one); s != StrategyNaive {
		t.Errorf("single-invocation workload chose %s, want naive", s)
	}

	// Invalid parameters are rejected, not silently costed.
	bad := tie
	bad.DistinctFraction = 0
	if _, _, _, err := ChooseStrategy(bad); err == nil {
		t.Error("zero distinct fraction should be rejected")
	}
}

func newTestPlanner(t testing.TB, rt *client.Runtime, cfg netsim.LinkConfig) *Planner {
	t.Helper()
	return NewPlanner(exec.NewInProcessLink(rt, cfg))
}

func TestPlanPicksSemiJoinForDuplicateHeavyInput(t *testing.T) {
	rows := make([]types.Tuple, 400)
	for i := range rows {
		rows[i] = rowWithKey(i, uint32(i%8)) // 2% distinct
	}
	rt := testRuntime(t)
	p := newTestPlanner(t, rt, netsim.LinkConfig{})
	tp, d := planOne(t, p, testQuery(t, testValues(t, rows)), testCatalog(t, rt))
	if d.Strategy != StrategySemiJoin {
		t.Fatalf("duplicate-heavy input planned as %s, want semi-join (params %+v)", d.Strategy, d.Params)
	}
	if d.Params.DistinctFraction > 0.2 {
		t.Errorf("measured D = %g, want small", d.Params.DistinctFraction)
	}
	if d.Params.Selectivity != 0.1 {
		t.Errorf("S = %g, want the catalog-declared 0.1", d.Params.Selectivity)
	}
	// Execute the planned operator and verify against a hand-built semi-join.
	_, got := collectPlan(t, tp)
	want := 0
	for i := range rows {
		if uint32(i%8)%10 == 0 {
			want++
		}
	}
	if len(got) != want {
		t.Errorf("planned semi-join returned %d rows, want %d", len(got), want)
	}
	for _, r := range got {
		if r.Len() != 2 {
			t.Fatalf("projected row arity = %d, want 2", r.Len())
		}
	}
}

func TestPlanPicksClientJoinForDistinctInput(t *testing.T) {
	rows := make([]types.Tuple, 400)
	for i := range rows {
		rows[i] = rowWithKey(i, uint32(1000+i)) // all distinct
	}
	rt := testRuntime(t)
	p := newTestPlanner(t, rt, netsim.LinkConfig{})
	tp, d := planOne(t, p, testQuery(t, testValues(t, rows)), testCatalog(t, rt))
	if d.Strategy != StrategyClientJoin {
		t.Fatalf("distinct input planned as %s, want client-site join (params %+v)", d.Strategy, d.Params)
	}
	_, got := collectPlan(t, tp)
	for _, r := range got {
		if r.Len() != 2 {
			t.Fatalf("projected row arity = %d, want 2", r.Len())
		}
	}
}

func TestPlanNaiveDegenerateCase(t *testing.T) {
	rows := []types.Tuple{rowWithKey(0, 3)}
	rt := testRuntime(t)
	p := newTestPlanner(t, rt, netsim.LinkConfig{})
	// A small-result UDF keeps the semi-join side of the argmin, which the
	// single-row input then degrades to naive.
	qualify := []exec.UDFBinding{{Name: "Qualify", ArgOrdinals: []int{1}, ResultKind: types.KindBool}}
	tp, d := planOne(t, p, applyQuery(t, testValues(t, rows), qualify, nil, nil), testCatalog(t, rt))
	if d.Strategy != StrategyNaive {
		t.Fatalf("single-row workload planned as %s, want naive", d.Strategy)
	}
	op, got := collectPlan(t, tp)
	if len(got) != 1 || got[0].Len() != 4 {
		t.Errorf("naive plan output = %d rows", len(got))
	}
	// Naive lowers to the semi-join at concurrency factor 1 on one session.
	for op != nil {
		if sj, ok := op.(*exec.SemiJoin); ok {
			if d.Concurrency != 1 || sj.ConcurrencyFactor != 1 || sj.Sessions != 1 {
				t.Errorf("naive lowered with factor %d (decision %d), %d sessions; want 1, 1, 1", sj.ConcurrencyFactor, d.Concurrency, sj.Sessions)
			}
			if st := sj.NetStats(); st.Messages != 1 || st.Invocations != 1 {
				t.Errorf("naive shipped %d frames of %d arguments, want 1 and 1", st.Messages, st.Invocations)
			}
			return
		}
		u, ok := op.(exec.Unwrapper)
		if !ok {
			break
		}
		op = u.Unwrap()
	}
	t.Errorf("naive plan has no semi-join operator: %T", op)
}

func TestPlanQueryValidation(t *testing.T) {
	rt := testRuntime(t)
	p := newTestPlanner(t, rt, netsim.LinkConfig{})
	if _, err := p.PlanTree(context.Background(), nil, testCatalog(t, rt)); err == nil {
		t.Error("a nil tree should fail")
	}
	if _, err := logical.NewUDFApply(nil, testBindings()); err == nil {
		t.Error("a query without input should fail")
	}
	bad := []exec.UDFBinding{{Name: "Score", ArgOrdinals: []int{9}, ResultKind: types.KindBytes}}
	if _, err := logical.NewUDFApply(testValues(t, nil), bad); err == nil {
		t.Error("out-of-range argument ordinal should fail")
	}
}

// TestPlanDerivesSessions: with a measured asymmetric link the planner fans
// the winning operator out across parallel sessions sized by the bottleneck
// transfer.
func TestPlanDerivesSessions(t *testing.T) {
	// All-distinct payloads force the client-site join.
	rows := make([]types.Tuple, 400)
	for i := range rows {
		rows[i] = rowWithKey(i, uint32(1000+i))
	}
	rt := testRuntime(t)
	cat := testCatalog(t, rt)
	p := newTestPlanner(t, rt, netsim.LinkConfig{})
	p.Config.Link = &exec.LinkObservation{
		DownBytesPerSec: 180_000,
		UpBytesPerSec:   3_600,
		Asymmetry:       50,
		RTT:             100 * time.Millisecond,
	}
	// Return (Extra, Score), so the shipped records keep a column beside
	// the UDF's argument.
	q := applyQuery(t, testValues(t, rows), testBindings(), expr.NewBoundColumnRef(4, types.KindBool), []int{2, 3})
	tp, d := planOne(t, p, q, cat)
	if d.Strategy != StrategyClientJoin {
		t.Fatalf("planned %s, want client-site join", d.Strategy)
	}
	if d.Sessions < 2 || d.Sessions > DefaultMaxSessions {
		t.Errorf("derived sessions = %d, want parallel fan-out within [2, %d]", d.Sessions, DefaultMaxSessions)
	}
	// The derived fan-out must reach the instantiated operator, and the
	// parallel plan must stay correct.
	op, got := collectPlan(t, tp)
	cj, ok := op.(*exec.ClientJoin)
	if !ok {
		t.Fatalf("planned operator is %T, want *exec.ClientJoin", op)
	}
	if cj.Sessions != d.Sessions {
		t.Errorf("operator got sessions=%d, decision says %d", cj.Sessions, d.Sessions)
	}
	want := 0
	for i := range rows {
		if uint32(1000+i)%10 == 0 {
			want++
		}
	}
	if len(got) != want {
		t.Errorf("parallel client join returned %d rows, want %d", len(got), want)
	}
}

// TestPlanSingleSessionOnUnmeasuredLink: without measured bandwidths the
// planner never guesses parallelism.
func TestPlanSingleSessionOnUnmeasuredLink(t *testing.T) {
	rows := make([]types.Tuple, 200)
	for i := range rows {
		rows[i] = rowWithKey(i, uint32(i%8))
	}
	rt := testRuntime(t)
	p := newTestPlanner(t, rt, netsim.LinkConfig{})
	if _, d := planOne(t, p, testQuery(t, testValues(t, rows)), testCatalog(t, rt)); d.Sessions != 1 {
		t.Errorf("unmeasured link derived %d sessions, want 1", d.Sessions)
	}
}

// scanByName builds a scan over the catalog's table name, as the query
// compiler does.
func scanByName(cat *catalog.Catalog, name, alias string) (*logical.Scan, error) {
	t, err := cat.Table(name)
	if err != nil {
		return nil, err
	}
	return logical.NewScan(t, alias)
}
