package exec

import (
	"context"
	"fmt"
	"math"
	"testing"

	"csq/internal/catalog"
	"csq/internal/expr"
	"csq/internal/storage"
	"csq/internal/types"
	"csq/internal/wire"
)

// ---- shared fixtures ----

func stockSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Qualifier: "S", Name: "Name", Kind: types.KindString},
		types.Column{Qualifier: "S", Name: "Close", Kind: types.KindFloat},
		types.Column{Qualifier: "S", Name: "Quotes", Kind: types.KindTimeSeries},
	)
}

func stockRows(n int) []types.Tuple {
	rows := make([]types.Tuple, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, types.NewTuple(
			types.NewString(fmt.Sprintf("C%02d", i%7)),
			types.NewFloat(float64(10+i)),
			types.NewTimeSeries(types.TimeSeries{100, 100 + float64(i)}),
		))
	}
	return rows
}

func stockTable(t *testing.T, n int) *storage.HeapTable {
	t.Helper()
	tbl, err := storage.NewHeapTable("StockQuotes", types.NewSchema(
		types.Column{Name: "Name", Kind: types.KindString},
		types.Column{Name: "Close", Kind: types.KindFloat},
		types.Column{Name: "Quotes", Kind: types.KindTimeSeries},
	))
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertBatch(stockRows(n)); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func serverCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	if _, err := cat.RegisterClientUDF(&wire.RegisterUDF{
		Name:        "ClientAnalysis",
		ArgKinds:    []types.Kind{types.KindTimeSeries},
		ResultKind:  types.KindInt,
		ResultSize:  10,
		Selectivity: 0.5,
	}); err != nil {
		t.Fatal(err)
	}
	return cat
}

func mustBind(t *testing.T, schema *types.Schema, cat *catalog.Catalog, e expr.Expr) expr.Expr {
	t.Helper()
	b := expr.NewBinder(schema, cat)
	out, err := b.Bind(e)
	if err != nil {
		t.Fatalf("bind %s: %v", e, err)
	}
	return out
}

// ---- scans ----

func TestTableScan(t *testing.T) {
	tbl := stockTable(t, 10)
	scan := NewTableScan(tbl, "S")
	rows, err := Collect(context.Background(), scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Errorf("scan returned %d rows", len(rows))
	}
	if scan.Schema().Columns[0].Qualifier != "S" {
		t.Errorf("alias not applied: %v", scan.Schema())
	}
	unaliased := NewTableScan(tbl, "")
	if unaliased.Schema().Columns[0].Qualifier != "StockQuotes" {
		t.Errorf("default qualifier = %v", unaliased.Schema().Columns[0].Qualifier)
	}
	// NextBatch before Open errors.
	fresh := NewTableScan(tbl, "S")
	if _, err := fresh.NextBatch(&types.Batch{Max: 1}); err == nil {
		t.Error("NextBatch before Open should fail")
	}
}

func TestValuesScan(t *testing.T) {
	rows := stockRows(3)
	scan := NewValuesScan(stockSchema(), rows)
	got, err := Collect(context.Background(), scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Errorf("values scan returned %d rows", len(got))
	}
	// Reopen and re-read.
	got, err = Collect(context.Background(), scan)
	if err != nil || len(got) != 3 {
		t.Errorf("re-collect = %d rows, %v", len(got), err)
	}
}

// ---- filter / project / limit / distinct ----

func TestFilter(t *testing.T) {
	scan := NewValuesScan(stockSchema(), stockRows(20))
	pred := mustBind(t, stockSchema(), nil,
		expr.NewBinary(expr.OpGt, &expr.ColumnRef{Name: "Close", Ordinal: -1}, expr.NewConst(types.NewFloat(20))))
	f := NewFilter(scan, pred)
	rows, err := Collect(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Errorf("filter kept %d rows, want 9 (Close values 21..29)", len(rows))
	}
	for _, r := range rows {
		v, _ := r[1].Float()
		if v <= 20 {
			t.Errorf("row %v should have been filtered", r)
		}
	}
	// A filter with a client-site UDF predicate must refuse to open.
	cat := serverCatalog(t)
	cpred := mustBind(t, stockSchema(), cat,
		expr.NewBinary(expr.OpGt, expr.NewFuncCall("ClientAnalysis", &expr.ColumnRef{Name: "Quotes", Ordinal: -1}), expr.NewConst(types.NewInt(0))))
	bad := NewFilter(NewValuesScan(stockSchema(), stockRows(2)), cpred)
	if err := bad.Open(context.Background()); err == nil {
		t.Error("filter with client-site predicate should fail to open")
	}
}

func TestProjectOrdinals(t *testing.T) {
	scan := NewValuesScan(stockSchema(), stockRows(4))
	p, err := NewProjectOrdinals(scan, []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if p.Schema().Columns[0].Name != "Quotes" {
		t.Errorf("ordinal projection schema = %v", p.Schema())
	}
	rows, err := Collect(context.Background(), p)
	if err != nil || len(rows) != 4 || rows[0].Len() != 2 {
		t.Errorf("ordinal projection rows = %v, %v", rows, err)
	}
	if _, err := NewProjectOrdinals(scan, []int{9}); err == nil {
		t.Error("out-of-range ordinal projection should fail")
	}
}

// TestKeyTableFoldsEqualFloats feeds a grouped aggregate the FLOAT values
// that compare equal with different bit patterns, the signed zeros and two
// NaN payloads: each pair is one group. A hash join keyed on them must
// match them too.
func TestKeyTableFoldsEqualFloats(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "X", Kind: types.KindFloat})
	rows := []types.Tuple{
		types.NewTuple(types.NewFloat(0)),
		types.NewTuple(types.NewFloat(math.Copysign(0, -1))),
		types.NewTuple(types.NewFloat(math.NaN())),
		types.NewTuple(types.NewFloat(math.Float64frombits(0x7ff8_0000_dead_beef))),
	}
	agg, err := NewHashAggregate(NewValuesScan(schema, rows), []int{0}, []Aggregate{{Func: AggCount, Ordinal: -1}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(context.Background(), agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("aggregate kept %d groups, want 2: %v", len(got), got)
	}
	join, err := NewHashJoin(NewValuesScan(schema, rows[:1]), NewValuesScan(schema, rows[1:2]), []int{0}, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := Collect(context.Background(), join); err != nil || len(got) != 1 {
		t.Errorf("join of 0 with -0 = %d rows, %v; want 1", len(got), err)
	}
}

// ---- joins ----

func estimationsSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Qualifier: "E", Name: "CompanyName", Kind: types.KindString},
		types.Column{Qualifier: "E", Name: "BrokerName", Kind: types.KindString},
		types.Column{Qualifier: "E", Name: "Rating", Kind: types.KindInt},
	)
}

func estimationRows() []types.Tuple {
	return []types.Tuple{
		types.NewTuple(types.NewString("C00"), types.NewString("BrokerA"), types.NewInt(5)),
		types.NewTuple(types.NewString("C00"), types.NewString("BrokerB"), types.NewInt(3)),
		types.NewTuple(types.NewString("C01"), types.NewString("BrokerA"), types.NewInt(4)),
		types.NewTuple(types.NewString("C09"), types.NewString("BrokerC"), types.NewInt(1)),
	}
}

func TestHashJoin(t *testing.T) {
	left := NewValuesScan(stockSchema(), stockRows(7)) // names C00..C06, unique
	right := NewValuesScan(estimationsSchema(), estimationRows())
	j, err := NewHashJoin(left, right, []int{0}, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	// C00 matches 2 estimations, C01 matches 1, C09 matches none -> 3 rows.
	if len(rows) != 3 {
		t.Errorf("hash join = %d rows, want 3", len(rows))
	}
	if rows[0].Len() != stockSchema().Len()+estimationsSchema().Len() {
		t.Errorf("joined arity = %d", rows[0].Len())
	}
	// Residual predicate.
	resid := mustBind(t, stockSchema().Concat(estimationsSchema()), nil,
		expr.NewBinary(expr.OpGe, &expr.ColumnRef{Name: "Rating", Ordinal: -1}, expr.NewConst(types.NewInt(4))))
	j2, _ := NewHashJoin(NewValuesScan(stockSchema(), stockRows(7)), NewValuesScan(estimationsSchema(), estimationRows()),
		[]int{0}, []int{0}, resid)
	rows, err = Collect(context.Background(), j2)
	if err != nil || len(rows) != 2 {
		t.Errorf("hash join with residual = %d rows, %v; want 2", len(rows), err)
	}
	if _, err := NewHashJoin(left, right, nil, nil, nil); err == nil {
		t.Error("hash join without keys should fail")
	}
	if _, err := NewHashJoin(left, right, []int{0}, []int{0, 1}, nil); err == nil {
		t.Error("mismatched key lists should fail")
	}
}

// TestLargeIntKeysStayDistinct is the regression test for INT keys that agree
// as float64 (2^53 and 2^53+1 share one hash, and used to compare equal): a
// hash join must match each only with itself, an aggregate and a Distinct
// must keep them in two groups.
func TestLargeIntKeysStayDistinct(t *testing.T) {
	const k = int64(1) << 53
	schema := types.NewSchema(
		types.Column{Name: "K", Kind: types.KindInt},
		types.Column{Name: "V", Kind: types.KindInt},
	)
	rows := func() []types.Tuple {
		return []types.Tuple{
			{types.NewInt(k), types.NewInt(1)},
			{types.NewInt(k + 1), types.NewInt(10)},
		}
	}
	ctx := context.Background()

	j, err := NewHashJoin(NewValuesScan(schema, rows()), NewValuesScan(schema, rows()), []int{0}, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	joined, err := Collect(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	if len(joined) != 2 {
		t.Fatalf("join over keys 2^53 and 2^53+1 = %d rows, want 2: %v", len(joined), joined)
	}
	for _, r := range joined {
		if !sameRow(r[0:2], r[2:4]) {
			t.Errorf("joined a key with its neighbour: %v", r)
		}
	}

	agg, err := NewHashAggregate(NewValuesScan(schema, append(rows(), rows()...)), []int{0}, []Aggregate{
		{Func: AggCount, Ordinal: -1, Name: "n"},
		{Func: AggSum, Ordinal: 1, Name: "s"},
	})
	if err != nil {
		t.Fatal(err)
	}
	groups, err := Collect(ctx, agg)
	if err != nil {
		t.Fatal(err)
	}
	want := []types.Tuple{
		{types.NewInt(k), types.NewInt(2), types.NewInt(2)},
		{types.NewInt(k + 1), types.NewInt(2), types.NewInt(20)},
	}
	if len(groups) != 2 || !sameRow(groups[0], want[0]) || !sameRow(groups[1], want[1]) {
		t.Errorf("aggregate over keys 2^53 and 2^53+1 = %v, want %v", groups, want)
	}
}

// ---- aggregation ----

func TestHashAggregate(t *testing.T) {
	rows := stockRows(14) // names C00..C06 twice
	agg, err := NewHashAggregate(NewValuesScan(stockSchema(), rows), []int{0}, []Aggregate{
		{Func: AggCount, Ordinal: -1, Name: "cnt"},
		{Func: AggSum, Ordinal: 1, Name: "sum_close"},
		{Func: AggMin, Ordinal: 1, Name: "min_close"},
		{Func: AggMax, Ordinal: 1, Name: "max_close"},
		{Func: AggAvg, Ordinal: 1, Name: "avg_close"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(context.Background(), agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 7 {
		t.Fatalf("aggregate groups = %d, want 7", len(out))
	}
	// Group C00 contains Close values 10 and 17.
	first := out[0]
	if name, _ := first[0].Str(); name != "C00" {
		t.Fatalf("first group = %v", first)
	}
	if c, _ := first[1].Int(); c != 2 {
		t.Errorf("count = %v", first[1])
	}
	if s, _ := first[2].Float(); s != 27 {
		t.Errorf("sum = %v", first[2])
	}
	if mn, _ := first[3].Float(); mn != 10 {
		t.Errorf("min = %v", first[3])
	}
	if mx, _ := first[4].Float(); mx != 17 {
		t.Errorf("max = %v", first[4])
	}
	if av, _ := first[5].Float(); av != 13.5 {
		t.Errorf("avg = %v", first[5])
	}
	// Global aggregate over empty input yields a single zero-count row.
	empty, err := NewHashAggregate(NewValuesScan(stockSchema(), nil), nil, []Aggregate{{Func: AggCount, Ordinal: -1}})
	if err != nil {
		t.Fatal(err)
	}
	out, err = Collect(context.Background(), empty)
	if err != nil || len(out) != 1 {
		t.Fatalf("global aggregate over empty input = %v, %v", out, err)
	}
	if c, _ := out[0][0].Int(); c != 0 {
		t.Errorf("empty count = %v", out[0][0])
	}
	// Invalid ordinals are rejected at construction.
	if _, err := NewHashAggregate(NewValuesScan(stockSchema(), nil), []int{9}, nil); err == nil {
		t.Error("bad group-by ordinal should fail")
	}
	if _, err := NewHashAggregate(NewValuesScan(stockSchema(), nil), nil, []Aggregate{{Func: AggSum, Ordinal: 9}}); err == nil {
		t.Error("bad aggregate ordinal should fail")
	}
	// SUM over a string column errors at execution.
	badSum, _ := NewHashAggregate(NewValuesScan(stockSchema(), stockRows(2)), nil, []Aggregate{{Func: AggSum, Ordinal: 0}})
	if _, err := Collect(context.Background(), badSum); err == nil {
		t.Error("SUM over strings should fail")
	}
	for _, f := range []AggFunc{AggCount, AggSum, AggMin, AggMax, AggAvg} {
		if f.String() == "?" {
			t.Errorf("AggFunc %d has no name", f)
		}
	}
}

func TestRunAndCollectHelpers(t *testing.T) {
	n, err := Run(context.Background(), NewValuesScan(stockSchema(), stockRows(9)))
	if err != nil || n != 9 {
		t.Errorf("Run = %d, %v", n, err)
	}
	// Collect propagates Open errors.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	bad := NewValuesScan(stockSchema(), nil)
	if _, err := Collect(cancelled, bad); err == nil {
		t.Error("Collect should propagate Open errors")
	}
	if _, err := Run(cancelled, bad); err == nil {
		t.Error("Run should propagate Open errors")
	}
	// NetStats accumulation helper.
	var s NetStats
	s.Add(NetStats{BytesDown: 10, BytesUp: 5, Messages: 2, Invocations: 2})
	s.Add(NetStats{BytesDown: 1, BytesUp: 1})
	if s.BytesDown != 11 || s.BytesUp != 6 || s.Messages != 2 || s.Invocations != 2 {
		t.Errorf("NetStats.Add = %+v", s)
	}
}
