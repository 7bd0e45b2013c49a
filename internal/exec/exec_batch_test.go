package exec

import (
	"context"
	"fmt"
	"testing"

	"csq/internal/expr"
	"csq/internal/types"
)

// collectScalar drains an operator strictly tuple-at-a-time via Next,
// bypassing every native NextBatch implementation. It is the baseline the
// batch path is compared against.
func collectScalar(ctx context.Context, op Operator) ([]types.Tuple, error) {
	if err := op.Open(ctx); err != nil {
		_ = op.Close()
		return nil, err
	}
	var out []types.Tuple
	for {
		t, ok, err := op.Next()
		if err != nil {
			_ = op.Close()
			return nil, err
		}
		if !ok {
			break
		}
		out = append(out, t)
	}
	return out, op.Close()
}

// collectOddBatches drains an operator through NextBatch with a deliberately
// awkward batch size to exercise partial-batch boundaries.
func collectOddBatches(ctx context.Context, op Operator, size int) ([]types.Tuple, error) {
	if err := op.Open(ctx); err != nil {
		_ = op.Close()
		return nil, err
	}
	var out []types.Tuple
	batch := make([]types.Tuple, size)
	for {
		n, err := op.NextBatch(batch)
		if err != nil {
			_ = op.Close()
			return nil, err
		}
		if n == 0 {
			break
		}
		out = append(out, batch[:n]...)
	}
	return out, op.Close()
}

func requireSameRows(t *testing.T, name string, scalar, batch []types.Tuple, ordered bool) {
	t.Helper()
	if len(scalar) != len(batch) {
		t.Fatalf("%s: scalar produced %d rows, batch %d", name, len(scalar), len(batch))
	}
	if !ordered {
		key := func(rows []types.Tuple) map[string]int {
			m := make(map[string]int)
			for _, r := range rows {
				m[r.String()]++
			}
			return m
		}
		sm, bm := key(scalar), key(batch)
		for k, c := range sm {
			if bm[k] != c {
				t.Fatalf("%s: row %s count scalar=%d batch=%d", name, k, c, bm[k])
			}
		}
		return
	}
	for i := range scalar {
		if !scalar[i].Equal(batch[i]) {
			t.Fatalf("%s: row %d differs: scalar=%v batch=%v", name, i, scalar[i], batch[i])
		}
	}
}

// TestBatchScalarEquivalence asserts the batched and tuple-at-a-time paths
// produce identical results for every operator.
func TestBatchScalarEquivalence(t *testing.T) {
	ctx := context.Background()
	gtPred := func(t *testing.T) expr.Expr {
		return mustBind(t, stockSchema(), serverCatalog(t),
			expr.NewBinary(expr.OpGt, expr.NewColumnRef("S", "Close"), expr.NewConst(types.NewFloat(14))))
	}
	cases := []struct {
		name    string
		make    func(t *testing.T) Operator
		ordered bool
	}{
		{"TableScan", func(t *testing.T) Operator { return NewTableScan(stockTable(t, 23), "S") }, true},
		{"ValuesScan", func(t *testing.T) Operator { return NewValuesScan(stockSchema(), stockRows(17)) }, true},
		{"Filter", func(t *testing.T) Operator {
			return NewFilter(NewValuesScan(stockSchema(), stockRows(40)), gtPred(t))
		}, true},
		{"FilterNone", func(t *testing.T) Operator {
			none := mustBind(t, stockSchema(), serverCatalog(t),
				expr.NewBinary(expr.OpGt, expr.NewColumnRef("S", "Close"), expr.NewConst(types.NewFloat(1e9))))
			return NewFilter(NewValuesScan(stockSchema(), stockRows(40)), none)
		}, true},
		{"Project", func(t *testing.T) Operator {
			return NewProject(NewValuesScan(stockSchema(), stockRows(21)), []ProjectColumn{
				{Expr: mustBind(t, stockSchema(), serverCatalog(t),
					expr.NewBinary(expr.OpMul, expr.NewColumnRef("S", "Close"), expr.NewConst(types.NewFloat(2)))), Name: "Double"},
				{Expr: mustBind(t, stockSchema(), serverCatalog(t), expr.NewColumnRef("S", "Name")), Name: "Name"},
			})
		}, true},
		{"ProjectOrdinals", func(t *testing.T) Operator {
			p, err := NewProjectOrdinals(NewValuesScan(stockSchema(), stockRows(19)), []int{2, 0})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}, true},
		{"Limit", func(t *testing.T) Operator {
			return NewLimit(NewValuesScan(stockSchema(), stockRows(50)), 13)
		}, true},
		{"Distinct", func(t *testing.T) Operator {
			return NewDistinct(NewValuesScan(stockSchema(), stockRows(40)), []int{0})
		}, true},
		{"Sort", func(t *testing.T) Operator {
			return NewSort(NewValuesScan(stockSchema(), stockRows(33)), []SortKey{{Ordinal: 1, Desc: true}})
		}, true},
		{"HashJoin", func(t *testing.T) Operator {
			j, err := NewHashJoin(
				NewValuesScan(stockSchema(), stockRows(35)),
				NewValuesScan(stockSchema(), stockRows(14)),
				[]int{0}, []int{0}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return j
		}, false},
		{"HashJoinResidual", func(t *testing.T) Operator {
			residual := expr.NewBinary(expr.OpLt, expr.NewBoundColumnRef(1, types.KindFloat), expr.NewBoundColumnRef(4, types.KindFloat))
			j, err := NewHashJoin(
				NewValuesScan(stockSchema(), stockRows(35)),
				NewValuesScan(stockSchema(), stockRows(14)),
				[]int{0}, []int{0}, residual)
			if err != nil {
				t.Fatal(err)
			}
			return j
		}, false},
		{"HashAggregate", func(t *testing.T) Operator {
			a, err := NewHashAggregate(NewValuesScan(stockSchema(), stockRows(41)), []int{0}, []Aggregate{
				{Func: AggCount, Ordinal: -1, Name: "cnt"},
				{Func: AggSum, Ordinal: 1, Name: "sum"},
				{Func: AggMin, Ordinal: 1, Name: "min"},
				{Func: AggMax, Ordinal: 1, Name: "max"},
				{Func: AggAvg, Ordinal: 1, Name: "avg"},
			})
			if err != nil {
				t.Fatal(err)
			}
			return a
		}, true},
		{"NaiveUDF", func(t *testing.T) Operator {
			op, err := NewNaiveUDF(NewValuesScan(stockSchema(), stockRows(12)), fastLink(t), []UDFBinding{analysisBinding()})
			if err != nil {
				t.Fatal(err)
			}
			op.EnableCache = true
			return op
		}, true},
		{"SemiJoin", func(t *testing.T) Operator {
			op, err := NewSemiJoin(NewValuesScan(stockSchema(), stockRows(45)), fastLink(t), []UDFBinding{analysisBinding()})
			if err != nil {
				t.Fatal(err)
			}
			return op
		}, true},
		{"SemiJoinSmallBatches", func(t *testing.T) Operator {
			op, err := NewSemiJoin(NewValuesScan(stockSchema(), stockRows(45)), fastLink(t), []UDFBinding{analysisBinding()})
			if err != nil {
				t.Fatal(err)
			}
			op.ConcurrencyFactor = 3
			op.SendBatchSize = 2
			return op
		}, true},
		{"ClientJoin", func(t *testing.T) Operator {
			op, err := NewClientJoin(NewValuesScan(stockSchema(), stockRows(28)), fastLink(t), []UDFBinding{analysisBinding()})
			if err != nil {
				t.Fatal(err)
			}
			op.ProjectOrdinals = []int{0, 3}
			return op
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			scalar, err := collectScalar(ctx, Scalarize(tc.make(t)))
			if err != nil {
				t.Fatalf("scalar drain: %v", err)
			}
			batch, err := Collect(ctx, tc.make(t))
			if err != nil {
				t.Fatalf("batch drain: %v", err)
			}
			requireSameRows(t, tc.name, scalar, batch, tc.ordered)
			// Awkward batch sizes must hit the same rows.
			for _, size := range []int{1, 3} {
				odd, err := collectOddBatches(ctx, tc.make(t), size)
				if err != nil {
					t.Fatalf("batch size %d: %v", size, err)
				}
				requireSameRows(t, fmt.Sprintf("%s/size%d", tc.name, size), scalar, odd, tc.ordered)
			}
		})
	}
}

// TestScalarizeAdapter checks the generic tuple-at-a-time adapter's batch
// semantics directly: partial fills, exhaustion signalling and pass-through.
func TestScalarizeAdapter(t *testing.T) {
	op := Scalarize(NewValuesScan(stockSchema(), stockRows(5)))
	if err := op.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	dst := make([]types.Tuple, 3)
	n, err := op.NextBatch(dst)
	if err != nil || n != 3 {
		t.Fatalf("first batch = %d, %v", n, err)
	}
	n, err = op.NextBatch(dst)
	if err != nil || n != 2 {
		t.Fatalf("second batch = %d, %v", n, err)
	}
	n, err = op.NextBatch(dst)
	if err != nil || n != 0 {
		t.Fatalf("exhausted batch = %d, %v", n, err)
	}
}

// TestClientJoinInvalidProjection asserts Open fails fast on out-of-range
// pushable projection ordinals instead of silently falling back to the
// unprojected schema at execution time.
func TestClientJoinInvalidProjection(t *testing.T) {
	op, err := NewClientJoin(NewValuesScan(stockSchema(), stockRows(3)), fastLink(t), []UDFBinding{analysisBinding()})
	if err != nil {
		t.Fatal(err)
	}
	op.ProjectOrdinals = []int{0, 99}
	if err := op.Open(context.Background()); err == nil {
		_ = op.Close()
		t.Fatal("Open with out-of-range projection ordinal should fail")
	}
}

// TestNaiveUDFCacheIndependence asserts cached result tuples are cloned at
// insert: mutating the codec-owned batch a result arrived in must not change
// what later cache hits observe.
func TestNaiveUDFCacheIndependence(t *testing.T) {
	ts := types.NewTimeSeries(types.NewSeries(100, 150))
	rows := make([]types.Tuple, 6)
	for i := range rows {
		rows[i] = types.NewTuple(types.NewString("X"), types.NewFloat(float64(i)), ts)
	}
	op, err := NewNaiveUDF(NewValuesScan(stockSchema(), rows), fastLink(t), []UDFBinding{analysisBinding()})
	if err != nil {
		t.Fatal(err)
	}
	op.EnableCache = true
	got, err := Collect(context.Background(), op)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("rows = %d", len(got))
	}
	series, _ := ts.Series()
	want := expectedRating(series)
	for i, r := range got {
		if v, _ := r[3].Int(); v != want {
			t.Errorf("row %d rating = %d, want %d", i, v, want)
		}
	}
	if op.NetStats().RoundTrips != 1 {
		t.Errorf("round trips = %d, want 1", op.NetStats().RoundTrips)
	}
}
