package exec

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"csq/internal/expr"
	"csq/internal/types"
)

// collectBatches drains an operator through NextBatch with a fixed batch
// size; awkward sizes exercise partial-batch boundaries.
func collectBatches(ctx context.Context, op Operator, size int) ([]types.Tuple, error) {
	if err := op.Open(ctx); err != nil {
		_ = op.Close()
		return nil, err
	}
	var out []types.Tuple
	batch := &types.Batch{Max: size}
	for {
		n, err := op.NextBatch(batch)
		if err != nil {
			_ = op.Close()
			return nil, err
		}
		if n == 0 {
			break
		}
		out = append(out, batch.Tuples()...)
	}
	return out, op.Close()
}

func requireSameRows(t *testing.T, name string, want, got []types.Tuple, ordered bool) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: want %d rows, got %d", name, len(want), len(got))
	}
	if !ordered {
		key := func(rows []types.Tuple) map[string]int {
			m := make(map[string]int)
			for _, r := range rows {
				m[r.String()]++
			}
			return m
		}
		wm, gm := key(want), key(got)
		for k, c := range wm {
			if gm[k] != c {
				t.Fatalf("%s: row %s count want=%d got=%d", name, k, c, gm[k])
			}
		}
		return
	}
	for i := range want {
		if !sameRow(want[i], got[i]) {
			t.Fatalf("%s: row %d differs: want=%v got=%v", name, i, want[i], got[i])
		}
	}
}

// TestBatchScalarEquivalence asserts every operator produces the same rows
// whatever the batch size it is drained at: one row per call (the
// tuple-at-a-time pull), awkward partial sizes, the engine default and one
// batch larger than any input. Each drain must equal the 1024-row drain, in
// order where the case is ordered.
func TestBatchScalarEquivalence(t *testing.T) {
	ctx := context.Background()
	gtPred := func(t *testing.T) expr.Expr {
		return mustBind(t, stockSchema(), serverCatalog(t),
			expr.NewBinary(expr.OpGt, &expr.ColumnRef{Name: "Close", Ordinal: -1}, expr.NewConst(types.NewFloat(14))))
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
				expr.NewBinary(expr.OpGt, &expr.ColumnRef{Name: "Close", Ordinal: -1}, expr.NewConst(types.NewFloat(1e9))))
			return NewFilter(NewValuesScan(stockSchema(), stockRows(40)), none)
		}, true},
		{"ProjectOrdinals", func(t *testing.T) Operator {
			p, err := NewProjectOrdinals(NewValuesScan(stockSchema(), stockRows(19)), []int{2, 0})
			if err != nil {
				t.Fatal(err)
			}
			return p
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
		{"naive", func(t *testing.T) Operator {
			op, err := newNaive(NewValuesScan(stockSchema(), stockRows(12)), fastLink(t), []UDFBinding{analysisBinding()})
			if err != nil {
				t.Fatal(err)
			}
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
			op.ConcurrencyFactor = 2
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
			want, err := collectBatches(ctx, tc.make(t), 1024)
			if err != nil {
				t.Fatalf("batch size 1024: %v", err)
			}
			for _, size := range []int{1, 3, DefaultBatchSize} {
				got, err := collectBatches(ctx, tc.make(t), size)
				if err != nil {
					t.Fatalf("batch size %d: %v", size, err)
				}
				requireSameRows(t, fmt.Sprintf("%s/size%d", tc.name, size), want, got, tc.ordered)
			}
		})
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

// TestNaiveUDFCacheIndependence asserts the naive strategy's cached result
// tuples are independent of the codec-owned batch a result arrived in: every
// duplicate observes the one shipped argument's result.
func TestNaiveUDFCacheIndependence(t *testing.T) {
	ts := types.NewTimeSeries(types.TimeSeries{100, 150})
	rows := make([]types.Tuple, 6)
	for i := range rows {
		rows[i] = types.NewTuple(types.NewString("X"), types.NewFloat(float64(i)), ts)
	}
	op, err := newNaive(NewValuesScan(stockSchema(), rows), fastLink(t), []UDFBinding{analysisBinding()})
	if err != nil {
		t.Fatal(err)
	}
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
	if st := op.NetStats(); st.Messages != 1 || st.Invocations != 1 {
		t.Errorf("messages = %d, invocations = %d, want 1 and 1", st.Messages, st.Invocations)
	}
}

// sameRow reports whether two rows encode to the same bytes, which tells
// apart NULL kinds and INT from FLOAT.
func sameRow(a, b types.Tuple) bool {
	ea, errA := types.EncodeTuple(nil, a)
	eb, errB := types.EncodeTuple(nil, b)
	return errA == nil && errB == nil && bytes.Equal(ea, eb)
}
