package exec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"csq/internal/expr"
	"csq/internal/storage/colstore"
	"csq/internal/types"
)

// The column-native operators (ColumnarScan, Filter, ProjectOrdinals,
// HashJoin, HashAggregate) are held here to references written a row at a
// time over plain tuples: nested loops for the join, a linear group search
// for the aggregate.

// diffSchema is the shape of the random rows: a key column of INTs, a key
// column of FLOATs that holds INTs equal to FLOATs by value, ±0, NaN and
// the 2⁵³ triple, a STRING, a BOOL, BYTES, and a column that mixes kinds.
func diffSchema(q string) *types.Schema {
	return types.NewSchema(
		types.Column{Qualifier: q, Name: "I", Kind: types.KindInt},
		types.Column{Qualifier: q, Name: "F", Kind: types.KindFloat},
		types.Column{Qualifier: q, Name: "S", Kind: types.KindString},
		types.Column{Qualifier: q, Name: "B", Kind: types.KindBool},
		types.Column{Qualifier: q, Name: "Y", Kind: types.KindBytes},
		types.Column{Qualifier: q, Name: "M", Kind: types.KindInt},
	)
}

// diffRows draws n rows of diffSchema, about one cell in six NULL.
func diffRows(rng *rand.Rand, n int) []types.Tuple {
	null := func(k types.Kind, v types.Value) types.Value {
		if rng.Intn(6) == 0 {
			return types.Null(k)
		}
		return v
	}
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), 1, 2, 2.5, -3}
	rows := make([]types.Tuple, n)
	for i := range rows {
		f := types.NewFloat(floats[rng.Intn(len(floats))])
		switch rng.Intn(6) {
		case 0, 1:
			f = types.NewInt(int64(rng.Intn(4))) // an INT among FLOATs, equal to one by value
		case 2:
			// INT 2⁵³ and INT 2⁵³+1 each equal FLOAT 2⁵³, but not each
			// other: Compare == 0 is not transitive here.
			f = []types.Value{types.NewInt(1 << 53), types.NewInt(1<<53 + 1), types.NewFloat(1 << 53)}[rng.Intn(3)]
		}
		m := types.NewInt(int64(rng.Intn(3)))
		switch rng.Intn(4) {
		case 0:
			m = types.NewFloat(float64(rng.Intn(3)))
		case 1:
			m = types.NewString(fmt.Sprint(rng.Intn(3)))
		}
		rows[i] = types.Tuple{
			null(types.KindInt, types.NewInt(int64(rng.Intn(5)-2))),
			null(types.KindFloat, f),
			null(types.KindString, types.NewString(fmt.Sprintf("s%d", rng.Intn(4)))),
			null(types.KindBool, types.NewBool(rng.Intn(2) == 0)),
			null(types.KindBytes, types.NewBytes([]byte{byte(rng.Intn(3))})),
			null(types.KindNull, m),
		}
	}
	return rows
}

// sizes are the input sizes the differential tests draw: empty, one row,
// around a batch and several batches.
var sizes = []int{0, 1, 7, 64, 65, 300}

// drainAt collects op at each caller bound and fails unless every drain
// gives want, byte for byte.
func drainAt(t *testing.T, name string, op func() Operator, want []types.Tuple) {
	t.Helper()
	for _, bound := range []int{1, 7, 64} {
		got, err := collectBatches(context.Background(), op(), bound)
		if err != nil {
			t.Fatalf("%s at bound %d: %v", name, bound, err)
		}
		if !bytes.Equal(encodeAll(t, got), encodeAll(t, want)) {
			t.Fatalf("%s at bound %d: %d rows\n%v\nwant %d rows\n%v", name, bound, len(got), got, len(want), want)
		}
	}
}

// drainSpilled collects op under a memory budget of one byte, which makes a
// join or grouped aggregate spill on its first charge, fails unless the
// drain gives want, byte for byte, and returns the spill events.
func drainSpilled(t *testing.T, name string, op func() Operator, want []types.Tuple) int64 {
	t.Helper()
	tracker := NewMemTracker(1)
	got, err := collectBatches(WithMemTracker(context.Background(), tracker), op(), DefaultBatchSize)
	if err != nil {
		t.Fatalf("%s, spilled: %v", name, err)
	}
	if !bytes.Equal(encodeAll(t, got), encodeAll(t, want)) {
		t.Fatalf("%s, spilled: %d rows\n%v\nwant %d rows\n%v", name, len(got), got, len(want), want)
	}
	return tracker.SpillEvents()
}

// refEqual is the key equality of the hash tables: Compare == 0 on every
// key, so NULL equals NULL and INT 2 equals FLOAT 2.0.
func refEqual(a types.Tuple, aKeys []int, b types.Tuple, bKeys []int) bool {
	for i := range aKeys {
		if c, err := types.Compare(a[aKeys[i]], b[bKeys[i]]); err != nil || c != 0 {
			return false
		}
	}
	return true
}

// selecting puts rows behind a Filter that keeps most of them, so the
// operator under test reads batches with selection vectors.
func selecting(rows []types.Tuple, schema *types.Schema) (Operator, []types.Tuple) {
	pred := expr.NewBinary(expr.OpNe, expr.NewBoundColumnRef(2, types.KindString), expr.NewConst(types.NewString("s3")))
	var kept []types.Tuple
	for _, r := range rows {
		if s, err := r[2].Str(); err == nil && s != "s3" {
			kept = append(kept, r)
		}
	}
	return NewFilter(NewValuesScan(schema, rows), pred), kept
}

func TestColumnFilterMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	preds := []expr.Expr{
		expr.NewBinary(expr.OpGe, expr.NewBoundColumnRef(0, types.KindInt), expr.NewConst(types.NewInt(0))),
		expr.NewBinary(expr.OpLt, expr.NewConst(types.NewFloat(1.5)), expr.NewBoundColumnRef(1, types.KindFloat)),
		expr.NewBinary(expr.OpAnd,
			expr.NewBinary(expr.OpEq, expr.NewBoundColumnRef(1, types.KindFloat), expr.NewConst(types.NewInt(0))),
			expr.NewBinary(expr.OpNe, expr.NewBoundColumnRef(2, types.KindString), expr.NewConst(types.NewString("s1")))),
		expr.NewBinary(expr.OpEq, expr.NewBoundColumnRef(3, types.KindBool), expr.NewConst(types.NewBool(true))),
		expr.NewBinary(expr.OpOr,
			expr.NewBinary(expr.OpLe, expr.NewBoundColumnRef(0, types.KindInt), expr.NewConst(types.NewInt(-1))),
			expr.NewBinary(expr.OpGt, expr.NewBoundColumnRef(1, types.KindFloat), expr.NewConst(types.NewFloat(2)))),
	}
	ev := &expr.Evaluator{}
	for _, n := range sizes {
		rows := diffRows(rng, n)
		for pi, pred := range preds {
			var want []types.Tuple
			for _, r := range rows {
				if ok, err := ev.EvalBool(pred, r); err != nil {
					t.Fatal(err)
				} else if ok {
					want = append(want, r)
				}
			}
			drainAt(t, fmt.Sprintf("filter %d over %d rows", pi, n), func() Operator {
				return NewFilter(NewValuesScan(diffSchema(""), rows), pred)
			}, want)
		}
	}
	// A comparison that can fail fails as the evaluator does, column-wise or not.
	bad := expr.NewBinary(expr.OpGt, expr.NewBoundColumnRef(5, types.KindInt), expr.NewConst(types.NewInt(0)))
	rows := []types.Tuple{{types.NewInt(1), types.NewFloat(1), types.NewString("s"), types.NewBool(true), types.NewBytes(nil), types.NewString("x")}}
	if _, err := Collect(context.Background(), NewFilter(NewValuesScan(diffSchema(""), rows), bad)); err == nil {
		t.Fatal("a STRING compared with an INT passed the filter")
	}
}

func TestColumnProjectMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ords := []int{5, 0, 2, 0}
	for _, n := range sizes {
		rows := diffRows(rng, n)
		_, kept := selecting(rows, diffSchema(""))
		var want []types.Tuple
		for _, r := range kept {
			want = append(want, types.Tuple{r[5], r[0], r[2], r[0]})
		}
		drainAt(t, fmt.Sprintf("project over %d rows", n), func() Operator {
			in, _ := selecting(rows, diffSchema(""))
			p, err := NewProjectOrdinals(in, ords)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}, want)
	}
}

func TestColumnHashJoinMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := []struct{ left, right []int }{
		{[]int{0}, []int{1}}, // INT keys against FLOAT keys
		{[]int{1}, []int{1}}, // ±0 and NaN
		{[]int{2, 0}, []int{2, 0}},
		{[]int{5}, []int{5}}, // mixed kinds
		{[]int{3}, []int{3}},
	}
	residual := expr.NewBinary(expr.OpNe, expr.NewBoundColumnRef(2, types.KindString), expr.NewBoundColumnRef(8, types.KindString))
	for _, n := range sizes {
		left, right := diffRows(rng, n), diffRows(rng, n/2+1)
		for ki, k := range keys {
			for _, res := range []expr.Expr{nil, residual} {
				_, kept := selecting(left, diffSchema("l"))
				var want []types.Tuple
				for _, l := range kept {
					for _, r := range right {
						if !refEqual(l, k.left, r, k.right) {
							continue
						}
						row := append(l.Clone(), r...)
						if res != nil {
							if ok, err := (&expr.Evaluator{}).EvalBool(res, row); err != nil || !ok {
								continue
							}
						}
						want = append(want, row)
					}
				}
				name := fmt.Sprintf("join keys %d residual %v over %d rows", ki, res != nil, n)
				build := func() Operator {
					in, _ := selecting(left, diffSchema("l"))
					j, err := NewHashJoin(in, NewValuesScan(diffSchema("r"), right), k.left, k.right, res)
					if err != nil {
						t.Fatal(err)
					}
					return j
				}
				drainAt(t, name, build, want)
				if drainSpilled(t, name, build, want) == 0 {
					t.Fatalf("%s did not spill", name)
				}
			}
		}
	}
}

// refAggregate folds rows into groups found by a linear search, in row
// order, and sorts them by group value: the reference for HashAggregate.
func refAggregate(t *testing.T, rows []types.Tuple, groupBy []int, aggs []Aggregate, out *types.Schema) []types.Tuple {
	type group struct {
		key        types.Tuple
		n          int64
		counts     []int64
		sums       []float64
		isums      []int64
		mins, maxs []types.Value
	}
	var groups []*group
	for _, r := range rows {
		var g *group
		for _, c := range groups {
			if refEqual(r, groupBy, c.key, allOrdinals(len(groupBy))) {
				g = c
				break
			}
		}
		if g == nil {
			g = &group{counts: make([]int64, len(aggs)), sums: make([]float64, len(aggs)), isums: make([]int64, len(aggs)),
				mins: make([]types.Value, len(aggs)), maxs: make([]types.Value, len(aggs))}
			for _, o := range groupBy {
				g.key = append(g.key, r[o])
			}
			groups = append(groups, g)
		}
		g.n++
		for i, a := range aggs {
			if a.Ordinal < 0 || r[a.Ordinal].IsNull() {
				continue
			}
			v := r[a.Ordinal]
			g.counts[i]++
			switch {
			case a.Func == AggSum && out.Columns[len(groupBy)+i].Kind == types.KindInt && v.Kind() == types.KindInt:
				x, _ := v.Int()
				g.isums[i] += x
			case a.Func == AggSum || a.Func == AggAvg:
				f, err := v.Float()
				if err != nil {
					t.Fatal(err)
				}
				g.sums[i] += f
			case a.Func == AggMin:
				if c, err := types.Compare(v, g.mins[i]); g.mins[i].IsNull() || err == nil && c < 0 {
					g.mins[i] = v
				}
			case a.Func == AggMax:
				if c, err := types.Compare(v, g.maxs[i]); g.maxs[i].IsNull() || err == nil && c > 0 {
					g.maxs[i] = v
				}
			}
		}
	}
	var res []types.Tuple
	for _, g := range groups {
		row := g.key.Clone()
		for i, a := range aggs {
			switch {
			case a.Func == AggCount && a.Ordinal < 0:
				row = append(row, types.NewInt(g.n))
			case a.Func == AggCount:
				row = append(row, types.NewInt(g.counts[i]))
			case a.Func == AggSum && out.Columns[len(groupBy)+i].Kind == types.KindInt:
				row = append(row, types.NewInt(g.isums[i]+int64(g.sums[i])))
			case a.Func == AggSum:
				row = append(row, types.NewFloat(g.sums[i]))
			case a.Func == AggAvg && g.counts[i] == 0:
				row = append(row, types.Null(types.KindFloat))
			case a.Func == AggAvg:
				row = append(row, types.NewFloat(g.sums[i]/float64(g.counts[i])))
			case a.Func == AggMin:
				row = append(row, g.mins[i])
			default:
				row = append(row, g.maxs[i])
			}
		}
		res = append(res, row)
	}
	sort.SliceStable(res, func(i, j int) bool {
		c, _ := types.CompareOn(res[i], res[j], allOrdinals(len(groupBy)))
		return c < 0
	})
	if len(groupBy) == 0 && len(res) == 0 {
		return nil // the operator's own empty-input row, checked apart
	}
	return res
}

func TestColumnHashAggregateMatchesLinearGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	aggs := []Aggregate{
		{Func: AggCount, Ordinal: -1}, {Func: AggCount, Ordinal: 4},
		{Func: AggSum, Ordinal: 0}, {Func: AggSum, Ordinal: 1}, {Func: AggAvg, Ordinal: 0},
		{Func: AggMin, Ordinal: 2}, {Func: AggMax, Ordinal: 1}, {Func: AggMin, Ordinal: 5},
	}
	for _, n := range sizes {
		rows := diffRows(rng, n)
		_, kept := selecting(rows, diffSchema(""))
		for _, groupBy := range [][]int{{1}, {0, 2}, {3}, {}} {
			build := func() Operator {
				in, _ := selecting(rows, diffSchema(""))
				h, err := NewHashAggregate(in, groupBy, aggs)
				if err != nil {
					t.Fatal(err)
				}
				return h
			}
			want := refAggregate(t, kept, groupBy, aggs, build().Schema())
			if len(groupBy) == 0 && len(kept) == 0 {
				got, err := Collect(context.Background(), build())
				if err != nil || len(got) != 1 {
					t.Fatalf("global aggregate over no rows: %v, %v", got, err)
				}
				continue
			}
			name := fmt.Sprintf("aggregate by %v over %d rows", groupBy, n)
			drainAt(t, name, build, want)
			if spilled := drainSpilled(t, name, build, want); len(groupBy) > 0 && len(kept) > 0 && spilled == 0 {
				t.Fatalf("%s did not spill", name)
			}
		}
	}
}

func TestColumnarScanMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	schema := types.NewSchema(
		types.Column{Name: "I", Kind: types.KindInt},
		types.Column{Name: "F", Kind: types.KindFloat},
		types.Column{Name: "S", Kind: types.KindString},
	)
	for _, n := range sizes {
		tbl, err := colstore.Create(t.TempDir(), "t", schema, colstore.Options{SegmentRows: 16})
		if err != nil {
			t.Fatal(err)
		}
		var rows []types.Tuple
		for _, r := range diffRows(rng, n) {
			f := r[1]
			if f.Kind() == types.KindInt || f.IsNull() { // validate wants FLOATs here
				f = types.NewFloat(2)
			}
			rows = append(rows, types.Tuple{r[0], f, r[2]})
		}
		if err := tbl.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
		for _, required := range [][]int{nil, {1}, {2, 0}} {
			var want []types.Tuple
			for _, r := range rows {
				row := r.Clone()
				for c := range row {
					if required != nil && !containsInt(required, c) {
						row[c] = types.Value{} // an unread column reads NULL
					}
				}
				want = append(want, row)
			}
			drainAt(t, fmt.Sprintf("scan of %v over %d rows", required, n), func() Operator {
				return NewColumnarScan(tbl, "", required, nil)
			}, want)
		}
		_ = tbl.Close()
	}
}

func containsInt(s []int, x int) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

// TestKeyHashAgreesWithCompare: cells that compare equal get one key hash,
// across INT and FLOAT, ±0, NaN payloads, the 2⁵³ triple, BOOLs, time
// series and NULLs of every kind. A series compares by the bits of its
// points, so two that differ only in a zero's sign or a NaN's payload are
// two keys, and hash apart.
func TestKeyHashAgreesWithCompare(t *testing.T) {
	nan2 := math.Float64frombits(0x7ff8_0000_dead_beef)
	series := []types.Value{
		types.NewTimeSeries(types.TimeSeries{1, 0, math.NaN()}),
		types.NewTimeSeries(types.TimeSeries{1, 0, math.NaN()}),
		types.NewTimeSeries(types.TimeSeries{1, math.Copysign(0, -1), math.NaN()}),
		types.NewTimeSeries(types.TimeSeries{1, 0, nan2}),
		types.NewTimeSeries(types.TimeSeries{}),
	}
	cells := append([]types.Value{
		types.NewInt(0), types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)),
		types.NewInt(2), types.NewFloat(2), types.NewInt(-7), types.NewFloat(-7),
		types.NewFloat(math.NaN()), types.NewFloat(nan2),
		types.NewInt(1 << 53), types.NewInt(1<<53 + 1), types.NewFloat(1 << 53),
		types.Null(types.KindInt), types.Null(types.KindString), types.Null(types.KindTimeSeries), types.Value{},
		types.NewString("tier-1"), types.NewString("a-longer-string-key"), types.NewBytes([]byte("tier-1")),
		types.NewBool(true), types.NewBool(true), types.NewBool(false), types.NewInt(1),
	}, series...)
	var b types.Batch
	b.Reset(1)
	for _, c := range cells {
		b.AppendRows(types.Tuple{c})
	}
	// The same cells again, but each in a vector of its own kind.
	hs := b.HashRows(b.Live(), []int{0}, nil)
	for i, x := range cells {
		var one types.Batch
		one.Reset(1)
		one.AppendRows(types.Tuple{x})
		h1 := one.HashRows(one.Live(), []int{0}, nil)[0]
		for j, y := range cells {
			if c, err := types.Compare(x, y); err == nil && c == 0 && hs[j] != h1 {
				t.Errorf("%v and %v compare equal but hash %x and %x", x, y, h1, hs[j])
			}
		}
		if h1 != hs[i] {
			t.Errorf("%v hashes %x alone and %x in a mixed vector", x, h1, hs[i])
		}
	}
	sh := hs[len(cells)-len(series):]
	if sh[0] != sh[1] || sh[0] == sh[2] || sh[0] == sh[3] || sh[2] == sh[3] {
		t.Errorf("series hashes %x: want the first two alike and the -0 and NaN-payload ones apart", sh)
	}
}

// TestSumIntExact: an INT SUM adds in int64, in memory and across a spill,
// where the group's partial state is flushed before its last row arrives.
func TestSumIntExact(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "G", Kind: types.KindInt}, types.Column{Name: "X", Kind: types.KindInt})
	rows := []types.Tuple{{types.NewInt(-1), types.NewInt(1 << 53)}}
	for i := 0; i < 4000; i++ { // filler groups that push the table over budget
		rows = append(rows, types.Tuple{types.NewInt(int64(i)), types.NewInt(1)})
	}
	rows = append(rows, types.Tuple{types.NewInt(-1), types.NewInt(1)})
	for _, budget := range []int64{0, 24 << 10} {
		tracker := NewMemTracker(budget)
		h, err := NewHashAggregate(NewValuesScan(schema, rows), []int{0}, []Aggregate{{Func: AggSum, Ordinal: 1}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Collect(WithMemTracker(context.Background(), tracker), h)
		if err != nil {
			t.Fatal(err)
		}
		if spilled := tracker.SpillEvents() > 0; spilled != (budget > 0) {
			t.Fatalf("budget %d: spilled %v", budget, spilled)
		}
		if sum, _ := got[0][1].Int(); sum != 1<<53+1 || got[0][1].Kind() != types.KindInt {
			t.Fatalf("budget %d: SUM = %v, want %d", budget, got[0][1], int64(1<<53+1))
		}
	}
}

// TestSumIntOverflow: an INT SUM that leaves int64 fails the query with
// ErrSumOverflow, in memory and across a spill, both ways round.
func TestSumIntOverflow(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "G", Kind: types.KindInt}, types.Column{Name: "X", Kind: types.KindInt})
	for _, ends := range [][2]int64{{math.MaxInt64, 1}, {math.MinInt64, -1}} {
		rows := []types.Tuple{{types.NewInt(-1), types.NewInt(ends[0])}}
		for i := 0; i < 4000; i++ {
			rows = append(rows, types.Tuple{types.NewInt(int64(i)), types.NewInt(1)})
		}
		rows = append(rows, types.Tuple{types.NewInt(-1), types.NewInt(ends[1])})
		for _, budget := range []int64{0, 24 << 10} {
			tracker := NewMemTracker(budget)
			h, err := NewHashAggregate(NewValuesScan(schema, rows), []int{0}, []Aggregate{{Func: AggSum, Ordinal: 1}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Collect(WithMemTracker(context.Background(), tracker), h); !errors.Is(err, ErrSumOverflow) {
				t.Fatalf("sum of %d and %d under budget %d: err %v, want ErrSumOverflow", ends[0], ends[1], budget, err)
			}
			if spilled := tracker.SpillEvents() > 0; spilled != (budget > 0) {
				t.Fatalf("budget %d: spilled %v", budget, spilled)
			}
		}
	}
}

// boundRecorder passes its input through, recording every bound it is
// asked for and failing a batch larger than its bound.
type boundRecorder struct {
	Operator
	t      *testing.T
	bounds map[int]int
}

func (r *boundRecorder) NextBatch(b *types.Batch) (int, error) {
	r.bounds[b.Max]++
	n, err := r.Operator.NextBatch(b)
	if n > b.Max || n != b.N {
		r.t.Errorf("a batch of %d rows (N %d) under a bound of %d", n, b.N, b.Max)
	}
	return n, err
}

// TestCallerBoundsEachCall: drivers ask for DefaultBatchSize rows, a
// semi-join at concurrency factor 1 pulls its input one row at a time, and
// no operator returns more rows than it was asked for.
func TestCallerBoundsEachCall(t *testing.T) {
	if DefaultBatchSize != 64 {
		t.Fatalf("DefaultBatchSize = %d, want 64", DefaultBatchSize)
	}
	rows := stockRows(20)
	in := &boundRecorder{Operator: NewValuesScan(stockSchema(), rows), t: t, bounds: map[int]int{}}
	naive, err := newNaive(in, fastLink(t), []UDFBinding{analysisBinding()})
	if err != nil {
		t.Fatal(err)
	}
	out := &boundRecorder{Operator: naive, t: t, bounds: map[int]int{}}
	if got, err := Collect(context.Background(), out); err != nil || len(got) != len(rows) {
		t.Fatalf("naive semi-join: %d rows, %v", len(got), err)
	}
	if len(in.bounds) != 1 || in.bounds[1] == 0 {
		t.Errorf("the naive semi-join pulled its input at bounds %v, want 1 only", in.bounds)
	}
	if len(out.bounds) != 1 || out.bounds[DefaultBatchSize] == 0 {
		t.Errorf("Collect pulled at bounds %v, want %d only", out.bounds, DefaultBatchSize)
	}
}

// TestHashJoinKeyEquality: NULL keys join NULL keys, as the tuple hash
// tables do, and an INT key joins an equal FLOAT key.
func TestHashJoinKeyEquality(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "K", Kind: types.KindFloat})
	left := []types.Tuple{{types.NewInt(2)}, {types.Null(types.KindInt)}, {types.NewInt(3)}}
	right := []types.Tuple{{types.NewFloat(2)}, {types.Null(types.KindFloat)}, {types.NewFloat(3.5)}}
	j, err := NewHashJoin(NewValuesScan(schema, left), NewValuesScan(schema, right), []int{0}, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	want := []types.Tuple{{types.NewInt(2), types.NewFloat(2)}, {types.Null(types.KindInt), types.Null(types.KindFloat)}}
	if !bytes.Equal(encodeAll(t, got), encodeAll(t, want)) {
		t.Fatalf("join = %v, want %v", got, want)
	}
}

// TestRetainedRowsChargedAlone: a hash join whose build keeps one row of a
// 4 096-row columnar segment is charged for that row, not the segment, and
// a filter above a scan charges nothing of its own.
func TestRetainedRowsChargedAlone(t *testing.T) {
	tbl, _ := colTestTable(t, 4096, 4096)
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	keep := expr.NewBinary(expr.OpEq, expr.NewBoundColumnRef(1, types.KindInt), expr.NewConst(types.NewInt(7)))
	build := NewFilter(NewColumnarScan(tbl, "", nil, nil), keep)
	j, err := NewHashJoin(NewValuesScan(spillSchema("l"), spillRows(10, 10, 1)), build, []int{0}, []int{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tracker := NewMemTracker(0)
	if err := j.Open(WithMemTracker(context.Background(), tracker)); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	// One row's three cells, its chain link and its chain's map entry.
	if want := int64(3*types.ValueMemSize + 4 + keyChainMemSize); j.build.rows.N != 1 || tracker.Used() > want {
		t.Fatalf("a build of %d rows is charged %d bytes, want one row's %d at most", j.build.rows.N, tracker.Used(), want)
	}
}

// TestKeyRowMemSizeIsTheCharge: what a keyTable charges for rows of distinct
// keys is KeyRowMemSize a row, the figure the planner estimates with.
func TestKeyRowMemSizeIsTheCharge(t *testing.T) {
	var b types.Batch
	b.Reset(4)
	for i := 0; i < 64; i++ {
		b.AppendRows(types.Tuple{types.NewInt(int64(i)), types.NewFloat(float64(i) / 2), types.NewString(fmt.Sprintf("k%03d", i)), types.NewBool(i%2 == 0)})
	}
	var tab keyTable
	tab.reset(4, []int{0, 1, 2})
	live := b.Live()
	got := tab.add(&b, live, nil, b.HashRows(live, []int{0, 1, 2}, nil))
	kinds := []types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindBool}
	if want := 64 * KeyRowMemSize(kinds, 4); float64(got) != want {
		t.Errorf("64 rows charged %d B, KeyRowMemSize says %g", got, want)
	}
}
