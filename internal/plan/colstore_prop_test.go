package plan

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"csq/internal/catalog"
	"csq/internal/client"
	"csq/internal/exec"
	"csq/internal/expr"
	"csq/internal/logical"
	"csq/internal/netsim"
	"csq/internal/storage"
	"csq/internal/storage/colstore"
	"csq/internal/types"
)

// Property test: any query tree generated from the PR-4 shape grammar,
// rooted at a table scan, returns byte-identical results whether the table is
// a row-store HeapTable or a disk-backed columnar table — across all three
// client-site strategies and under a spill-inducing memory budget. The
// columnar path differs from the heap path in every layer this test crosses
// (zone-map pruning, required-column materialization, per-segment decode,
// memory charging), so identity here pins the engine's core contract: the
// storage format is invisible to results.

// colPropSchema is the shared table layout; A grows monotonically with
// insertion order so its zone maps actually prune range predicates.
func colPropSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "A", Kind: types.KindInt},
		types.Column{Name: "B", Kind: types.KindInt},
		types.Column{Name: "S", Kind: types.KindString},
	)
}

func colPropRows(n int) []types.Tuple {
	r := rand.New(rand.NewSource(7))
	tags := []string{"x", "y", "z"}
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.NewTuple(
			types.NewInt(int64(i/8)),
			types.NewInt(int64(r.Intn(4))),
			types.NewString(tags[r.Intn(len(tags))]),
		)
	}
	return rows
}

// colPropTree grows a query tree above a scan from the shape grammar's
// productions: prunable filters, positional projections, aggregates, joins
// against generated leaves or a second scan, and UDF applications. scan
// builds a fresh scan of the table.
func colPropTree(r *rand.Rand, scan func() logical.Node, depth int) (logical.Node, error) {
	node := scan()
	for step := 0; step < depth; step++ {
		schema := node.Schema()
		ints := intCols(schema)
		var err error
		switch r.Intn(5) {
		case 0: // comparison filter on an int column (prunable when above the scan)
			if len(ints) == 0 {
				continue
			}
			col := ints[r.Intn(len(ints))]
			ops := []expr.Op{expr.OpLe, expr.OpGt, expr.OpEq}
			pred := expr.NewBinary(ops[r.Intn(len(ops))],
				expr.NewBoundColumnRef(col, types.KindInt),
				expr.NewConst(types.NewInt(int64(r.Intn(30)))))
			node, err = logical.NewFilter(node, pred)
		case 1: // positional projection (random non-empty subset, shuffled)
			perm := r.Perm(schema.Len())
			node, err = logical.NewProject(node, perm[:1+r.Intn(schema.Len())])
		case 2: // join with a generated leaf or a second scan, keys in any layout
			if len(ints) == 0 {
				continue
			}
			node, err = colPropJoin(r, node, ints, scan)
		case 3: // aggregate: COUNT(*), with or without a group-by column and a SUM
			aggs := []exec.Aggregate{{Func: exec.AggCount, Ordinal: -1, Name: "n"}}
			if len(ints) > 0 && r.Intn(2) == 0 {
				aggs = append(aggs, exec.Aggregate{Func: exec.AggSum, Ordinal: ints[r.Intn(len(ints))], Name: "s"})
			}
			var groupBy []int
			if r.Intn(3) > 0 {
				groupBy = []int{r.Intn(schema.Len())}
			}
			node, err = logical.NewAggregate(node, groupBy, aggs)
		case 4: // UDF application over int columns
			if len(ints) == 0 {
				continue
			}
			udfs := []exec.UDFBinding{{Name: "Inc", ArgOrdinals: []int{ints[r.Intn(len(ints))]}, ResultKind: types.KindInt}}
			if r.Intn(2) == 0 {
				udfs = append(udfs, exec.UDFBinding{Name: "IsOdd", ArgOrdinals: []int{ints[r.Intn(len(ints))]}, ResultKind: types.KindBool})
			}
			node, err = logical.NewUDFApply(node, udfs)
		}
		if err != nil {
			return nil, err
		}
	}
	return node, nil
}

// colPropJoin joins node with a three-column relation whose int columns are
// base ordinals 0 and 1: a generated leaf (K, V, T) or a second scan of the
// table (A, B, S). The relation's columns are laid out by a cyclic rotation
// or a random shuffle, so the right key can sit at any position, and the
// left keys are drawn from any int columns, one or two of them.
func colPropJoin(r *rand.Rand, node logical.Node, ints []int, scan func() logical.Node) (logical.Node, error) {
	var base logical.Node
	if r.Intn(2) == 0 {
		n := 1 + r.Intn(12)
		rows := make([]types.Tuple, n)
		for i := range rows {
			rows[i] = types.NewTuple(
				types.NewInt(int64(r.Intn(6))),
				types.NewInt(int64(r.Intn(4))),
				types.NewString(fmt.Sprintf("t%d", i%3)),
			)
		}
		leaf, err := rowsScan("v", types.NewSchema(
			types.Column{Name: "K", Kind: types.KindInt},
			types.Column{Name: "V", Kind: types.KindInt},
			types.Column{Name: "T", Kind: types.KindString},
		), rows)
		if err != nil {
			return nil, err
		}
		base = leaf
	} else {
		base = scan()
	}
	layout := r.Perm(3)
	if r.Intn(2) == 0 {
		shift := r.Intn(3)
		for i := range layout {
			layout[i] = (i + shift) % 3
		}
	}
	right, err := logical.NewProject(base, layout)
	if err != nil {
		return nil, err
	}
	posOf := func(baseCol int) int { return slices.Index(layout, baseCol) }
	leftKeys, rightKeys := []int{ints[r.Intn(len(ints))]}, []int{posOf(0)}
	if r.Intn(3) == 0 {
		leftKeys = append(leftKeys, ints[r.Intn(len(ints))])
		rightKeys = append(rightKeys, posOf(1))
	}
	return logical.NewJoin(node, right, leftKeys, rightKeys, nil)
}

// collectBudgeted runs the operator under a spill-inducing soft budget and
// returns the row keys.
func collectBudgeted(t *testing.T, op exec.Operator, budget int64) []string {
	t.Helper()
	tracker := exec.NewMemTracker(budget)
	tracker.SetTempDir(t.TempDir())
	ctx := exec.WithMemTracker(context.Background(), tracker)
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	var out []types.Tuple
	batch := &types.Batch{Max: exec.DefaultBatchSize}
	for {
		n, err := op.NextBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		out = append(out, batch.Tuples()...)
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	return tupleKeys(t, out)
}

// colPropCatalogs returns two catalogs holding the same 240-row table t:
// one as a row-store heap, one as a columnar table of 7 segments and a
// 16-row tail.
func colPropCatalogs(t *testing.T, rt *client.Runtime) (heapCat, colCat *catalog.Catalog) {
	t.Helper()
	const tableRows = 240
	rows := colPropRows(tableRows)
	schema := colPropSchema()

	heap, err := storage.NewHeapTable("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if err := heap.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	col, err := colstore.Create(t.TempDir(), "t", schema, colstore.Options{SegmentRows: 32})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = col.Close() })
	if err := col.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}

	catFor := func(data any) *catalog.Catalog {
		cat := testCatalog(t, rt)
		if err := cat.AddTable(&catalog.Table{
			Name: "t", Schema: schema,
			Stats: catalog.TableStats{RowCount: tableRows, AvgRowSize: 24},
			Data:  data,
		}); err != nil {
			t.Fatal(err)
		}
		return cat
	}
	return catFor(heap), catFor(col)
}

// Small enough that aggregates and joins over 240 rows spill.
const colPropBudget = 2048

// colPropPlan plans the tree with a fresh planner under colPropBudget.
func colPropPlan(t *testing.T, link exec.ClientLink, tree logical.Node, cat *catalog.Catalog) *TreePlan {
	t.Helper()
	p := NewPlanner(link)
	p.Config.Link = &exec.LinkObservation{Asymmetry: 1}
	p.Config.MemBudget = colPropBudget
	tp, err := p.PlanTree(context.Background(), tree, cat)
	if err != nil {
		t.Fatalf("planning %s: %v", logical.Format(tree), err)
	}
	return tp
}

// colPropRun executes the plan with every UDF application forced to s.
func colPropRun(t *testing.T, tp *TreePlan, s Strategy) []string {
	t.Helper()
	for _, ap := range tp.Applies {
		ap.Decision.Strategy = s
	}
	op, err := tp.NewOperator()
	if err != nil {
		t.Fatalf("lowering with %s: %v", s, err)
	}
	return collectBudgeted(t, op, colPropBudget)
}

var colPropStrategies = []Strategy{StrategyNaive, StrategySemiJoin, StrategyClientJoin}

func TestColumnarMatchesHeapProperty(t *testing.T) {
	rt := propRuntime(t)
	link := exec.NewInProcessLink(rt, netsim.LinkConfig{})
	heapCat, colCat := colPropCatalogs(t, rt)

	const trees = 30
	for seed := 0; seed < trees; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			heapPlan := colPropPlan(t, link, colPropBuild(t, heapCat, seed), heapCat)
			colPlan := colPropPlan(t, link, colPropBuild(t, colCat, seed), colCat)
			for _, s := range colPropStrategies {
				want := colPropRun(t, heapPlan, s)
				got := colPropRun(t, colPlan, s)
				requireSameRows(t, got, want,
					fmt.Sprintf("strategy %s\n%s", s, logical.Format(colPlan.Root)))
			}
		})
	}
}

// TestColumnDemandProperty holds the rewriter's column-demand pass to the
// columnar grammar, whose joins draw their keys in cyclic and shuffled
// layouts: rewriting the pass's output changes nothing, and the pruned plan
// answers exactly as the same rewrite without the pass, although every
// column a scan was told not to read holds a non-NULL sentinel.
func TestColumnDemandProperty(t *testing.T) {
	rt := propRuntime(t)
	link := exec.NewInProcessLink(rt, netsim.LinkConfig{})
	_, cat := colPropCatalogs(t, rt)
	fillUnread(t)

	const trees = 100
	for seed := 0; seed < trees; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			pruned := colPropPlan(t, link, colPropBuild(t, cat, seed), cat)
			again, err := logical.Rewrite(pruned.Root)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := logical.Format(again), logical.Format(pruned.Root); got != want {
				t.Fatalf("rewrite is not idempotent:\n%s\nrewrites to\n%s", want, got)
			}
			unpruned := planWithoutPass(t, link, colPropBuild(t, cat, seed), cat)
			for _, s := range colPropStrategies {
				requireSameRows(t, colPropRun(t, pruned, s), colPropRun(t, unpruned, s),
					fmt.Sprintf("strategy %s, pruned plan\n%s\nunpruned plan\n%s",
						s, logical.Format(pruned.Root), logical.Format(unpruned.Root)))
			}
		})
	}
}

// planWithoutPass plans the tree through the rewrite rules alone, skipping
// the column-demand pass.
func planWithoutPass(t *testing.T, link exec.ClientLink, tree logical.Node, cat *catalog.Catalog) *TreePlan {
	t.Helper()
	rewrite = func(root logical.Node) (logical.Node, error) {
		return logical.RewriteWith(root, logical.DefaultRules())
	}
	defer func() { rewrite = logical.Rewrite }()
	return colPropPlan(t, link, tree, cat)
}

// fillUnread makes every columnar scan lowered until the test ends fill the
// columns outside its Required set with a sentinel, so a plan that reads a
// column the column-demand pass dropped gets a wrong answer instead of a
// NULL.
func fillUnread(t *testing.T) {
	prev := columnarScan
	t.Cleanup(func() { columnarScan = prev })
	columnarScan = func(ct *colstore.Table, sc *logical.Scan) exec.Operator {
		return &sentinelScan{Operator: prev(ct, sc), required: sc.Required}
	}
}

// sentinelScan overwrites the unrequired columns of each row it passes up
// with a value unique to the row, so a grouping on a dropped
// column keeps every row. It copies the rows into columns of its own first:
// a columnar scan hands out windows of its decoded vectors.
type sentinelScan struct {
	exec.Operator
	required []int
	rows     int
	out      types.Batch
}

func (s *sentinelScan) NextBatch(b *types.Batch) (int, error) {
	n, err := s.Operator.NextBatch(b)
	if s.required == nil || n == 0 {
		return n, err
	}
	s.out.Reset(len(b.Cols))
	for _, row := range b.Tuples() {
		for c := range row {
			if !slices.Contains(s.required, c) {
				row[c] = types.NewString(fmt.Sprintf("unread%d", s.rows))
			}
		}
		s.out.AppendRows(row)
		s.rows++
	}
	b.View(s.out.Cols, s.out.N)
	return n, err
}

// colPropBuild draws the seed's tree over table t of the catalog.
func colPropBuild(t *testing.T, cat *catalog.Catalog, seed int) logical.Node {
	t.Helper()
	r := rand.New(rand.NewSource(int64(seed)))
	scan := func() logical.Node {
		sc, err := scanByName(cat, "t", "")
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	node, err := colPropTree(r, scan, 2+r.Intn(4))
	if err != nil {
		t.Fatal(err)
	}
	return node
}
