package plan

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"csq/internal/client"
	"csq/internal/exec"
	"csq/internal/expr"
	"csq/internal/logical"
	"csq/internal/netsim"
	"csq/internal/types"
)

// Property test: lowering any logical tree generated from a small shape
// grammar produces results byte-identical to the equivalent hand-built exec
// operator tree, drained in default-size batches and one row at a time. The grammar
// covers every IR node; the mirror construction is deliberately naive (naive
// UDF operator, no pushdown), so the comparison exercises the rewriter's
// semantics preservation as well as the lowering itself.

// propRuntime hosts deterministic integer UDFs for the generated trees.
func propRuntime(t testing.TB) *client.Runtime {
	t.Helper()
	rt := client.NewRuntime()
	if err := rt.Register(&client.Func{
		Name:       "Inc",
		ArgKinds:   []types.Kind{types.KindInt},
		ResultKind: types.KindInt,
		ResultSize: 10,
		Body: func(args []types.Value) (types.Value, error) {
			v, err := args[0].Int()
			if err != nil {
				return types.Value{}, err
			}
			return types.NewInt(v + 1), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Register(&client.Func{
		Name:        "IsOdd",
		ArgKinds:    []types.Kind{types.KindInt},
		ResultKind:  types.KindBool,
		ResultSize:  3,
		Selectivity: 0.5,
		Body: func(args []types.Value) (types.Value, error) {
			v, err := args[0].Int()
			if err != nil {
				return types.Value{}, err
			}
			return types.NewBool(v%2 != 0), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	return rt
}

// propGen builds a logical tree and its hand-built exec mirror in lockstep.
type propGen struct {
	r    *rand.Rand
	link exec.ClientLink
}

// pair is one grammar production: the logical node and its direct mirror.
type pair struct {
	node   logical.Node
	direct func() (exec.Operator, error) // fresh mirror operator per call
}

func (g *propGen) leaf() pair {
	schema := types.NewSchema(
		types.Column{Name: "A", Kind: types.KindInt},
		types.Column{Name: "B", Kind: types.KindInt},
		types.Column{Name: "S", Kind: types.KindString},
	)
	n := g.r.Intn(30)
	rows := make([]types.Tuple, n)
	tags := []string{"x", "y", "z"}
	for i := range rows {
		rows[i] = types.NewTuple(
			types.NewInt(int64(g.r.Intn(6))),
			types.NewInt(int64(g.r.Intn(4))),
			types.NewString(tags[g.r.Intn(len(tags))]),
		)
	}
	v, err := rowsScan("v", schema, rows)
	if err != nil {
		panic(err)
	}
	return pair{
		node:   v,
		direct: func() (exec.Operator, error) { return rowsOp(schema, rows), nil },
	}
}

// intCols returns the ordinals of integer columns in the schema.
func intCols(s *types.Schema) []int {
	var out []int
	for i, c := range s.Columns {
		if c.Kind == types.KindInt {
			out = append(out, i)
		}
	}
	return out
}

func (g *propGen) tree(depth int) (pair, error) {
	if depth <= 0 {
		return g.leaf(), nil
	}
	in, err := g.tree(depth - 1)
	if err != nil {
		return pair{}, err
	}
	schema := in.node.Schema()
	ints := intCols(schema)
	switch g.r.Intn(6) {
	case 0: // filter on an int column
		if len(ints) == 0 {
			return in, nil
		}
		col := ints[g.r.Intn(len(ints))]
		pred := expr.NewBinary(expr.OpLe,
			expr.NewBoundColumnRef(col, types.KindInt),
			expr.NewConst(types.NewInt(int64(g.r.Intn(6)))))
		n, err := logical.NewFilter(in.node, pred)
		if err != nil {
			return pair{}, err
		}
		return pair{node: n, direct: func() (exec.Operator, error) {
			op, err := in.direct()
			if err != nil {
				return nil, err
			}
			return exec.NewFilter(op, pred), nil
		}}, nil
	case 1: // positional projection (random non-empty subset, shuffled)
		perm := g.r.Perm(schema.Len())
		ords := perm[:1+g.r.Intn(schema.Len())]
		n, err := logical.NewProject(in.node, ords)
		if err != nil {
			return pair{}, err
		}
		return pair{node: n, direct: func() (exec.Operator, error) {
			op, err := in.direct()
			if err != nil {
				return nil, err
			}
			return exec.NewProjectOrdinals(op, ords)
		}}, nil
	case 2: // join with a fresh leaf on the first int columns
		if len(ints) == 0 {
			return in, nil
		}
		right := g.leaf()
		rightInts := intCols(right.node.Schema())
		lk, rk := []int{ints[0]}, []int{rightInts[0]}
		n, err := logical.NewJoin(in.node, right.node, lk, rk, nil)
		if err != nil {
			return pair{}, err
		}
		return pair{node: n, direct: func() (exec.Operator, error) {
			l, err := in.direct()
			if err != nil {
				return nil, err
			}
			r, err := right.direct()
			if err != nil {
				return nil, err
			}
			return exec.NewHashJoin(l, r, lk, rk, nil)
		}}, nil
	case 3: // aggregate: group by first column, COUNT(*) + SUM(first int)
		if len(ints) == 0 {
			return in, nil
		}
		groupBy := []int{0}
		aggs := []exec.Aggregate{
			{Func: exec.AggCount, Ordinal: -1, Name: "n"},
			{Func: exec.AggSum, Ordinal: ints[0], Name: "s"},
		}
		n, err := logical.NewAggregate(in.node, groupBy, aggs)
		if err != nil {
			return pair{}, err
		}
		return pair{node: n, direct: func() (exec.Operator, error) {
			op, err := in.direct()
			if err != nil {
				return nil, err
			}
			return exec.NewHashAggregate(op, groupBy, aggs)
		}}, nil
	case 4, 5: // UDF application over the first int column
		if len(ints) == 0 {
			return in, nil
		}
		udfs := []exec.UDFBinding{{Name: "Inc", ArgOrdinals: []int{ints[0]}, ResultKind: types.KindInt}}
		if g.r.Intn(2) == 0 {
			udfs = append(udfs, exec.UDFBinding{Name: "IsOdd", ArgOrdinals: []int{ints[0]}, ResultKind: types.KindBool})
		}
		n, err := logical.NewUDFApply(in.node, udfs)
		if err != nil {
			return pair{}, err
		}
		link := g.link
		return pair{node: n, direct: func() (exec.Operator, error) {
			op, err := in.direct()
			if err != nil {
				return nil, err
			}
			return newNaive(op, link, udfs)
		}}, nil
	default:
		return in, nil
	}
}

// collectOneByOne drains op one row per NextBatch call.
func collectOneByOne(t *testing.T, op exec.Operator) []string {
	t.Helper()
	if err := op.Open(context.Background()); err != nil {
		_ = op.Close()
		t.Fatal(err)
	}
	var out []types.Tuple
	row := &types.Batch{Max: 1}
	for {
		n, err := op.NextBatch(row)
		if err != nil {
			_ = op.Close()
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		out = append(out, row.Tuples()...)
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	return tupleKeys(t, out)
}

func TestLoweringMatchesDirectConstructionProperty(t *testing.T) {
	rt := propRuntime(t)
	cat := testCatalog(t, rt)
	link := exec.NewInProcessLink(rt, netsim.LinkConfig{})
	p := NewPlanner(link)
	// A fixed observation keeps the property deterministic and skips per-tree
	// probing; an unmeasured link would do too, it just exercises less.
	p.Config.Link = &exec.LinkObservation{Asymmetry: 1}

	const trees = 60
	for seed := 0; seed < trees; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := &propGen{r: rand.New(rand.NewSource(int64(seed))), link: link}
			pr, err := g.tree(2 + g.r.Intn(3))
			if err != nil {
				t.Fatalf("generating tree: %v", err)
			}
			direct, err := pr.direct()
			if err != nil {
				t.Fatalf("direct construction: %v", err)
			}
			want := mustCollect(t, direct)

			tp, err := p.PlanTree(context.Background(), pr.node, cat)
			if err != nil {
				t.Fatalf("planning %s: %v", pr.node, err)
			}
			batchOp, err := tp.NewOperator()
			if err != nil {
				t.Fatalf("lowering (batch): %v", err)
			}
			got := mustCollect(t, batchOp)
			requireSameRows(t, got, want, "batch path\n"+logical.Format(tp.Root))

			oneOp, err := tp.NewOperator()
			if err != nil {
				t.Fatalf("lowering (batch size 1): %v", err)
			}
			gotOne := collectOneByOne(t, oneOp)
			requireSameRows(t, gotOne, want, "batch size 1\n"+logical.Format(tp.Root))
		})
	}
}
