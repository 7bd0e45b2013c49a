package exec

import (
	"cmp"
	"context"
	"fmt"

	"csq/internal/expr"
	"csq/internal/types"
)

// Filter drops tuples that do not satisfy a bound predicate. The predicate
// must be evaluable at the server (no client-site UDF calls); client-site
// predicates are handled by the dedicated UDF operators.
// It narrows its input's selection vector: leading column-vs-constant
// conjuncts run over the column's cells while its kind makes the comparison
// one that cannot fail, and the conjuncts left run row by row.
type Filter struct {
	baseState
	input   Operator
	pred    expr.Expr
	kernels []colConst             // the leading column-vs-constant conjuncts
	only    bool                   // whether they are all the conjuncts
	rest    map[int]expr.Predicate // the conjuncts from k on, compiled when first needed
	row     types.Tuple
}

// colConst is a conjunct: column col compared with the constant k by op.
type colConst struct {
	col int
	k   types.Value
	op  expr.Op
}

// NewFilter wraps input with the predicate.
func NewFilter(input Operator, pred expr.Expr) *Filter {
	return &Filter{input: input, pred: pred}
}

// Schema implements Operator.
func (f *Filter) Schema() *types.Schema { return f.input.Schema() }

// Open implements Operator.
func (f *Filter) Open(ctx context.Context) error {
	if f.pred != nil && expr.HasClientCall(f.pred) {
		return fmt.Errorf("exec: Filter predicate %s contains a client-site UDF; plan it with a client-site operator", f.pred)
	}
	if err := f.input.Open(ctx); err != nil {
		return err
	}
	f.kernels, f.rest = make([]colConst, 0, 4), map[int]expr.Predicate{}
	f.only = f.lead(f.pred)
	f.markOpen(ctx)
	return nil
}

// lead appends e's leading column-vs-constant conjuncts to the kernels and
// reports whether every conjunct of e is one.
func (f *Filter) lead(e expr.Expr) bool {
	b, _ := e.(*expr.Binary)
	if b != nil && b.Op == expr.OpAnd {
		return f.lead(b.Left) && f.lead(b.Right)
	}
	col, k, op, ok := expr.SplitColConstComparison(b)
	if ok = ok && col >= 0 && !k.IsNull(); ok {
		f.kernels = append(f.kernels, colConst{col: col, k: k, op: op})
	}
	return ok || e == nil
}

// NextBatch implements Operator: it pulls child batches and narrows their
// selection to the qualifying rows, retrying until at least one row
// qualifies or the input is exhausted.
func (f *Filter) NextBatch(b *types.Batch) (int, error) {
	for {
		// A selective predicate can spin this loop over many empty child
		// batches; re-check the query context each attempt so cancellation
		// stops the scan instead of riding it to the end of the input.
		if err := f.checkOpen(); err != nil {
			return 0, err
		}
		n, err := f.input.NextBatch(b)
		if err != nil || n == 0 {
			return 0, err
		}
		live, k := b.Live(), 0
		for ; k < len(f.kernels) && f.kernels[k].fits(b); k++ {
			live = f.kernels[k].keep(&b.Cols[f.kernels[k].col], live)
		}
		if k < len(f.kernels) || !f.only {
			if f.rest[k] == nil {
				f.rest[k] = expr.CompilePredicate(&expr.Evaluator{}, expr.Conjoin(expr.Conjuncts(f.pred)[k:]))
			}
			keep := live[:0]
			for _, r := range live {
				f.row = b.Row(r, f.row[:0])
				if ok, err := f.rest[k](f.row); err != nil {
					return 0, err
				} else if ok {
					keep = append(keep, r)
				}
			}
			live = keep
		}
		if len(live) > 0 {
			b.Sel, b.N = live, len(live)
			return b.N, nil
		}
	}
}

// fits reports whether the conjunct compares b's column without error: a
// numeric column with a numeric constant, or a comparable kind with itself.
func (c colConst) fits(b *types.Batch) bool {
	if c.col >= len(b.Cols) {
		return false
	}
	k := b.Cols[c.col].Kind
	return k.Numeric() && c.k.Kind().Numeric() || k.Comparable() && k == c.k.Kind()
}

// keep compacts rows to those whose cell of v satisfies the conjunct; a NULL
// cell never does.
func (c colConst) keep(v *types.Vec, rows []int) []int {
	out := rows[:0]
	if k, err := c.k.Int(); err == nil && v.Kind == types.KindInt && c.k.Kind() == types.KindInt {
		for _, r := range rows {
			if c.op.Holds(cmp.Compare(v.Ints[r], k)) && (len(v.Nulls) == 0 || !v.Null(r)) {
				out = append(out, r)
			}
		}
		return out
	}
	for _, r := range rows {
		if x := v.Value(r); !x.IsNull() {
			if d, _ := types.Compare(x, c.k); c.op.Holds(d) {
				out = append(out, r)
			}
		}
	}
	return out
}

// Close implements Operator.
func (f *Filter) Close() error {
	f.closed = true
	return f.input.Close()
}

// ProjectOrdinals is a cheap positional projection (no expression
// evaluation); it is what pushable projections compile to. It reorders its
// input's column headers and copies no cell.
type ProjectOrdinals struct {
	baseState
	input    Operator
	ordinals []int
	schema   *types.Schema
	cols     []types.Vec
}

// NewProjectOrdinals projects the input onto the given column positions.
func NewProjectOrdinals(input Operator, ordinals []int) (*ProjectOrdinals, error) {
	schema, err := input.Schema().Project(ordinals)
	if err != nil {
		return nil, err
	}
	return &ProjectOrdinals{input: input, ordinals: ordinals, schema: schema}, nil
}

// Schema implements Operator.
func (p *ProjectOrdinals) Schema() *types.Schema { return p.schema }

// Open implements Operator.
func (p *ProjectOrdinals) Open(ctx context.Context) error {
	if err := p.input.Open(ctx); err != nil {
		return err
	}
	p.markOpen(ctx)
	return nil
}

// NextBatch implements Operator.
func (p *ProjectOrdinals) NextBatch(b *types.Batch) (int, error) {
	if err := p.checkOpen(); err != nil {
		return 0, err
	}
	n, err := p.input.NextBatch(b)
	if err != nil || n == 0 {
		return 0, err
	}
	p.cols = append(p.cols[:0], b.Cols...)
	b.Cols = b.Cols[:0]
	for _, o := range p.ordinals {
		b.Cols = append(b.Cols, p.cols[o])
	}
	return n, nil
}

// Close implements Operator.
func (p *ProjectOrdinals) Close() error {
	p.closed = true
	return p.input.Close()
}

func allOrdinals(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Unwrap implements Unwrapper for stats aggregation (NetStatsOf).
func (f *Filter) Unwrap() Operator { return f.input }

// Unwrap implements Unwrapper for stats aggregation (NetStatsOf).
func (p *ProjectOrdinals) Unwrap() Operator { return p.input }
