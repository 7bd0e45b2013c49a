package exec

import (
	"context"
	"fmt"

	"csq/internal/expr"
	"csq/internal/types"
)

// Filter drops tuples that do not satisfy a bound predicate. The predicate
// must be evaluable at the server (no client-site UDF calls); client-site
// predicates are handled by the dedicated UDF operators.
type Filter struct {
	baseState
	input   Operator
	pred    expr.Expr
	match   expr.Predicate // pred, compiled at Open
	scratch []types.Tuple
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
	f.match = expr.CompilePredicate(&expr.Evaluator{}, f.pred)
	f.markOpen(ctx)
	return nil
}

// NextBatch implements Operator: it pulls child batches and compacts the
// qualifying tuples into dst, retrying until at least one tuple qualifies or
// the input is exhausted.
func (f *Filter) NextBatch(dst []types.Tuple) (int, error) {
	if err := f.checkOpen(); err != nil {
		return 0, err
	}
	if cap(f.scratch) < len(dst) {
		f.scratch = make([]types.Tuple, len(dst))
	}
	in := f.scratch[:len(dst)]
	for {
		// A selective predicate can spin this loop over many empty child
		// batches; re-check the query context each attempt so cancellation
		// stops the scan instead of riding it to the end of the input.
		if err := f.checkOpen(); err != nil {
			return 0, err
		}
		n, err := f.input.NextBatch(in)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			return 0, nil
		}
		out := 0
		for _, t := range in[:n] {
			keep, err := f.match(t)
			if err != nil {
				return out, err
			}
			if keep {
				dst[out] = t
				out++
			}
		}
		if out > 0 {
			return out, nil
		}
	}
}

// Close implements Operator.
func (f *Filter) Close() error {
	f.closed = true
	return f.input.Close()
}

// ProjectOrdinals is a cheap positional projection (no expression
// evaluation); it is what pushable projections compile to.
type ProjectOrdinals struct {
	baseState
	input    Operator
	ordinals []int
	schema   *types.Schema
	scratch  []types.Tuple
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

// NextBatch implements Operator: all output tuples of one batch share a
// single backing arena.
func (p *ProjectOrdinals) NextBatch(dst []types.Tuple) (int, error) {
	if err := p.checkOpen(); err != nil {
		return 0, err
	}
	if cap(p.scratch) < len(dst) {
		p.scratch = make([]types.Tuple, len(dst))
	}
	in := p.scratch[:len(dst)]
	n, err := p.input.NextBatch(in)
	if err != nil || n == 0 {
		return 0, err
	}
	arena := make([]types.Value, 0, n*len(p.ordinals))
	for i, t := range in[:n] {
		var out types.Tuple
		arena, out, err = types.ProjectInto(arena, t, p.ordinals)
		if err != nil {
			return i, err
		}
		dst[i] = out
	}
	return n, nil
}

// Close implements Operator.
func (p *ProjectOrdinals) Close() error {
	p.closed = true
	return p.input.Close()
}

// Limit stops the stream after n tuples.
type Limit struct {
	baseState
	input Operator
	n     int
	seen  int
}

// NewLimit caps the input at n tuples.
func NewLimit(input Operator, n int) *Limit { return &Limit{input: input, n: n} }

// Schema implements Operator.
func (l *Limit) Schema() *types.Schema { return l.input.Schema() }

// Open implements Operator.
func (l *Limit) Open(ctx context.Context) error {
	if l.n < 0 {
		return fmt.Errorf("exec: negative limit %d", l.n)
	}
	if err := l.input.Open(ctx); err != nil {
		return err
	}
	l.seen = 0
	l.markOpen(ctx)
	return nil
}

// NextBatch implements Operator: it narrows the requested batch to the
// remaining quota so the input is never over-consumed.
func (l *Limit) NextBatch(dst []types.Tuple) (int, error) {
	if err := l.checkOpen(); err != nil {
		return 0, err
	}
	remaining := l.n - l.seen
	if remaining <= 0 {
		return 0, nil
	}
	if len(dst) > remaining {
		dst = dst[:remaining]
	}
	n, err := l.input.NextBatch(dst)
	l.seen += n
	return n, err
}

// Close implements Operator.
func (l *Limit) Close() error {
	l.closed = true
	return l.input.Close()
}

// Distinct eliminates duplicate tuples on the given key ordinals (all columns
// when nil). It corresponds to the server-site duplicate elimination the
// semi-join performs on argument columns (the paper's step 0).
type Distinct struct {
	baseState
	input    Operator
	ordinals []int
	seen     *tupleSet
	mem      memAccount // duplicate-set memory charge
	scratch  []types.Tuple
}

// NewDistinct wraps input with duplicate elimination on the ordinals.
func NewDistinct(input Operator, ordinals []int) *Distinct {
	return &Distinct{input: input, ordinals: ordinals}
}

// Schema implements Operator.
func (d *Distinct) Schema() *types.Schema { return d.input.Schema() }

// Open implements Operator.
func (d *Distinct) Open(ctx context.Context) error {
	if err := d.input.Open(ctx); err != nil {
		return err
	}
	d.seen = newTupleSet(d.ordinals)
	d.mem = memAccount{t: MemTrackerFrom(ctx)}
	d.markOpen(ctx)
	return nil
}

// NextBatch implements Operator: it pulls child batches and compacts the
// first-seen tuples into dst.
func (d *Distinct) NextBatch(dst []types.Tuple) (int, error) {
	if err := d.checkOpen(); err != nil {
		return 0, err
	}
	if cap(d.scratch) < len(dst) {
		d.scratch = make([]types.Tuple, len(dst))
	}
	in := d.scratch[:len(dst)]
	for {
		// Duplicate-heavy inputs can spin this loop over many batches that
		// compact to nothing; re-check the query context each attempt so
		// cancellation stops the scan promptly.
		if err := d.checkOpen(); err != nil {
			return 0, err
		}
		n, err := d.input.NextBatch(in)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			return 0, nil
		}
		out := 0
		for _, t := range in[:n] {
			if added, _ := d.seen.add(t); added {
				if err := d.mem.grow(tupleMemSize(t)); err != nil {
					return out, err
				}
				dst[out] = t
				out++
			}
		}
		if out > 0 {
			return out, nil
		}
	}
}

// Close implements Operator.
func (d *Distinct) Close() error {
	d.closed = true
	d.seen = nil
	d.mem.releaseAll()
	return d.input.Close()
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

// Unwrap implements Unwrapper for stats aggregation (NetStatsOf).
func (l *Limit) Unwrap() Operator { return l.input }

// Unwrap implements Unwrapper for stats aggregation (NetStatsOf).
func (d *Distinct) Unwrap() Operator { return d.input }
