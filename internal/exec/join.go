package exec

import (
	"context"
	"fmt"

	"csq/internal/expr"
	"csq/internal/types"
)

// HashJoin is an equi-join: it builds a hash table over the right (inner)
// input keyed on RightKeys and probes it with the left (outer) input keyed on
// LeftKeys. The output is the concatenation of the left and right tuples.
// The build is a keyTable of the right rows; a probe walks every row of a
// left row's chain comparing key cells by value (types.Compare == 0: NULL
// keys join NULL keys, INT keys equal FLOAT ones) and gathers the matches'
// cells into output columns, left row by left row and each one's matches in
// build order.
type HashJoin struct {
	baseState
	left, right Operator
	leftKeys    []int
	rightKeys   []int
	residual    expr.Expr
	match       expr.Predicate // residual, compiled at Open
	schema      *types.Schema

	// SpillPartitions is the Grace partition fan-out used if the build side
	// exceeds the query's memory budget; values < 2 select
	// DefaultSpillPartitions. The planner sizes it from its memory estimate.
	SpillPartitions int

	build keyTable   // the right rows
	mem   memAccount // build memory charge
	spill *joinSpill // non-nil once the operator has spilled

	in     types.Batch // the left batch being probed
	live   []int       // its live rows
	hashes []uint64    // their key hashes
	pos    int         // the next of them to probe
	cur    int         // the left row being matched
	cand   int32       // its next matching build row, or -1
	lrows  []int       // matches not yet gathered: left rows of in,
	rrows  []int       // and build rows
	out    types.Batch
	row    types.Tuple // a joined row, for the residual
}

// NewHashJoin builds a hash join of left ⋈ right on the given key ordinals.
// An optional residual predicate (bound against the concatenated schema) is
// applied to each joined tuple.
func NewHashJoin(left, right Operator, leftKeys, rightKeys []int, residual expr.Expr) (*HashJoin, error) {
	if len(leftKeys) == 0 || len(leftKeys) != len(rightKeys) {
		return nil, fmt.Errorf("exec: hash join needs matching, non-empty key lists")
	}
	return &HashJoin{
		left: left, right: right,
		leftKeys: leftKeys, rightKeys: rightKeys,
		residual: residual,
		schema:   left.Schema().Concat(right.Schema()),
	}, nil
}

// Schema implements Operator.
func (j *HashJoin) Schema() *types.Schema { return j.schema }

// Open implements Operator: it builds the hash table over the inner side,
// charging the build against the query's memory budget. If the build goes
// over budget the join switches to Grace-partitioned spill execution (see
// spill.go), which produces byte-identical output from bounded memory.
func (j *HashJoin) Open(ctx context.Context) error {
	if err := j.right.Open(ctx); err != nil {
		return err
	}
	j.mem = memAccount{t: MemTrackerFrom(ctx)}
	j.match = expr.CompilePredicate(&expr.Evaluator{}, j.residual)
	j.spill = nil
	j.build.reset(j.right.Schema().Len(), j.rightKeys)
	in := &types.Batch{Max: DefaultBatchSize}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := j.right.NextBatch(in)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		if j.spill != nil {
			if err := j.spill.route(j.spill.rightRuns, in, j.rightKeys, nil); err != nil {
				return err
			}
			continue
		}
		if err := j.mem.grow(j.addBuild(in)); err != nil {
			return err
		}
		if j.mem.t.OverBudget() {
			sp, err := beginJoinSpill(j)
			if err != nil {
				return err
			}
			j.spill = sp
		}
	}
	if j.spill != nil {
		if err := j.spill.run(ctx); err != nil {
			return err
		}
	} else if err := j.left.Open(ctx); err != nil {
		return err
	}
	j.in = types.Batch{Max: DefaultBatchSize}
	j.live, j.pos, j.cand = nil, 0, -1
	j.markOpen(ctx)
	return nil
}

// addBuild adds the live rows of b to the build and returns the charge.
func (j *HashJoin) addBuild(b *types.Batch) int64 {
	live := b.Live()
	j.hashes = b.HashRows(live, j.rightKeys, j.hashes)
	return j.build.add(b, live, nil, j.hashes)
}

// probe starts probing the given live rows of j.in with the build; pair
// then finds their matches.
func (j *HashJoin) probe(probed []int) {
	j.live, j.pos, j.cand = probed, 0, -1
	j.hashes = j.in.HashRows(probed, j.leftKeys, j.hashes)
}

// pair appends to lrows and rrows the matches of the probed rows that pass
// the residual, left row by left row and each one's matches in build order,
// until max pairs are pending or every probed row is matched.
func (j *HashJoin) pair(max int) error {
	for len(j.lrows) < max {
		if j.cand >= 0 {
			r := j.cand
			j.cand = j.build.match(j.build.next[r], &j.in, j.cur, j.leftKeys)
			if j.residual != nil {
				j.row = j.build.rows.Row(int(r), j.in.Row(j.cur, j.row[:0]))
				if keep, err := j.match(j.row); err != nil {
					return err
				} else if !keep {
					continue
				}
			}
			j.lrows, j.rrows = append(j.lrows, j.cur), append(j.rrows, int(r))
			continue
		}
		if j.pos == len(j.live) {
			return nil
		}
		j.cur = j.live[j.pos]
		j.cand = j.build.match(j.build.head(j.hashes[j.pos]), &j.in, j.cur, j.leftKeys)
		j.pos++
	}
	return nil
}

// probed reports whether every probed row is matched.
func (j *HashJoin) probed() bool { return j.pos == len(j.live) && j.cand < 0 }

// NextBatch implements Operator: it pairs left rows with their matches and
// gathers the pairs' cells, a column at a time, into the join's own output
// columns.
func (j *HashJoin) NextBatch(b *types.Batch) (int, error) {
	if err := j.checkOpen(); err != nil {
		return 0, err
	}
	j.out.Reset(j.schema.Len())
	for j.spill != nil && j.out.N < b.Max {
		t, ok, err := j.spill.next()
		if err != nil || !ok {
			b.View(j.out.Cols, j.out.N)
			return j.out.N, err
		}
		j.out.AppendRows(t)
	}
	for j.spill == nil && j.out.N+len(j.lrows) < b.Max {
		if j.probed() {
			j.gather() // the pairs index the left batch about to be replaced
			n, err := j.left.NextBatch(&j.in)
			if err != nil {
				return 0, err
			}
			if n == 0 {
				break
			}
			j.probe(j.in.Live())
		}
		if err := j.pair(b.Max - j.out.N); err != nil {
			return 0, err
		}
	}
	j.gather()
	b.View(j.out.Cols, j.out.N)
	return j.out.N, nil
}

// gather appends the pending pairs' left and right cells to the output.
func (j *HashJoin) gather() {
	if len(j.lrows) == 0 {
		return
	}
	for c := range j.in.Cols {
		j.out.Cols[c].AppendRows(&j.in.Cols[c], j.lrows)
	}
	for c := range j.build.rows.Cols {
		j.out.Cols[len(j.in.Cols)+c].AppendRows(&j.build.rows.Cols[c], j.rrows)
	}
	j.out.N += len(j.lrows)
	j.lrows, j.rrows = j.lrows[:0], j.rrows[:0]
}

// Close implements Operator.
func (j *HashJoin) Close() error {
	j.closed = true
	j.build.release()
	j.spill.close()
	j.spill = nil
	j.mem.releaseAll()
	err1 := j.left.Close()
	err2 := j.right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
