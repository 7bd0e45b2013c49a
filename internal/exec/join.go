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
// The table is keyed on tuple hashes with collision chains resolved by value
// comparison, so neither build nor probe allocates key strings.
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

	table     map[uint64][]joinBucket
	mem       memAccount    // build-table memory charge
	spill     *joinSpill    // non-nil once the operator has spilled
	pending   []types.Tuple // matches for the current left tuple not yet emitted
	current   types.Tuple
	leftBatch []types.Tuple // scratch batch pulled from the left input
	leftPos   int
	leftLen   int
}

// joinBucket is one collision-chain entry: all right tuples sharing one key.
type joinBucket struct {
	key  types.Tuple // representative right tuple carrying the key columns
	rows []types.Tuple
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

// Open implements Operator: it materialises the inner side into a hash
// table, charging the build against the query's memory budget. If the build
// goes over budget the join switches to Grace-partitioned spill execution
// (see spill.go), which produces byte-identical output from bounded memory.
func (j *HashJoin) Open(ctx context.Context) error {
	if err := j.right.Open(ctx); err != nil {
		return err
	}
	j.mem = memAccount{t: MemTrackerFrom(ctx)}
	j.match = expr.CompilePredicate(&expr.Evaluator{}, j.residual)
	j.spill = nil
	j.table = make(map[uint64][]joinBucket)
	batch := make([]types.Tuple, DefaultBatchSize)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := j.right.NextBatch(batch)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		if j.spill != nil {
			for _, t := range batch[:n] {
				if err := j.spill.addRight(t); err != nil {
					return err
				}
			}
			continue
		}
		for _, t := range batch[:n] {
			j.insert(t)
			if err := j.mem.grow(tupleMemSize(t)); err != nil {
				return err
			}
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
	j.pending = nil
	j.leftPos, j.leftLen = 0, 0
	j.markOpen(ctx)
	return nil
}

// insert adds a right tuple to its hash bucket's collision chain.
func (j *HashJoin) insert(t types.Tuple) {
	h := t.Hash(j.rightKeys)
	chain := j.table[h]
	for i := range chain {
		if crossEqual(chain[i].key, j.rightKeys, t, j.rightKeys) {
			chain[i].rows = append(chain[i].rows, t)
			return
		}
	}
	j.table[h] = append(chain, joinBucket{key: t, rows: []types.Tuple{t}})
}

// probe returns the right tuples whose key columns match the left tuple's.
func (j *HashJoin) probe(t types.Tuple) []types.Tuple {
	for _, b := range j.table[t.Hash(j.leftKeys)] {
		if crossEqual(t, j.leftKeys, b.key, j.rightKeys) {
			return b.rows
		}
	}
	return nil
}

// advance moves to the next left tuple, refilling the scratch batch from the
// left input as needed, and loads its matches into pending. ok is false when
// the left input is exhausted.
func (j *HashJoin) advance() (ok bool, err error) {
	if j.leftPos >= j.leftLen {
		if j.leftBatch == nil {
			j.leftBatch = make([]types.Tuple, DefaultBatchSize)
		}
		n, err := j.left.NextBatch(j.leftBatch)
		if err != nil || n == 0 {
			return false, err
		}
		j.leftPos, j.leftLen = 0, n
	}
	j.current = j.leftBatch[j.leftPos]
	j.leftPos++
	j.pending = j.probe(j.current)
	return true, nil
}

// NextBatch implements Operator: all output tuples of one batch are carved
// out of a single backing arena instead of one Concat allocation each.
func (j *HashJoin) NextBatch(dst []types.Tuple) (int, error) {
	if err := j.checkOpen(); err != nil {
		return 0, err
	}
	if j.spill != nil {
		out := 0
		for out < len(dst) {
			t, ok, err := j.spill.next()
			if err != nil || !ok {
				return out, err
			}
			dst[out] = t
			out++
		}
		return out, nil
	}
	width := j.schema.Len()
	var arena []types.Value
	out := 0
	for out < len(dst) {
		for len(j.pending) > 0 && out < len(dst) {
			match := j.pending[0]
			j.pending = j.pending[1:]
			if arena == nil {
				arena = make([]types.Value, 0, len(dst)*width)
			}
			var joined types.Tuple
			arena, joined = types.ConcatInto(arena, j.current, match)
			keep, err := j.match(joined)
			if err != nil {
				return out, err
			}
			if !keep {
				arena = arena[:len(arena)-width]
				continue
			}
			dst[out] = joined
			out++
		}
		if len(j.pending) > 0 {
			return out, nil // dst full, matches left over for the next call
		}
		ok, err := j.advance()
		if err != nil {
			return out, err
		}
		if !ok {
			return out, nil
		}
	}
	return out, nil
}

// Close implements Operator.
func (j *HashJoin) Close() error {
	j.closed = true
	j.table = nil
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
