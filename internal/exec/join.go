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
// The build keeps the right rows in columns of its own, chaining the rows of
// one key hash in insertion order; a probe walks a left row's chain comparing
// key cells by value (types.Compare == 0: NULL keys join NULL keys, INT keys
// equal FLOAT ones) and gathers the matches' cells into output columns.
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

	build  types.Batch          // the right rows
	chains map[uint64]joinChain // key hash → its build rows
	next   []int32              // build row → the next of its chain, or -1
	mem    memAccount           // build memory charge
	spill  *joinSpill           // non-nil once the operator has spilled

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

// joinChain is the first and last build row of one key hash.
type joinChain struct{ head, tail int32 }

// joinChainMemSize is what a chain's map entry keeps resident: 23 to 46
// bytes of buckets at Go's load factors.
const joinChainMemSize = 32

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
	j.build.Reset(j.right.Schema().Len())
	j.chains, j.next = make(map[uint64]joinChain), j.next[:0]
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
			for _, r := range in.Live() {
				if err := j.spill.addRight(in.Row(r, j.row[:0])); err != nil {
					return err
				}
			}
			continue
		}
		from, chains, live := j.build.N, len(j.chains), in.Live()
		for c := range in.Cols {
			j.build.Cols[c].AppendRows(&in.Cols[c], live)
		}
		j.hashes = in.HashRows(live, j.rightKeys, j.hashes)
		for _, h := range j.hashes {
			i := int32(j.build.N)
			j.build.N++
			j.next = append(j.next, -1)
			if ch, ok := j.chains[h]; ok {
				j.next[ch.tail] = i
				j.chains[h] = joinChain{ch.head, i}
			} else {
				j.chains[h] = joinChain{i, i}
			}
		}
		// Charged: the cells, a chain link a row and a map entry a chain.
		charge := j.build.MemSize(from) + 4*int64(n) + joinChainMemSize*int64(len(j.chains)-chains)
		if err := j.mem.grow(charge); err != nil {
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
	j.lrows, j.rrows = j.lrows[:0], j.rrows[:0]
	j.markOpen(ctx)
	return nil
}

// matchFrom returns the first build row from r on along its chain whose key
// cells equal those of the current left row, or -1.
func (j *HashJoin) matchFrom(r int32) int32 {
	for ; r >= 0; r = j.next[r] {
		eq := true
		for k, lk := range j.leftKeys {
			if !j.in.Cols[lk].Equal(j.cur, j.build.Cols[j.rightKeys[k]].Value(int(r))) {
				eq = false
				break
			}
		}
		if eq {
			return r
		}
	}
	return -1
}

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
		if j.cand >= 0 {
			r := j.cand
			j.cand = j.matchFrom(j.next[r])
			if j.residual != nil {
				j.row = j.build.Row(int(r), j.in.Row(j.cur, j.row[:0]))
				if keep, err := j.match(j.row); err != nil {
					return 0, err
				} else if !keep {
					continue
				}
			}
			j.lrows, j.rrows = append(j.lrows, j.cur), append(j.rrows, int(r))
			continue
		}
		if j.pos == len(j.live) {
			j.gather() // the pairs index the left batch about to be replaced
			n, err := j.left.NextBatch(&j.in)
			if err != nil {
				return 0, err
			}
			if n == 0 {
				break
			}
			j.live, j.pos = j.in.Live(), 0
			j.hashes = j.in.HashRows(j.live, j.leftKeys, j.hashes)
		}
		j.cur = j.live[j.pos]
		if ch, ok := j.chains[j.hashes[j.pos]]; ok {
			j.cand = j.matchFrom(ch.head)
		}
		j.pos++
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
	for c, w := range j.build.Cols {
		j.out.Cols[len(j.in.Cols)+c].AppendRows(&w, j.rrows)
	}
	j.out.N += len(j.lrows)
	j.lrows, j.rrows = j.lrows[:0], j.rrows[:0]
}

// Close implements Operator.
func (j *HashJoin) Close() error {
	j.closed = true
	j.chains, j.next = nil, nil
	j.build = types.Batch{}
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
