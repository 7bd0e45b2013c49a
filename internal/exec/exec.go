// Package exec implements the execution engine of the server, including the
// three client-site UDF execution strategies the paper studies: the
// semi-join operator with a sender/receiver pipeline that keeps at most the
// pipeline concurrency factor's argument tuples unanswered — whose factor-1
// point is the naive tuple-at-a-time remote invocation — and the client-site
// join that ships full records and applies pushable predicates and
// projections at the client.
//
// # Batch execution contract
//
// Operators produce rows only in column batches (types.Batch), through
// NextBatch, one window of typed column vectors at a time, in the
// vector-at-a-time model of MonetDB/X100. The rules are:
//
//   - NextBatch(b) puts up to b.Max live rows in b and returns how many, b.N;
//     0 with a nil error means the stream is exhausted, and fewer than b.Max
//     does not. Any b.Max ≥ 1 is valid, and the rows produced do not depend
//     on it.
//   - Ownership: the caller owns b, its column headers and its selection
//     vector; the producer owns the column storage it points b at, and keeps
//     it unchanged until it is next called or closed, so a caller that keeps
//     rows copies them out (Row, Tuples). Column-native operators (the
//     columnar scan, Filter, ProjectOrdinals, HashJoin, HashAggregate,
//     SemiJoin) read and write columns: a filter narrows the selection
//     vector, a projection reorders column headers, a join gathers cells.
//     Row-wise operators read through Batch.Row and write into columns of
//     their own with AppendRows.
//
// # Key lookups
//
// Every in-memory key lookup is one keyTable (hashtab.go): the hash join's
// build, the aggregate's groups and the semi-join's argument table. Its
// rows live in columns of its own and are found by their Batch.HashRows key
// hash and a cell-by-cell Vec.Equal comparison, so a row's index in the
// table is its identity: the aggregate keeps a group's state at its index,
// and the semi-join ships and answers an argument by its index. A spilled
// join or aggregate routes rows to Grace partitions by the same hash and
// rebuilds each partition through the same table, build and probe. A table
// charges the query's MemTracker what it keeps (KeyRowMemSize a row), the
// figure the planner's estimates use.
package exec

import (
	"context"
	"fmt"

	"csq/internal/types"
)

// DefaultBatchSize is the most rows moved per NextBatch call by the
// engine's drivers (Collect, Run) and by operators that pull from their
// children in batches.
const DefaultBatchSize = 64

// Operator is the interface every physical operator implements: Open
// prepares the operator, NextBatch produces batches and reports exhaustion
// with a zero count, Close releases resources. See the package documentation
// for the batch ownership rules.
type Operator interface {
	// Schema describes the columns of the batches NextBatch produces.
	Schema() *types.Schema
	// Open prepares the operator and its children for execution.
	Open(ctx context.Context) error
	// NextBatch puts up to b.Max rows in b and returns how many; 0 with a
	// nil error means the stream is exhausted.
	NextBatch(b *types.Batch) (n int, err error)
	// Close releases resources. It is safe to call Close more than once and
	// after a failed Open.
	Close() error
}

// Collect drains an operator into a slice, handling Open/Close. It is the
// main entry point used by tests, examples and the engine's result delivery.
func Collect(ctx context.Context, op Operator) ([]types.Tuple, error) {
	var out []types.Tuple
	if err := forEachBatch(ctx, op, func(b *types.Batch) { out = append(out, b.Tuples()...) }); err != nil {
		return nil, err
	}
	return out, nil
}

// Run drains an operator, discarding tuples and returning the row count. It
// is used by benches that only care about execution cost.
func Run(ctx context.Context, op Operator) (int, error) {
	n := 0
	err := forEachBatch(ctx, op, func(b *types.Batch) { n += b.N })
	return n, err
}

// forEachBatch opens op, hands each of its batches to fn and closes it.
func forEachBatch(ctx context.Context, op Operator, fn func(*types.Batch)) error {
	if err := op.Open(ctx); err != nil {
		_ = op.Close()
		return err
	}
	b := &types.Batch{Max: DefaultBatchSize}
	for {
		if n, err := op.NextBatch(b); err != nil || n == 0 {
			if cerr := op.Close(); err == nil {
				err = cerr
			}
			return err
		}
		fn(b)
	}
}

// NetStats aggregates the network activity of a client-site operator, in
// payload bytes as observed at the framing layer.
type NetStats struct {
	// BytesDown counts bytes shipped server→client.
	BytesDown int64
	// BytesUp counts bytes returned client→server.
	BytesUp int64
	// Messages counts frames sent downlink.
	Messages int64
	// Invocations counts tuples shipped for UDF evaluation (after duplicate
	// elimination for the semi-join).
	Invocations int64
}

// Add accumulates other into s.
func (s *NetStats) Add(other NetStats) {
	s.BytesDown += other.BytesDown
	s.BytesUp += other.BytesUp
	s.Messages += other.Messages
	s.Invocations += other.Invocations
}

// NetReporter is implemented by operators that talk to the client and can
// report their traffic.
type NetReporter interface {
	NetStats() NetStats
}

// Unwrapper is implemented by operators that decorate a single input and can
// expose it (filters, projections, limits, sorts). NetStatsOf uses it to
// find the client-site operator inside a planned tree.
type Unwrapper interface {
	Unwrap() Operator
}

// NetStatsOf returns the NetStats of op, looking through single-input
// wrappers until a NetReporter is found. Operators that neither report nor
// unwrap yield zero stats.
func NetStatsOf(op Operator) NetStats {
	for op != nil {
		if rep, ok := op.(NetReporter); ok {
			return rep.NetStats()
		}
		u, ok := op.(Unwrapper)
		if !ok {
			break
		}
		op = u.Unwrap()
	}
	return NetStats{}
}

// baseState tracks the open/closed lifecycle shared by the operators and
// threads the Open-time context through the NextBatch hot path: every call
// checks the query context, once per batch, so a cancelled or expired query
// stops promptly no matter how deep the operator tree is.
type baseState struct {
	ctx    context.Context
	prog   *Progress
	opened bool
	closed bool
}

// markOpen records a successful Open and the query context it ran under.
func (b *baseState) markOpen(ctx context.Context) {
	b.ctx = ctx
	b.prog = ProgressFrom(ctx)
	b.opened = true
	b.closed = false
}

func (b *baseState) checkOpen() error {
	if !b.opened {
		return fmt.Errorf("exec: operator used before Open")
	}
	if b.closed {
		return fmt.Errorf("exec: operator used after Close")
	}
	// Every live batch boundary is a heartbeat:
	// the stuck-query watchdog sees the counter freeze exactly when the
	// operator tree stops getting here.
	b.prog.Tick()
	if b.ctx != nil {
		// Returned unwrapped so callers observe context.Canceled /
		// context.DeadlineExceeded with errors.Is.
		if err := b.ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}
