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
// Operators produce rows only in batches, through NextBatch. A batch
// amortises per-call overheads and lets an operator carve the tuples of one
// batch out of a single backing allocation. The rules are:
//
//   - NextBatch(dst) fills up to len(dst) tuples into dst and returns how
//     many were produced. A return of 0 with a nil error means the stream is
//     exhausted. Operators may return fewer than len(dst) tuples before
//     exhaustion (e.g. when an internal buffer boundary is hit); only n == 0
//     signals the end. Any len(dst) ≥ 1 is valid, and the rows produced do
//     not depend on it.
//   - Ownership: tuples written into dst belong to the caller. An operator
//     must never mutate or recycle a tuple it has handed out. Several tuples
//     of one batch may share a backing arena, so retaining one tuple of a
//     batch can pin the memory of its siblings — callers that keep long-lived
//     references to few tuples of large batches should Clone them.
package exec

import (
	"context"
	"fmt"

	"csq/internal/types"
)

// DefaultBatchSize is the number of tuples moved per NextBatch call by the
// engine's drivers (Collect, Run) and by operators that pull from their
// children in batches.
const DefaultBatchSize = 64

// Operator is the interface every physical operator implements: Open
// prepares the operator, NextBatch produces tuples and reports exhaustion
// with a zero count, Close releases resources. See the package documentation
// for the batch ownership rules.
type Operator interface {
	// Schema describes the tuples produced by NextBatch.
	Schema() *types.Schema
	// Open prepares the operator and its children for execution.
	Open(ctx context.Context) error
	// NextBatch fills dst with up to len(dst) tuples and returns how many
	// were produced; 0 with a nil error means the stream is exhausted.
	NextBatch(dst []types.Tuple) (n int, err error)
	// Close releases resources. It is safe to call Close more than once and
	// after a failed Open.
	Close() error
}

// Collect drains an operator into a slice, handling Open/Close. It is the
// main entry point used by tests, examples and the engine's result delivery.
func Collect(ctx context.Context, op Operator) ([]types.Tuple, error) {
	if err := op.Open(ctx); err != nil {
		_ = op.Close()
		return nil, err
	}
	var out []types.Tuple
	batch := make([]types.Tuple, DefaultBatchSize)
	for {
		n, err := op.NextBatch(batch)
		if err != nil {
			_ = op.Close()
			return nil, err
		}
		if n == 0 {
			break
		}
		out = append(out, batch[:n]...)
	}
	if err := op.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// Run drains an operator, discarding tuples and returning the row count. It
// is used by benches that only care about execution cost.
func Run(ctx context.Context, op Operator) (int, error) {
	if err := op.Open(ctx); err != nil {
		_ = op.Close()
		return 0, err
	}
	n := 0
	batch := make([]types.Tuple, DefaultBatchSize)
	for {
		k, err := op.NextBatch(batch)
		if err != nil {
			_ = op.Close()
			return n, err
		}
		if k == 0 {
			break
		}
		n += k
	}
	return n, op.Close()
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
