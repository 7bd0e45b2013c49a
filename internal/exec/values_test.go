package exec

import (
	"context"

	"csq/internal/types"
)

// ValuesScan produces an in-memory slice of tuples: the input the operator
// tests feed.
type ValuesScan struct {
	baseState
	schema *types.Schema
	rows   []types.Tuple
	pos    int
	out    types.Batch
}

// NewValuesScan builds a scan over the given rows.
func NewValuesScan(schema *types.Schema, rows []types.Tuple) *ValuesScan {
	return &ValuesScan{schema: schema, rows: rows}
}

// Schema implements Operator.
func (s *ValuesScan) Schema() *types.Schema { return s.schema }

// Open implements Operator.
func (s *ValuesScan) Open(ctx context.Context) error {
	s.pos = 0
	s.markOpen(ctx)
	return ctx.Err()
}

// NextBatch implements Operator, copying the next rows into columns.
func (s *ValuesScan) NextBatch(b *types.Batch) (int, error) {
	if err := s.checkOpen(); err != nil {
		return 0, err
	}
	n := min(b.Max, len(s.rows)-s.pos)
	s.pos += n
	return emitRows(b, &s.out, s.schema.Len(), s.rows[s.pos-n:s.pos]), nil
}

// Close implements Operator.
func (s *ValuesScan) Close() error {
	s.closed = true
	return nil
}

// collectN opens op, pulls its first n rows and closes it, abandoning the
// rest of the stream: the early close of a consumer that needs no more.
func collectN(ctx context.Context, op Operator, n int) ([]types.Tuple, error) {
	var out []types.Tuple
	err := op.Open(ctx)
	b := &types.Batch{}
	for err == nil && len(out) < n {
		b.Max = n - len(out)
		var got int
		if got, err = op.NextBatch(b); got == 0 {
			break
		}
		out = append(out, b.Tuples()...)
	}
	if cerr := op.Close(); err == nil {
		err = cerr
	}
	return out, err
}
