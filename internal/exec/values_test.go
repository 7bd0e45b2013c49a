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
