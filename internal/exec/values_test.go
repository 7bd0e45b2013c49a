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

// NextBatch implements Operator with a bulk copy out of the row slice.
func (s *ValuesScan) NextBatch(dst []types.Tuple) (int, error) {
	if err := s.checkOpen(); err != nil {
		return 0, err
	}
	n := copy(dst, s.rows[s.pos:])
	s.pos += n
	return n, nil
}

// Close implements Operator.
func (s *ValuesScan) Close() error {
	s.closed = true
	return nil
}
