package exec

import (
	"context"
	"fmt"

	"csq/internal/storage"
	"csq/internal/types"
)

// TableScan produces every tuple of a stored relation, optionally
// re-qualifying the schema with a query alias. It scans any storage.Relation
// — normally a *storage.HeapTable, but also wrappers around one (statistics
// counters in tests, future storage backends).
type TableScan struct {
	baseState
	table  storage.Relation
	alias  string
	schema *types.Schema
	it     storage.RowIterator
}

// NewTableScan returns a scan over the relation. When alias is non-empty the
// produced schema is qualified with it (SELECT ... FROM StockQuotes S).
func NewTableScan(table storage.Relation, alias string) *TableScan {
	schema := table.Schema().Clone()
	if alias != "" {
		schema = schema.WithQualifier(alias)
	} else {
		schema = schema.WithQualifier(table.Name())
	}
	return &TableScan{table: table, alias: alias, schema: schema}
}

// Schema implements Operator.
func (s *TableScan) Schema() *types.Schema { return s.schema }

// Open implements Operator.
func (s *TableScan) Open(ctx context.Context) error {
	if s.table == nil {
		return fmt.Errorf("exec: table scan has no table")
	}
	s.it = s.table.Iterator()
	s.markOpen(ctx)
	return ctx.Err()
}

// NextBatch implements Operator with a bulk copy out of the table snapshot.
func (s *TableScan) NextBatch(dst []types.Tuple) (int, error) {
	if err := s.checkOpen(); err != nil {
		return 0, err
	}
	return s.it.NextBatch(dst), nil
}

// Close implements Operator.
func (s *TableScan) Close() error {
	s.closed = true
	return nil
}

// ValuesScan produces an in-memory slice of tuples; it is used for testing,
// for INSERT ... VALUES and as the input stub of sub-plans.
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
