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
