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
	rows   []types.Tuple
	out    types.Batch
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

// NextBatch implements Operator, copying the snapshot's next rows.
func (s *TableScan) NextBatch(b *types.Batch) (int, error) {
	if err := s.checkOpen(); err != nil {
		return 0, err
	}
	if cap(s.rows) < b.Max {
		s.rows = make([]types.Tuple, b.Max)
	}
	return emitRows(b, &s.out, s.schema.Len(), s.rows[:s.it.Read(s.rows[:b.Max])]), nil
}

// emitRows is how row-wise operators produce a batch: it copies rows into
// out, the producer's own columns, and points b at them.
func emitRows(b, out *types.Batch, width int, rows []types.Tuple) int {
	out.Reset(width)
	out.AppendRows(rows...)
	b.View(out.Cols, out.N)
	return out.N
}

// Close implements Operator.
func (s *TableScan) Close() error {
	s.closed = true
	return nil
}
