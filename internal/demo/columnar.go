package demo

import (
	"fmt"

	"csq/internal/catalog"
	"csq/internal/storage"
	"csq/internal/storage/colstore"
	"csq/internal/types"
)

// CtradesSegmentRows is the segment size of the demo columnar table: 60
// trades rows make three full segments plus a 12-row fourth, and since Day
// grows monotonically with insertion order, each segment covers a distinct
// Day range — a Day predicate demonstrably prunes.
const CtradesSegmentRows = 16

// AddColumnarTrades registers "ctrades", a disk-backed column-segment copy of
// the trades table, in the catalog. The segment files live under dir (the
// caller owns the directory's lifetime) and every buffered row is flushed, so
// zone-map pruning covers the whole table. It returns the table so callers
// can close it.
func AddColumnarTrades(cat *catalog.Catalog, dir string) (*colstore.Table, error) {
	trades, err := cat.Table("trades")
	if err != nil {
		return nil, err
	}
	rel, ok := trades.Data.(storage.Relation)
	if !ok {
		return nil, fmt.Errorf("demo: trades has no storage handle")
	}
	ct, err := colstore.Create(dir, "ctrades", trades.Schema, colstore.Options{SegmentRows: CtradesSegmentRows})
	if err != nil {
		return nil, err
	}
	it := rel.Iterator()
	batch := make([]types.Tuple, 64)
	for n := it.Read(batch); n > 0; n = it.Read(batch) {
		for _, row := range batch[:n] {
			if err := ct.Insert(row); err != nil {
				ct.Close()
				return nil, err
			}
		}
	}
	if err := ct.Flush(); err != nil {
		ct.Close()
		return nil, err
	}
	if err := cat.AddTable(&catalog.Table{
		Name:   "ctrades",
		Schema: trades.Schema,
		Stats: catalog.TableStats{
			RowCount:   ct.RowCount(),
			AvgRowSize: ct.AvgRowSize(),
		},
		Data: ct,
	}); err != nil {
		ct.Close()
		return nil, err
	}
	return ct, nil
}
