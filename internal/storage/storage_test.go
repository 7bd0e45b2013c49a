package storage

import (
	"fmt"
	"sync"
	"testing"

	"csq/internal/types"
)

func quotesSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "Name", Kind: types.KindString},
		types.Column{Name: "Close", Kind: types.KindFloat},
		types.Column{Name: "Quotes", Kind: types.KindTimeSeries},
	)
}

func sampleRow(name string, close float64) types.Tuple {
	return types.NewTuple(
		types.NewString(name),
		types.NewFloat(close),
		types.NewTimeSeries(types.TimeSeries{close - 1, close}),
	)
}

// countRows drains it one row per Read call and returns the row count.
func countRows(it RowIterator) int {
	row := make([]types.Tuple, 1)
	n := 0
	for it.Read(row) == 1 {
		n++
	}
	return n
}

func TestHeapTableBasics(t *testing.T) {
	tbl, err := NewHeapTable("StockQuotes", quotesSchema())
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Name() != "StockQuotes" {
		t.Errorf("Name = %q", tbl.Name())
	}
	if tbl.RowCount() != 0 || tbl.Stats().AvgRowSize != 0 {
		t.Error("new table should be empty")
	}
	rows := []types.Tuple{sampleRow("ACME", 20), sampleRow("BOLT", 31), sampleRow("ACME", 20)}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	if tbl.RowCount() != 3 {
		t.Errorf("RowCount = %d", tbl.RowCount())
	}
	if tbl.Stats().AvgRowSize <= 0 {
		t.Error("AvgRowSize should be positive")
	}
	if count := countRows(tbl.Iterator()); count != 3 {
		t.Errorf("iterated %d rows", count)
	}
}

func TestHeapTableValidation(t *testing.T) {
	if _, err := NewHeapTable("", quotesSchema()); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := NewHeapTable("x", types.NewSchema()); err == nil {
		t.Error("empty schema should fail")
	}
	tbl, _ := NewHeapTable("R", quotesSchema())
	if err := tbl.Insert(types.NewTuple(types.NewString("x"))); err == nil {
		t.Error("wrong arity should fail")
	}
	if err := tbl.Insert(types.NewTuple(types.NewInt(1), types.NewFloat(1), types.NewTimeSeries(nil))); err == nil {
		t.Error("wrong kind should fail")
	}
	// NULLs of any declared kind and numeric widening are accepted.
	if err := tbl.Insert(types.NewTuple(types.Null(types.KindString), types.NewInt(3), types.NewTimeSeries(nil))); err != nil {
		t.Errorf("NULL + numeric widening insert: %v", err)
	}
}

func TestHeapTableSnapshotIsolation(t *testing.T) {
	tbl, _ := NewHeapTable("R", quotesSchema())
	_ = tbl.Insert(sampleRow("A", 1))
	it := tbl.Iterator()
	_ = tbl.Insert(sampleRow("B", 2))
	if n := countRows(it); n != 1 {
		t.Errorf("iterator should see the snapshot taken at creation, got %d rows", n)
	}
	if tbl.RowCount() != 2 {
		t.Errorf("table should now have 2 rows")
	}
}

func TestHeapTableStats(t *testing.T) {
	tbl, _ := NewHeapTable("R", quotesSchema())
	size := 0
	for i := 0; i < 10; i++ {
		row := sampleRow(fmt.Sprintf("N%d", i%5), float64(i))
		size += row.Size()
		_ = tbl.Insert(row)
	}
	stats := tbl.Stats()
	if stats.RowCount != 10 {
		t.Errorf("RowCount = %d", stats.RowCount)
	}
	if stats.AvgRowSize != size/10 {
		t.Errorf("AvgRowSize = %d, want %d", stats.AvgRowSize, size/10)
	}
	empty, _ := NewHeapTable("E", quotesSchema())
	if empty.Stats().RowCount != 0 {
		t.Error("empty stats row count should be 0")
	}
}

// TestStoreConcurrentAccess: one heap table under concurrent inserts and
// scans loses no rows.
func TestStoreConcurrentAccess(t *testing.T) {
	tbl, err := NewHeapTable("R", quotesSchema())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_ = tbl.Insert(sampleRow(fmt.Sprintf("w%d-%d", i, j), float64(j)))
				countRows(tbl.Iterator())
			}
		}(i)
	}
	wg.Wait()
	if tbl.RowCount() != 200 {
		t.Errorf("concurrent inserts lost rows: %d", tbl.RowCount())
	}
}

// RowCount returns the number of stored rows.
func (h *HeapTable) RowCount() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.rows
}
