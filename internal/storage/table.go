// Package storage implements the in-memory heap table with its snapshot
// iterators and the statistics the planner reads from the catalog (row count
// and average row size), and the spill files and spill namespaces operators
// overflow into. The planner measures D itself, by sampling. The
// disk-backed columnar engine lives in the colstore subpackage and plugs in
// behind the same Relation seam.
package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"csq/internal/catalog"
	"csq/internal/types"
)

// RowIterator is a snapshot iterator over a relation's rows. Implementations
// are single-goroutine; a fresh iterator is obtained per scan.
type RowIterator interface {
	// Read fills up to len(dst) tuples into dst and returns how many were
	// filled; 0 means the snapshot is exhausted.
	Read(dst []types.Tuple) int
}

// Relation is the read surface the execution engine scans: any named,
// schema'd row source that can hand out snapshot iterators. *HeapTable is the
// in-memory implementation, colstore.Table the disk-backed columnar one;
// tests wrap either (e.g. to count scans).
type Relation interface {
	// Name returns the relation name.
	Name() string
	// Schema returns the relation's column layout. Callers must not modify it.
	Schema() *types.Schema
	// Iterator returns an iterator over a consistent snapshot of the rows.
	Iterator() RowIterator
}

// Versioned is implemented by relations that track a monotonically increasing
// data version; the planner's cross-query statistics cache keys on it so a
// mutation invalidates cached samples.
type Versioned interface {
	// Version returns the current data version. Any row mutation changes it.
	Version() uint64
}

// SegmentVersioned is implemented by relations that store their rows as a
// set of immutable segments (the columnar engine): the returned string
// identifies the exact segment set plus buffered tail a scan would observe.
// The planner's statistics cache extends its keys with it, since zone-map
// pruning makes sampled statistics depend on the segment set, not just the
// row data version.
type SegmentVersioned interface {
	// SegmentSetVersion identifies the current segment set; it changes
	// whenever segments are added or the buffered tail changes.
	SegmentSetVersion() string
}

// heapChunkRows is the capacity of one heap-table chunk. Chunks are sealed
// once full and never touched again, so a snapshot is a copy of two slice
// headers no matter how many rows the table holds.
const heapChunkRows = 1024

// HeapTable is an append-only in-memory relation. It is safe for concurrent
// readers and writers; iteration sees a consistent snapshot of the rows
// present when the iterator was created.
//
// Rows live in an immutable chunk list: all chunks but the last are sealed
// (full and never mutated), and the last chunk only ever has new rows
// appended within its fixed capacity. Taking a snapshot is therefore O(1) —
// a bounded copy of the chunk-list header plus the active chunk's length —
// instead of O(rows), however large the table grows.
type HeapTable struct {
	name   string
	schema *types.Schema

	version atomic.Uint64

	mu     sync.RWMutex
	sealed [][]types.Tuple // full, immutable chunks
	active []types.Tuple   // append-only tail chunk, cap == heapChunkRows
	rows   int             // total row count
	size   int64           // accumulated encoded size of all rows
}

// NewHeapTable creates an empty heap table with the given name and schema.
func NewHeapTable(name string, schema *types.Schema) (*HeapTable, error) {
	if name == "" {
		return nil, fmt.Errorf("storage: table name must not be empty")
	}
	if schema == nil || schema.Len() == 0 {
		return nil, fmt.Errorf("storage: table %q needs at least one column", name)
	}
	return &HeapTable{name: name, schema: schema.Clone()}, nil
}

// Name returns the table name.
func (h *HeapTable) Name() string { return h.name }

// Schema returns the table schema. Callers must not modify it.
func (h *HeapTable) Schema() *types.Schema { return h.schema }

// Insert appends a tuple after validating its arity and column kinds.
func (h *HeapTable) Insert(t types.Tuple) error {
	if err := h.validate(t); err != nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.active == nil {
		h.active = make([]types.Tuple, 0, heapChunkRows)
	}
	h.active = append(h.active, t.Clone())
	if len(h.active) == cap(h.active) {
		h.sealed = append(h.sealed, h.active)
		h.active = nil
	}
	h.rows++
	h.size += int64(t.Size())
	h.version.Add(1)
	return nil
}

// Version implements Versioned: it changes whenever the table's rows do, so
// cached statistics keyed on it go stale exactly when the data does.
func (h *HeapTable) Version() uint64 { return h.version.Load() }

// InsertBatch appends many tuples, validating each.
func (h *HeapTable) InsertBatch(ts []types.Tuple) error {
	for _, t := range ts {
		if err := h.Insert(t); err != nil {
			return err
		}
	}
	return nil
}

func (h *HeapTable) validate(t types.Tuple) error {
	if t.Len() != h.schema.Len() {
		return fmt.Errorf("storage: table %q expects %d columns, got %d", h.name, h.schema.Len(), t.Len())
	}
	for i, v := range t {
		want := h.schema.Columns[i].Kind
		if v.IsNull() {
			continue
		}
		got := v.Kind()
		if got == want {
			continue
		}
		if got.Numeric() && want.Numeric() {
			continue
		}
		return fmt.Errorf("storage: table %q column %d (%s) expects %s, got %s",
			h.name, i, h.schema.Columns[i].Name, want, got)
	}
	return nil
}

// snapshot returns the chunk list as of now. Sealed chunks are immutable and
// the active chunk's occupied prefix is immutable, so copying the chunk-list
// header and capping the active chunk at its current length yields a
// consistent snapshot without copying any rows.
func (h *HeapTable) snapshot() [][]types.Tuple {
	h.mu.RLock()
	defer h.mu.RUnlock()
	chunks := h.sealed[:len(h.sealed):len(h.sealed)]
	if len(h.active) > 0 {
		chunks = append(chunks, h.active[:len(h.active):len(h.active)])
	}
	return chunks
}

// Iterator returns an iterator over a snapshot of the table.
func (h *HeapTable) Iterator() RowIterator {
	return newChunkIterator(h.snapshot())
}

// Stats computes the statistics the catalog and the optimizer need: row count
// and average row size.
func (h *HeapTable) Stats() catalog.TableStats {
	h.mu.RLock()
	defer h.mu.RUnlock()
	stats := catalog.TableStats{RowCount: h.rows}
	if h.rows > 0 {
		stats.AvgRowSize = int(h.size / int64(h.rows))
	}
	return stats
}

// TableIterator iterates over a snapshot of a heap table's chunk list.
type TableIterator struct {
	chunks [][]types.Tuple
	ci     int // current chunk
	pos    int // position within the current chunk
}

// newChunkIterator builds an iterator over a chunk list.
func newChunkIterator(chunks [][]types.Tuple) *TableIterator {
	return &TableIterator{chunks: chunks}
}

// Read copies up to len(dst) tuples into dst and returns how many were
// copied; 0 means the snapshot is exhausted.
func (it *TableIterator) Read(dst []types.Tuple) int {
	filled := 0
	for filled < len(dst) && it.ci < len(it.chunks) {
		c := it.chunks[it.ci]
		n := copy(dst[filled:], c[it.pos:])
		filled += n
		it.pos += n
		if it.pos >= len(c) {
			it.ci++
			it.pos = 0
		}
	}
	return filled
}
