package colstore

import (
	"fmt"

	"csq/internal/types"
)

// PruneOp is a comparison a zone map can evaluate against a constant.
type PruneOp uint8

// Prunable comparison operators, matching the row-level comparison semantics
// of the expression engine (NULL never compares true).
const (
	PruneEq PruneOp = iota
	PruneNe
	PruneLt
	PruneLe
	PruneGt
	PruneGe
)

// PrunePredicate is one conjunct of the form <column> <op> <constant> that a
// scan may use to skip whole segments via zone maps. It is advisory: a
// segment that survives pruning still has the full row-level predicate
// applied above the scan, so pruning only needs to be conservative (never
// skip a segment that could contain a matching row).
type PrunePredicate struct {
	Col   int
	Op    PruneOp
	Value types.Value
}

// Snapshot is a consistent view of a table's segments and buffered tail, the
// read surface of the vectorized columnar scan. Snapshots stay valid across
// concurrent inserts and flushes (segments are immutable and the tail prefix
// is never mutated in place), but not across Close.
type Snapshot struct {
	t    *Table
	segs []segmentMeta
	tail []types.Tuple
}

// Snapshot captures the current segments and tail.
func (t *Table) Snapshot() *Snapshot {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return &Snapshot{
		t:    t,
		segs: t.segs[:len(t.segs):len(t.segs)],
		tail: t.tail[:len(t.tail):len(t.tail)],
	}
}

// NumSegments returns the number of on-disk segments in the snapshot.
func (s *Snapshot) NumSegments() int { return len(s.segs) }

// SegmentRowCount returns the number of rows of segment i.
func (s *Snapshot) SegmentRowCount(i int) int { return s.segs[i].rows }

// Tail returns the buffered rows not yet flushed to a segment. Zone maps do
// not cover them; a scan emits them after the segments.
func (s *Snapshot) Tail() []types.Tuple { return s.tail }

// SegmentMayMatch reports whether segment i could contain a row satisfying
// every predicate. It errs on the side of true: only a zone map that proves
// no row can match lets the scan skip the segment.
func (s *Snapshot) SegmentMayMatch(i int, preds []PrunePredicate) bool {
	for _, p := range preds {
		if p.Col < 0 || p.Col >= len(s.segs[i].cols) {
			continue
		}
		if !zoneMayMatch(s.segs[i].cols[p.Col].zm, p) {
			return false
		}
	}
	return true
}

// zoneMayMatch evaluates one predicate against one zone map.
func zoneMayMatch(zm ZoneMap, p PrunePredicate) bool {
	if zm.Rows == 0 {
		return false
	}
	// A comparison is never true on a NULL operand: a constant NULL matches
	// nothing, and a column that is entirely NULL matches nothing.
	if p.Value.IsNull() || zm.Nulls == zm.Rows {
		return false
	}
	if !zm.HasMinMax {
		return true
	}
	cmpMin, err := types.Compare(zm.Min, p.Value)
	if err != nil {
		return true // incomparable kinds: cannot prove anything
	}
	cmpMax, err := types.Compare(zm.Max, p.Value)
	if err != nil {
		return true
	}
	switch p.Op {
	case PruneEq:
		return cmpMin <= 0 && cmpMax >= 0
	case PruneNe:
		// Only an all-equal segment (min == max == v, no nulls) cannot
		// contain a differing row.
		return !(cmpMin == 0 && cmpMax == 0 && zm.Nulls == 0)
	case PruneLt:
		return cmpMin < 0
	case PruneLe:
		return cmpMin <= 0
	case PruneGt:
		return cmpMax > 0
	case PruneGe:
		return cmpMax >= 0
	default:
		return true
	}
}

// ReadSegment decodes the given columns of segment i (all when cols is nil)
// into typed vectors, reusing the storage of vecs, a previous read of the
// same columns, when it holds one Vec per table column. It returns one Vec
// per table column, a column not asked for left empty with no storage, and
// the number of on-disk bytes read. Freshly allocated vectors stay valid
// indefinitely.
func (s *Snapshot) ReadSegment(i int, cols []int, buf []byte, vecs []types.Vec) ([]types.Vec, int64, []byte, error) {
	seg := s.segs[i]
	width := s.t.schema.Len()
	if len(vecs) != width {
		vecs = make([]types.Vec, width)
	}
	var bytesRead int64
	for n := 0; n < len(cols) || cols == nil && n < width; n++ {
		col := n
		if cols != nil {
			col = cols[n]
		}
		if col < 0 || col >= width {
			return nil, 0, buf, fmt.Errorf("colstore: column %d out of range", col)
		}
		cm := seg.cols[col]
		if int64(cap(buf)) < cm.size {
			buf = make([]byte, cm.size)
		}
		chunk := buf[:cm.size]
		if _, err := s.t.dataF.ReadAt(chunk, cm.off); err != nil {
			return nil, 0, buf, fmt.Errorf("colstore: read segment %d column %d: %w", i, col, err)
		}
		bytesRead += cm.size
		if err := decodeColumnChunk(chunk, &vecs[col], seg.rows); err != nil {
			return nil, 0, buf, fmt.Errorf("colstore: segment %d: %w", i, err)
		}
	}
	return vecs, bytesRead, buf, nil
}
