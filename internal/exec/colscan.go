package exec

import (
	"context"
	"fmt"

	"csq/internal/expr"
	"csq/internal/storage/colstore"
	"csq/internal/types"
)

// ColumnarScan is the vectorized scan over a column-segment table. Per
// segment it first consults the zone maps against its prunable predicates —
// a pruned segment costs zero disk reads — then materializes only the
// required columns of the survivors, one segment at a time, so memory stays
// bounded by one decoded segment regardless of table size. The decoded
// segment is charged to the query's MemTracker and the per-query
// ScanStatsRecorder collects segments scanned/pruned, bytes read, and decode
// time.
type ColumnarScan struct {
	baseState
	table    *colstore.Table
	alias    string
	schema   *types.Schema
	required []int // table ordinals to materialize; nil means all
	preds    []colstore.PrunePredicate

	snap    *colstore.Snapshot
	rec     *ScanStatsRecorder
	share   *ScanShare
	mem     memAccount
	seg     int // next segment to consider
	cur     []types.Tuple
	pos     int
	curMem  int64
	buf     []byte
	tailPos int
	inTail  bool
}

// NewColumnarScan returns a scan over the columnar table. required lists the
// table ordinals the plan above reads (nil for all); prunable carries the
// filter conjuncts of the form <column> <cmp> <constant> the scan may use to
// skip segments via zone maps (non-conforming expressions are ignored).
func NewColumnarScan(table *colstore.Table, alias string, required []int, prunable []expr.Expr) *ColumnarScan {
	schema := table.Schema().Clone()
	if alias != "" {
		schema = schema.WithQualifier(alias)
	} else {
		schema = schema.WithQualifier(table.Name())
	}
	return &ColumnarScan{
		table:    table,
		alias:    alias,
		schema:   schema,
		required: required,
		preds:    PrunePredicates(prunable),
	}
}

// PrunePredicates translates prunable filter conjuncts into the storage
// engine's zone-map predicates, dropping anything that is not a bound
// column-vs-constant comparison.
func PrunePredicates(prunable []expr.Expr) []colstore.PrunePredicate {
	var out []colstore.PrunePredicate
	for _, e := range prunable {
		b, ok := e.(*expr.Binary)
		if !ok {
			continue
		}
		col, val, op, ok := expr.SplitColConstComparison(b)
		if !ok {
			continue
		}
		po, ok := pruneOp(op)
		if !ok {
			continue
		}
		out = append(out, colstore.PrunePredicate{Col: col, Op: po, Value: val})
	}
	return out
}

// pruneOp maps a comparison operator onto the zone-map operator set.
func pruneOp(op expr.Op) (colstore.PruneOp, bool) {
	switch op {
	case expr.OpEq:
		return colstore.PruneEq, true
	case expr.OpNe:
		return colstore.PruneNe, true
	case expr.OpLt:
		return colstore.PruneLt, true
	case expr.OpLe:
		return colstore.PruneLe, true
	case expr.OpGt:
		return colstore.PruneGt, true
	case expr.OpGe:
		return colstore.PruneGe, true
	default:
		return 0, false
	}
}

// Schema implements Operator.
func (s *ColumnarScan) Schema() *types.Schema { return s.schema }

// Open implements Operator.
func (s *ColumnarScan) Open(ctx context.Context) error {
	if s.table == nil {
		return fmt.Errorf("exec: columnar scan has no table")
	}
	s.snap = s.table.Snapshot()
	s.rec = ScanStatsFrom(ctx)
	s.share = ScanShareFrom(ctx)
	s.mem = memAccount{t: MemTrackerFrom(ctx)}
	s.seg, s.pos, s.cur, s.curMem = 0, 0, nil, 0
	s.tailPos, s.inTail = 0, false
	s.markOpen(ctx)
	return ctx.Err()
}

// NextBatch implements Operator with bulk copies out of the decoded segment.
func (s *ColumnarScan) NextBatch(dst []types.Tuple) (int, error) {
	if err := s.checkOpen(); err != nil {
		return 0, err
	}
	filled := 0
	for filled < len(dst) {
		if s.pos < len(s.cur) {
			n := copy(dst[filled:], s.cur[s.pos:])
			filled += n
			s.pos += n
			continue
		}
		ok, err := s.advance()
		if err != nil {
			return filled, err
		}
		if !ok {
			break
		}
	}
	return filled, nil
}

// advance loads the next surviving segment (or the buffered tail) into cur,
// releasing the previous segment's memory charge.
func (s *ColumnarScan) advance() (bool, error) {
	s.releaseSegment()
	s.pos = 0
	for s.seg < s.snap.NumSegments() {
		i := s.seg
		s.seg++
		if !s.snap.SegmentMayMatch(i, s.preds) {
			s.rec.notePruned(1)
			continue
		}
		tuples, footprint, err := s.readSegmentShared(i)
		if err != nil {
			return false, fmt.Errorf("exec: columnar scan: %w", err)
		}
		// Charge the decoded footprint: one slice header and a full-width
		// row of the Value arena per tuple, plus the bytes read as the bound
		// on the variable-width payloads the decoded columns point to (a
		// payload is at most its encoding; a dictionary chunk decodes to
		// shared entries). Shared decodes charge the same amount — the bytes
		// were read by a peer, but this query retains them too.
		rowMem := int64(types.TupleHeaderMemSize + s.schema.Len()*types.ValueMemSize)
		charge := footprint + int64(len(tuples))*rowMem
		if err := s.mem.grow(charge); err != nil {
			return false, err
		}
		s.curMem = charge
		if len(tuples) > 0 {
			s.cur = tuples
			return true, nil
		}
		s.releaseSegment()
	}
	if !s.inTail {
		s.inTail = true
		s.cur = s.snap.Tail()
		return len(s.cur) > 0, nil
	}
	s.cur = nil
	return false, nil
}

// releaseSegment drops the current decoded segment and its memory charge.
func (s *ColumnarScan) releaseSegment() {
	s.cur = nil
	if s.curMem != 0 {
		s.mem.shrink(s.curMem)
		s.curMem = 0
	}
}

// Close implements Operator.
func (s *ColumnarScan) Close() error {
	s.cur = nil
	s.curMem = 0
	s.mem.releaseAll()
	s.closed = true
	return nil
}
