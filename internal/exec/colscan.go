package exec

import (
	"context"
	"fmt"
	"slices"

	"csq/internal/expr"
	"csq/internal/storage/colstore"
	"csq/internal/types"
)

// ColumnarScan is the vectorized scan over a column-segment table. Per
// segment it first consults the zone maps against its prunable predicates —
// a pruned segment costs zero disk reads — then decodes only the required
// columns of the survivors into typed vectors, one segment at a time, so
// memory stays bounded by one decoded segment regardless of table size. A
// batch is a window of those vectors; only a batch that straddles two
// segments, or reads the buffered tail, is copied. The decoded segment is
// charged to the query's MemTracker and the per-query ScanStatsRecorder
// collects segments scanned/pruned, bytes read, and decode time.
type ColumnarScan struct {
	baseState
	table    *colstore.Table
	alias    string
	schema   *types.Schema
	required []int // table ordinals to materialize; nil means all
	preds    []colstore.PrunePredicate

	snap   *colstore.Snapshot
	rec    *ScanStatsRecorder
	share  *ScanShare
	mem    memAccount
	seg    int         // next segment to consider; one past the last once the tail is read
	cur    []types.Vec // the decoded segment, or the buffered tail's rows
	rows   int         // rows of cur
	pos    int         // next of them
	curMem int64
	buf    []byte
	spare  []types.Vec // the storage of the last segment decoded unshared
	out    types.Batch // a batch straddling segments
	win    types.Batch // the rows of cur copied into out
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
		po, ok := pruneOps[op]
		if !ok {
			continue
		}
		out = append(out, colstore.PrunePredicate{Col: col, Op: po, Value: val})
	}
	return out
}

// pruneOps maps the comparison operators onto the zone-map operator set.
var pruneOps = map[expr.Op]colstore.PruneOp{
	expr.OpEq: colstore.PruneEq, expr.OpNe: colstore.PruneNe, expr.OpLt: colstore.PruneLt,
	expr.OpLe: colstore.PruneLe, expr.OpGt: colstore.PruneGt, expr.OpGe: colstore.PruneGe,
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
	s.seg, s.pos, s.rows, s.cur, s.curMem = 0, 0, 0, nil, 0
	s.markOpen(ctx)
	return ctx.Err()
}

// NextBatch implements Operator: a window of the current segment's vectors,
// or, for a batch that straddles segments, a copy of their rows.
func (s *ColumnarScan) NextBatch(b *types.Batch) (int, error) {
	if err := s.checkOpen(); err != nil {
		return 0, err
	}
	for s.pos == s.rows {
		if ok, err := s.advance(); err != nil || !ok {
			return 0, err
		}
	}
	if s.rows-s.pos >= b.Max {
		b.View(s.cur, s.rows)
		b.Window(s.pos, b.Max)
		s.pos += b.Max
		return b.Max, nil
	}
	s.out.Reset(s.schema.Len())
	for s.out.N < b.Max {
		if s.pos == s.rows {
			if ok, err := s.advance(); err != nil {
				return 0, err
			} else if !ok {
				break
			}
		}
		n := min(b.Max-s.out.N, s.rows-s.pos)
		s.win.View(s.cur, s.rows)
		s.win.Window(s.pos, n)
		for c := range s.cur {
			if s.cur[c].Len() > 0 { // not a column left unread
				s.out.Cols[c].AppendRows(&s.cur[c], s.win.Sel)
			}
		}
		s.out.N += n
		s.pos += n
	}
	b.View(s.out.Cols, s.out.N)
	return s.out.N, nil
}

// advance loads the next surviving segment (or the buffered tail) into cur,
// releasing the previous segment's memory charge.
func (s *ColumnarScan) advance() (bool, error) {
	s.releaseSegment()
	s.pos, s.rows = 0, 0
	for s.seg < s.snap.NumSegments() {
		i := s.seg
		s.seg++
		if !s.snap.SegmentMayMatch(i, s.preds) {
			s.rec.notePruned(1)
			continue
		}
		vecs, err := s.readSegmentShared(i)
		if err != nil {
			return false, fmt.Errorf("exec: columnar scan: %w", err)
		}
		// Charge what the vectors keep resident, shared decodes too: this
		// query retains them as well as the peer that read them.
		charge := (&types.Batch{Cols: vecs}).MemSize(0)
		if err := s.mem.grow(charge); err != nil {
			return false, err
		}
		s.curMem = charge
		if s.rows = s.snap.SegmentRowCount(i); s.rows > 0 {
			s.cur = vecs
			return true, nil
		}
		s.releaseSegment()
	}
	if s.seg++; s.seg == s.snap.NumSegments()+1 && len(s.snap.Tail()) > 0 { // the tail, once
		var tail types.Batch
		emitRows(&tail, &tail, s.schema.Len(), s.snap.Tail())
		for c := range tail.Cols { // like a segment's, the unread columns are empty
			if s.required != nil && !slices.Contains(s.required, c) {
				tail.Cols[c] = types.Vec{}
			}
		}
		s.cur, s.rows = tail.Cols, tail.N
		return s.rows > 0, nil
	}
	return false, nil
}

// releaseSegment drops the current decoded segment and its memory charge.
func (s *ColumnarScan) releaseSegment() {
	s.mem.shrink(s.curMem)
	s.cur, s.curMem = nil, 0
}

// Close implements Operator.
func (s *ColumnarScan) Close() error {
	s.cur, s.curMem = nil, 0
	s.mem.releaseAll()
	s.closed = true
	return nil
}
