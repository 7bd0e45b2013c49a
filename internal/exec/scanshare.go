package exec

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"csq/internal/storage/colstore"
	"csq/internal/types"
)

// ScanShare coalesces concurrent segment decodes across queries: when several
// queries scan the same columnar table at once, only one of them (the leader)
// reads and decodes each segment; the others (followers) attach to the
// in-flight decode and share the resulting column vectors. This is work sharing,
// not caching — an entry exists only while a decode is in flight, so memory
// stays bounded by the set of segments being decoded right now, and there is
// nothing to invalidate: a flushed segment is immutable and identified by its
// (table, index) coordinates, so two snapshots that both contain segment i
// see byte-identical contents.
//
// Decoded vectors are immutable, so any number of queries read them at once;
// every sharing query still charges the decoded footprint to its own memory
// account (each retains the vectors independently).
//
// A ScanShare is safe for concurrent use; the service installs one per
// process and hands it to queries through the Open-time context, like the
// MemTracker and the ScanStatsRecorder.
type ScanShare struct {
	mu       sync.Mutex
	inflight map[shareSegKey]*shareEntry

	sharedSegs atomic.Int64
	ledSegs    atomic.Int64
}

// shareSegKey identifies one decodable unit of work: a specific immutable
// segment of a specific table restricted to a specific column set.
type shareSegKey struct {
	table *colstore.Table
	seg   int
	cols  string
}

// shareEntry is one in-flight decode. done closes when the leader finishes;
// the results are immutable afterwards.
type shareEntry struct {
	done      chan struct{}
	vecs      []types.Vec
	bytesRead int64
	err       error
}

// NewScanShare returns an empty coalescer.
func NewScanShare() *ScanShare {
	return &ScanShare{inflight: make(map[shareSegKey]*shareEntry)}
}

// SharedSegments returns how many segment decodes were answered by attaching
// to another query's in-flight read instead of reading disk.
func (ss *ScanShare) SharedSegments() int64 {
	if ss == nil {
		return 0
	}
	return ss.sharedSegs.Load()
}

// LedSegments returns how many segment decodes this coalescer led on behalf
// of at least one query.
func (ss *ScanShare) LedSegments() int64 {
	if ss == nil {
		return 0
	}
	return ss.ledSegs.Load()
}

// colsSignature renders a required-column set as a map key component.
func colsSignature(cols []int) string {
	if cols == nil {
		return "*"
	}
	return fmt.Sprint(cols)
}

// readSegment reads segment seg of the snapshot, coalescing with any
// concurrent identical read. shared reports whether the decode was served by
// a peer (bytesRead is then zero: this query did no disk I/O for it).
func (ss *ScanShare) readSegment(ctx context.Context, snap *colstore.Snapshot, table *colstore.Table, seg int, cols []int) (vecs []types.Vec, bytesRead int64, shared bool, err error) {
	key := shareSegKey{table: table, seg: seg, cols: colsSignature(cols)}
	ss.mu.Lock()
	if e, ok := ss.inflight[key]; ok {
		ss.mu.Unlock()
		select {
		case <-e.done:
			if e.err != nil {
				// The leader's failure may be its own cancellation, not a bad
				// segment; decode independently rather than inheriting it.
				break
			}
			ss.sharedSegs.Add(1)
			return e.vecs, 0, true, nil
		case <-ctx.Done():
			return nil, 0, false, context.Cause(ctx)
		}
		vecs, bytesRead, _, err = snap.ReadSegment(seg, cols, nil, nil)
		return vecs, bytesRead, false, err
	}
	e := &shareEntry{done: make(chan struct{})}
	ss.inflight[key] = e
	ss.mu.Unlock()

	e.vecs, e.bytesRead, _, e.err = snap.ReadSegment(seg, cols, nil, nil)
	ss.mu.Lock()
	delete(ss.inflight, key)
	ss.mu.Unlock()
	close(e.done)
	ss.ledSegs.Add(1)
	return e.vecs, e.bytesRead, false, e.err
}

// scanShareKey carries the process-wide coalescer through the Open-time
// context.
type scanShareKey struct{}

// WithScanShare returns a context carrying the coalescer; columnar scans pick
// it up in Open. The service layer installs one shared across all queries.
func WithScanShare(ctx context.Context, ss *ScanShare) context.Context {
	if ss == nil {
		return ctx
	}
	return context.WithValue(ctx, scanShareKey{}, ss)
}

// ScanShareFrom extracts the coalescer from an Open context; it returns nil
// (scans then decode independently) when none is installed.
func ScanShareFrom(ctx context.Context) *ScanShare {
	if ctx == nil {
		return nil
	}
	ss, _ := ctx.Value(scanShareKey{}).(*ScanShare)
	return ss
}

// readSegmentShared is the scan's decode entry point: through the coalescer
// when one is installed, direct otherwise. It also accounts the read into the
// recorder.
func (s *ColumnarScan) readSegmentShared(i int) ([]types.Vec, error) {
	start := time.Now()
	if s.share != nil {
		vecs, bytesRead, shared, err := s.share.readSegment(s.ctx, s.snap, s.table, i, s.required)
		if err == nil && shared {
			s.rec.noteShared(1)
		} else if err == nil {
			s.rec.noteScanned(bytesRead, time.Since(start).Nanoseconds())
		}
		return vecs, err
	}
	// Vectors nobody shares are decoded into the previous segment's.
	vecs, bytesRead, buf, err := s.snap.ReadSegment(i, s.required, s.buf, s.spare)
	s.buf, s.spare = buf, vecs
	if err != nil {
		return nil, err
	}
	s.rec.noteScanned(bytesRead, time.Since(start).Nanoseconds())
	return vecs, nil
}
