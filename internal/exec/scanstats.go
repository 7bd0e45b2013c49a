package exec

import (
	"context"
	"sync/atomic"
)

// ScanStats summarizes the storage I/O of one query's scans: how many column
// segments were read, how many were skipped by zone-map pruning before any
// disk read, how many on-disk bytes were actually read, and how long decoding
// them took. The service layer surfaces them in its per-query statistics.
type ScanStats struct {
	// SegmentsScanned counts the segments read and decoded.
	SegmentsScanned int64
	// SegmentsPruned counts the segments skipped via zone maps.
	SegmentsPruned int64
	// BytesRead is the on-disk bytes read by the scans (only the requested
	// columns of the surviving segments).
	BytesRead int64
	// DecodeNs is the total wall time in nanoseconds spent reading and
	// decoding segments.
	DecodeNs int64
	// SegmentsShared counts the segments obtained by attaching to another
	// query's in-flight decode (shared scans): no disk read and no decode
	// work were spent on them by this query.
	SegmentsShared int64
}

// ScanStatsRecorder collects ScanStats across all scans of one query. Like the
// MemTracker it travels through the Open-time context and is safe for
// concurrent use (parallel scans of one query share it); a nil recorder is
// valid and records nothing.
type ScanStatsRecorder struct {
	segmentsScanned atomic.Int64
	segmentsPruned  atomic.Int64
	bytesRead       atomic.Int64
	decodeNs        atomic.Int64
	segmentsShared  atomic.Int64
}

// noteScanned records one decoded segment.
func (r *ScanStatsRecorder) noteScanned(bytes, decodeNs int64) {
	if r == nil {
		return
	}
	r.segmentsScanned.Add(1)
	r.bytesRead.Add(bytes)
	r.decodeNs.Add(decodeNs)
}

// noteShared records n segments served by a peer's in-flight decode.
func (r *ScanStatsRecorder) noteShared(n int64) {
	if r == nil {
		return
	}
	r.segmentsShared.Add(n)
}

// notePruned records n segments skipped via zone maps.
func (r *ScanStatsRecorder) notePruned(n int64) {
	if r == nil {
		return
	}
	r.segmentsPruned.Add(n)
}

// Stats returns the accumulated totals.
func (r *ScanStatsRecorder) Stats() ScanStats {
	if r == nil {
		return ScanStats{}
	}
	return ScanStats{
		SegmentsScanned: r.segmentsScanned.Load(),
		SegmentsPruned:  r.segmentsPruned.Load(),
		BytesRead:       r.bytesRead.Load(),
		DecodeNs:        r.decodeNs.Load(),
		SegmentsShared:  r.segmentsShared.Load(),
	}
}

// scanStatsKey carries the query's recorder through the Open-time context.
type scanStatsKey struct{}

// WithScanStats returns a context carrying the recorder; scans pick it up in
// Open. The service layer installs one per query.
func WithScanStats(ctx context.Context, r *ScanStatsRecorder) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, scanStatsKey{}, r)
}

// ScanStatsFrom extracts the query's recorder from an Open context; it returns
// nil (a valid, no-op recorder) when none is installed.
func ScanStatsFrom(ctx context.Context) *ScanStatsRecorder {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(scanStatsKey{}).(*ScanStatsRecorder)
	return r
}
