package exec

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"csq/internal/types"
)

// segmentRows reads a decoded segment's vectors back as rows.
func segmentRows(vecs []types.Vec) []types.Tuple {
	b := types.Batch{Cols: vecs}
	for _, v := range vecs {
		b.N = max(b.N, v.Len())
	}
	return b.Tuples()
}

// TestScanShareLeaderDecodes: with no decode in flight the caller becomes the
// leader, reads real bytes, and leaves the in-flight map empty afterwards.
func TestScanShareLeaderDecodes(t *testing.T) {
	tbl, rows := colTestTable(t, 64, 16)
	snap := tbl.Snapshot()
	ss := NewScanShare()

	tuples, bytesRead, shared, err := ss.readSegment(context.Background(), snap, tbl, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if shared {
		t.Fatal("sole reader reported a shared decode")
	}
	if bytesRead <= 0 {
		t.Fatalf("leader read %d bytes, want > 0", bytesRead)
	}
	if !bytes.Equal(encodeRows(t, segmentRows(tuples)), encodeRows(t, rows[:16])) {
		t.Fatal("leader decoded wrong rows")
	}
	if ss.LedSegments() != 1 || ss.SharedSegments() != 0 {
		t.Fatalf("led/shared = %d/%d, want 1/0", ss.LedSegments(), ss.SharedSegments())
	}
	ss.mu.Lock()
	n := len(ss.inflight)
	ss.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d entries still in flight after the decode finished", n)
	}
}

// TestScanShareFollowerAttaches pins the coalescing contract deterministically
// by planting the in-flight entry by hand: a second reader of the same
// (table, segment, columns) blocks on the leader, then returns the leader's
// tuples with zero disk I/O of its own.
func TestScanShareFollowerAttaches(t *testing.T) {
	tbl, _ := colTestTable(t, 64, 16)
	snap := tbl.Snapshot()
	ss := NewScanShare()
	key := shareSegKey{table: tbl, seg: 0, cols: colsSignature(nil)}
	e := &shareEntry{done: make(chan struct{})}
	ss.mu.Lock()
	ss.inflight[key] = e
	ss.mu.Unlock()

	type res struct {
		vecs      []types.Vec
		bytesRead int64
		shared    bool
		err       error
	}
	ch := make(chan res, 1)
	go func() {
		tu, b, sh, err := ss.readSegment(context.Background(), snap, tbl, 0, nil)
		ch <- res{tu, b, sh, err}
	}()

	// The follower must wait for the leader, not decode independently.
	select {
	case r := <-ch:
		t.Fatalf("follower returned before the leader finished: %+v", r)
	case <-time.After(30 * time.Millisecond):
	}

	sentinel := []types.Vec{{Kind: types.KindInt, Ints: []int64{42}}}
	e.vecs, e.bytesRead = sentinel, 12345
	close(e.done)

	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	if !r.shared {
		t.Fatal("follower did not report a shared decode")
	}
	if r.bytesRead != 0 {
		t.Fatalf("follower charged %d read bytes, want 0 (the leader did the I/O)", r.bytesRead)
	}
	if len(r.vecs) != 1 || r.vecs[0].Len() != 1 {
		t.Fatalf("follower got %v, want the leader's sentinel", r.vecs)
	}
	if v, _ := r.vecs[0].Value(0).Int(); v != 42 {
		t.Fatalf("follower cell = %v, want the leader's sentinel", r.vecs[0].Value(0))
	}
	if ss.SharedSegments() != 1 {
		t.Fatalf("SharedSegments = %d, want 1", ss.SharedSegments())
	}
}

// TestScanShareFollowerSurvivesLeaderError: a leader that fails (for example,
// cancelled mid-decode) must not poison its followers — they decode
// independently and still return the correct rows.
func TestScanShareFollowerSurvivesLeaderError(t *testing.T) {
	tbl, rows := colTestTable(t, 64, 16)
	snap := tbl.Snapshot()
	ss := NewScanShare()
	key := shareSegKey{table: tbl, seg: 1, cols: colsSignature(nil)}
	e := &shareEntry{done: make(chan struct{})}
	ss.mu.Lock()
	ss.inflight[key] = e
	ss.mu.Unlock()

	done := make(chan struct{})
	var tuples []types.Vec
	var shared bool
	var err error
	go func() {
		defer close(done)
		tuples, _, shared, err = ss.readSegment(context.Background(), snap, tbl, 1, nil)
	}()

	e.err = errors.New("leader cancelled")
	close(e.done)
	<-done
	if err != nil {
		t.Fatalf("follower inherited the leader's failure: %v", err)
	}
	if shared {
		t.Fatal("failed decode reported as shared")
	}
	if !bytes.Equal(encodeRows(t, segmentRows(tuples)), encodeRows(t, rows[16:32])) {
		t.Fatal("independent re-decode returned wrong rows")
	}
	if ss.SharedSegments() != 0 {
		t.Fatalf("SharedSegments = %d, want 0 after a failed leader", ss.SharedSegments())
	}
}

// TestScanShareFollowerHonorsCancellation: a follower waiting on a stuck
// leader must observe its own context's cancellation.
func TestScanShareFollowerHonorsCancellation(t *testing.T) {
	tbl, _ := colTestTable(t, 64, 16)
	snap := tbl.Snapshot()
	ss := NewScanShare()
	key := shareSegKey{table: tbl, seg: 0, cols: colsSignature(nil)}
	e := &shareEntry{done: make(chan struct{})} // never closed: leader is stuck
	ss.mu.Lock()
	ss.inflight[key] = e
	ss.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, _, err := ss.readSegment(ctx, snap, tbl, 0, nil)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled follower returned nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled follower never returned")
	}
}

// TestScanShareConcurrentScans runs many whole-table columnar scans through
// one coalescer at once: every query must still see byte-identical rows, and
// the counters must account for every segment decode exactly once — each
// request either led a decode or attached to one.
func TestScanShareConcurrentScans(t *testing.T) {
	tbl, rows := colTestTable(t, 256, 16) // 16 full segments, no tail
	want := encodeRows(t, rows)
	ss := NewScanShare()
	ctx := WithScanShare(context.Background(), ss)

	const queries = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, queries)
	for q := 0; q < queries; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got, err := collectBatches(ctx, NewColumnarScan(tbl, "", nil, nil), 1)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(encodeRows(t, got), want) {
				errs <- errors.New("concurrent shared scan returned wrong rows")
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	snap := tbl.Snapshot()
	total := int64(queries * snap.NumSegments())
	led, sharedN := ss.LedSegments(), ss.SharedSegments()
	if led+sharedN != total {
		t.Fatalf("led %d + shared %d != %d total segment requests", led, sharedN, total)
	}
	if led < int64(snap.NumSegments()) {
		t.Fatalf("led %d decodes, want at least one per segment (%d)", led, snap.NumSegments())
	}
}

// TestScanShareKeyedByColumns: decodes restricted to different column sets
// must not coalesce with each other — a projected decode's tuples would be
// wrong for a full-width reader.
func TestScanShareKeyedByColumns(t *testing.T) {
	tbl, rows := colTestTable(t, 32, 16)
	snap := tbl.Snapshot()
	ss := NewScanShare()

	full, _, _, err := ss.readSegment(context.Background(), snap, tbl, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	proj, _, _, err := ss.readSegment(context.Background(), snap, tbl, 0, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeRows(t, segmentRows(full)), encodeRows(t, rows[:16])) {
		t.Fatal("full decode wrong")
	}
	if proj[0].Len() != 0 || proj[2].Len() != 0 || proj[1].Len() != 16 {
		t.Fatal("projected decode did not restrict columns")
	}
	if ss.LedSegments() != 2 || ss.SharedSegments() != 0 {
		t.Fatalf("led/shared = %d/%d, want 2/0 (distinct column sets must not share)",
			ss.LedSegments(), ss.SharedSegments())
	}
}
