package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"csq/internal/storage"
)

// MemTracker is the per-query memory governor. Memory-hungry operators (the
// key tables of HashJoin and HashAggregate, the semi-join's argument table,
// results and parked records, and the client-site join's records in
// flight) charge it as they grow and release their charge on
// Close. Two thresholds apply:
//
//   - Budget is the soft spill threshold: once total charged memory exceeds
//     it, operators that can spill (HashJoin, HashAggregate) partition their
//     state to disk, Grace-style, and continue within budget.
//   - HardLimit is the hard failure threshold: a charge that would exceed it
//     fails with ErrMemoryLimit, killing the query instead of the process.
//     It backstops the operators that cannot spill.
//
// A nil *MemTracker is valid and tracks nothing — operators call its methods
// unconditionally. Trackers are safe for concurrent use; one tracker governs
// all operators of one query, however parallel they run.
type MemTracker struct {
	budget  int64  // soft spill threshold; <= 0 means unlimited
	hard    int64  // hard failure threshold; <= 0 means none
	tempDir string // spill directory; empty means the system temp dir

	// Crash-safe spill namespacing: when a spill root is configured and a
	// query ID is bound, every spill run is a retained (named) file inside a
	// per-query namespace directory under the root. The namespace is created
	// lazily on first spill, removed by CleanupSpill when the query finishes,
	// and reclaimed by storage.SweepSpillDirs after a crash.
	nsQueryID uint64
	nsBound   bool
	nsMu      sync.Mutex
	nsDir     string
	nsErr     error

	used         atomic.Int64
	peak         atomic.Int64
	spillEvents  atomic.Int64
	spilledBytes atomic.Int64
}

// ErrMemoryLimit is returned (wrapped) when a query exceeds its hard memory
// limit.
var ErrMemoryLimit = errors.New("query memory limit exceeded")

// NewMemTracker returns a tracker with the given soft spill budget in bytes
// (<= 0 means unlimited).
func NewMemTracker(budget int64) *MemTracker {
	return &MemTracker{budget: budget}
}

// SetHardLimit sets the hard failure threshold in bytes (<= 0 means none).
func (t *MemTracker) SetHardLimit(n int64) { t.hard = n }

// SetTempDir sets the directory spill runs are created in.
func (t *MemTracker) SetTempDir(dir string) { t.tempDir = dir }

// BindSpillNamespace enables crash-safe per-query spill namespacing: spill
// runs become retained files inside storage.SpillNamespace(tempDir, queryID),
// created on first spill. Without a configured temp dir the call is a no-op
// and runs stay anonymous (unlinked) in the system temp dir.
func (t *MemTracker) BindSpillNamespace(queryID uint64) {
	if t == nil || t.tempDir == "" {
		return
	}
	t.nsQueryID = queryID
	t.nsBound = true
}

// NewSpillRun creates one spill run governed by this tracker: a retained run
// inside the query's namespace when one is bound, an anonymous unlinked run
// in the temp dir otherwise. Nil-safe.
func (t *MemTracker) NewSpillRun() (*storage.RunWriter, error) {
	if t == nil || !t.nsBound {
		return storage.NewRunWriter(t.TempDir())
	}
	t.nsMu.Lock()
	if t.nsDir == "" && t.nsErr == nil {
		t.nsDir, t.nsErr = storage.CreateSpillNamespace(t.tempDir, t.nsQueryID)
	}
	dir, err := t.nsDir, t.nsErr
	t.nsMu.Unlock()
	if err != nil {
		return nil, err
	}
	return storage.NewRetainedRunWriter(dir)
}

// CleanupSpill removes the query's spill namespace (and any runs a failed
// query left inside it). Safe to call whether or not anything spilled.
func (t *MemTracker) CleanupSpill() {
	if t == nil {
		return
	}
	t.nsMu.Lock()
	dir := t.nsDir
	t.nsDir, t.nsErr = "", nil
	t.nsMu.Unlock()
	_ = storage.RemoveSpillNamespace(dir)
}

// TempDir returns the spill directory ("" selects the system temp dir).
func (t *MemTracker) TempDir() string {
	if t == nil {
		return ""
	}
	return t.tempDir
}

// Grow charges n bytes against the query. It fails only when the hard limit
// would be exceeded; soft-budget pressure is reported by OverBudget so that
// spilling operators can react.
func (t *MemTracker) Grow(n int64) error {
	if t == nil || n == 0 {
		return nil
	}
	used := t.used.Add(n)
	if t.hard > 0 && used > t.hard {
		t.used.Add(-n)
		return fmt.Errorf("exec: %w: %d bytes in use, hard limit %d", ErrMemoryLimit, used, t.hard)
	}
	for {
		peak := t.peak.Load()
		if used <= peak || t.peak.CompareAndSwap(peak, used) {
			return nil
		}
	}
}

// Shrink releases n previously charged bytes.
func (t *MemTracker) Shrink(n int64) {
	if t == nil || n == 0 {
		return
	}
	t.used.Add(-n)
}

// OverBudget reports whether charged memory exceeds the soft budget. A nil or
// unbudgeted tracker is never over budget.
func (t *MemTracker) OverBudget() bool {
	return t != nil && t.budget > 0 && t.used.Load() > t.budget
}

// NoteSpill records one spill event moving n bytes to disk.
func (t *MemTracker) NoteSpill(n int64) {
	if t == nil {
		return
	}
	t.spillEvents.Add(1)
	t.spilledBytes.Add(n)
}

// NoteSpillBytes adds n bytes to the spilled-bytes total without counting a
// new spill event (follow-up writes of an already-recorded spill).
func (t *MemTracker) NoteSpillBytes(n int64) {
	if t == nil {
		return
	}
	t.spilledBytes.Add(n)
}

// Peak returns the high-water mark of charged bytes.
func (t *MemTracker) Peak() int64 {
	if t == nil {
		return 0
	}
	return t.peak.Load()
}

// SpillEvents returns how many times operators spilled under this tracker.
func (t *MemTracker) SpillEvents() int64 {
	if t == nil {
		return 0
	}
	return t.spillEvents.Load()
}

// SpilledBytes returns the total bytes written to spill runs.
func (t *MemTracker) SpilledBytes() int64 {
	if t == nil {
		return 0
	}
	return t.spilledBytes.Load()
}

// memAccount tracks one operator's share of a tracker's charge so Close can
// release exactly what the operator grew, even when several goroutines charge
// concurrently (the semi-join's sender and readers).
type memAccount struct {
	t *MemTracker
	n atomic.Int64
}

// grow charges n bytes to the operator's account.
func (a *memAccount) grow(n int64) error {
	if err := a.t.Grow(n); err != nil {
		return err
	}
	a.n.Add(n)
	return nil
}

// shrink returns n bytes of the account to the tracker.
func (a *memAccount) shrink(n int64) {
	if n == 0 {
		return
	}
	a.t.Shrink(n)
	a.n.Add(-n)
}

// releaseAll returns the whole account to the tracker.
func (a *memAccount) releaseAll() {
	if n := a.n.Swap(0); n != 0 {
		a.t.Shrink(n)
	}
}

// memTrackerKey carries the query's MemTracker through the Open-time context.
type memTrackerKey struct{}

// WithMemTracker returns a context carrying the tracker; operators pick it up
// in Open. The service layer installs one per query.
func WithMemTracker(ctx context.Context, t *MemTracker) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, memTrackerKey{}, t)
}

// MemTrackerFrom extracts the query's tracker from an Open context; it
// returns nil (a valid, no-op tracker) when none is installed.
func MemTrackerFrom(ctx context.Context) *MemTracker {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(memTrackerKey{}).(*MemTracker)
	return t
}
