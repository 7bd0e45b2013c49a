package exec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"csq/internal/expr"
	"csq/internal/types"
)

// lcg is a tiny deterministic generator so spill tests build the same data
// every run.
type lcg struct{ s uint64 }

func (l *lcg) next() uint64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return l.s >> 33
}

func spillRows(n, keySpace int, seed uint64) []types.Tuple {
	g := &lcg{s: seed}
	rows := make([]types.Tuple, n)
	for i := range rows {
		k := int64(g.next() % uint64(keySpace))
		rows[i] = types.Tuple{
			types.NewInt(k),
			types.NewInt(int64(g.next() % 17)),
			types.NewString(fmt.Sprintf("payload-%03d-%d", g.next()%997, i)),
			types.NewFloat(float64(g.next()%100000) / 7),
		}
	}
	return rows
}

func spillSchema(prefix string) *types.Schema {
	return types.NewSchema(
		types.Column{Name: prefix + "K", Kind: types.KindInt},
		types.Column{Name: prefix + "G", Kind: types.KindInt},
		types.Column{Name: prefix + "S", Kind: types.KindString},
		types.Column{Name: prefix + "V", Kind: types.KindFloat},
	)
}

// encodeAll renders a result set to its canonical bytes; byte equality here
// is the "byte-identical results" the spill paths promise.
func encodeAll(t *testing.T, rows []types.Tuple) []byte {
	t.Helper()
	var buf []byte
	var err error
	for _, r := range rows {
		buf, err = types.EncodeTuple(buf, r)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	return buf
}

func TestHashJoinSpillByteIdentical(t *testing.T) {
	left := spillRows(1200, 300, 1)
	right := spillRows(800, 300, 2)
	residual := expr.NewBinary(expr.OpGt,
		expr.NewBoundColumnRef(3, types.KindFloat),
		expr.NewConst(types.NewFloat(100)))

	build := func() *HashJoin {
		j, err := NewHashJoin(
			NewValuesScan(spillSchema("l"), left),
			NewValuesScan(spillSchema("r"), right),
			[]int{0}, []int{0}, residual)
		if err != nil {
			t.Fatalf("new join: %v", err)
		}
		j.SpillPartitions = 8
		return j
	}

	want, err := Collect(context.Background(), build())
	if err != nil {
		t.Fatalf("in-memory join: %v", err)
	}

	tracker := NewMemTracker(32 << 10)
	ctx := WithMemTracker(context.Background(), tracker)
	got, err := Collect(ctx, build())
	if err != nil {
		t.Fatalf("spilled join: %v", err)
	}
	if tracker.SpillEvents() == 0 {
		t.Fatalf("expected the join build to spill under a %d-byte budget (peak %d)", tracker.Budget(), tracker.Peak())
	}
	if tracker.SpilledBytes() == 0 {
		t.Fatalf("spill recorded no bytes")
	}
	if len(got) != len(want) {
		t.Fatalf("spilled join produced %d rows, want %d", len(got), len(want))
	}
	if !bytes.Equal(encodeAll(t, got), encodeAll(t, want)) {
		t.Fatalf("spilled join output differs from in-memory output")
	}
	if tracker.Used() != 0 {
		t.Fatalf("tracker still charged %d bytes after Close", tracker.Used())
	}

	// A one-row-at-a-time drain must see the same spilled stream.
	tracker2 := NewMemTracker(32 << 10)
	oneByOne, err := collectBatches(WithMemTracker(context.Background(), tracker2), build(), 1)
	if err != nil {
		t.Fatalf("spilled join, batch size 1: %v", err)
	}
	if !bytes.Equal(encodeAll(t, oneByOne), encodeAll(t, want)) {
		t.Fatalf("spilled join output at batch size 1 differs from in-memory output")
	}
}

func TestHashAggregateSpillByteIdentical(t *testing.T) {
	rows := spillRows(4000, 900, 7)
	aggs := []Aggregate{
		{Func: AggCount, Ordinal: -1, Name: "n"},
		{Func: AggSum, Ordinal: 3, Name: "sum_v"},
		{Func: AggAvg, Ordinal: 3, Name: "avg_v"},
		{Func: AggMin, Ordinal: 2, Name: "min_s"},
		{Func: AggMax, Ordinal: 3, Name: "max_v"},
	}
	build := func() *HashAggregate {
		h, err := NewHashAggregate(NewValuesScan(spillSchema(""), rows), []int{0}, aggs)
		if err != nil {
			t.Fatalf("new aggregate: %v", err)
		}
		h.SpillPartitions = 8
		return h
	}

	want, err := Collect(context.Background(), build())
	if err != nil {
		t.Fatalf("in-memory aggregate: %v", err)
	}

	tracker := NewMemTracker(24 << 10)
	got, err := Collect(WithMemTracker(context.Background(), tracker), build())
	if err != nil {
		t.Fatalf("spilled aggregate: %v", err)
	}
	if tracker.SpillEvents() == 0 {
		t.Fatalf("expected the aggregate to spill under a %d-byte budget (peak %d)", tracker.Budget(), tracker.Peak())
	}
	if len(got) != len(want) {
		t.Fatalf("spilled aggregate produced %d rows, want %d", len(got), len(want))
	}
	if !bytes.Equal(encodeAll(t, got), encodeAll(t, want)) {
		t.Fatalf("spilled aggregate output differs from in-memory output")
	}
	if tracker.Used() != 0 {
		t.Fatalf("tracker still charged %d bytes after Close", tracker.Used())
	}
}

// TestHashAggregateHardMemoryLimit: with no spill budget, a group table
// that outgrows the hard limit fails the query.
func TestHashAggregateHardMemoryLimit(t *testing.T) {
	rows := spillRows(2000, 2000, 11)
	d, err := NewHashAggregate(NewValuesScan(spillSchema(""), rows), []int{2}, []Aggregate{{Func: AggCount, Ordinal: -1}})
	if err != nil {
		t.Fatal(err)
	}
	tracker := NewMemTracker(0)
	tracker.SetHardLimit(8 << 10)
	_, err = Collect(WithMemTracker(context.Background(), tracker), d)
	if !errors.Is(err, ErrMemoryLimit) {
		t.Fatalf("expected ErrMemoryLimit, got %v", err)
	}
}

func TestCancellationStopsOperatorsAtBatchBoundary(t *testing.T) {
	rows := spillRows(512, 100, 13)
	j, err := NewHashJoin(
		NewValuesScan(spillSchema("l"), rows),
		NewValuesScan(spillSchema("r"), rows),
		[]int{0}, []int{0}, nil)
	if err != nil {
		t.Fatalf("new join: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := j.Open(ctx); err != nil {
		t.Fatalf("open: %v", err)
	}
	defer j.Close()
	row := &types.Batch{Max: 1}
	if n, err := j.NextBatch(row); err != nil || n != 1 {
		t.Fatalf("first row: n=%d err=%v", n, err)
	}
	cancel()
	if _, err := j.NextBatch(row); !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled after cancel, got %v", err)
	}
	batch := &types.Batch{Max: 8}
	if _, err := j.NextBatch(batch); !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled from NextBatch, got %v", err)
	}
}

func TestMemTrackerPeakAndRelease(t *testing.T) {
	tr := NewMemTracker(0)
	if err := tr.Grow(100); err != nil {
		t.Fatalf("grow: %v", err)
	}
	if err := tr.Grow(50); err != nil {
		t.Fatalf("grow: %v", err)
	}
	tr.Shrink(120)
	if got := tr.Used(); got != 30 {
		t.Fatalf("used = %d, want 30", got)
	}
	if got := tr.Peak(); got != 150 {
		t.Fatalf("peak = %d, want 150", got)
	}
	var nilTracker *MemTracker
	if err := nilTracker.Grow(1 << 40); err != nil {
		t.Fatalf("nil tracker must be a no-op, got %v", err)
	}
	if nilTracker.OverBudget() {
		t.Fatalf("nil tracker over budget")
	}
}

func TestMemTrackerKnobsAndHardLimit(t *testing.T) {
	tr := NewMemTracker(1000)
	tr.SetHardLimit(2000)
	tr.SetTempDir("/tmp/spills")
	if tr.Budget() != 1000 {
		t.Fatalf("budget = %d", tr.Budget())
	}
	if tr.TempDir() != "/tmp/spills" {
		t.Fatalf("tempdir = %q", tr.TempDir())
	}
	if err := tr.Grow(1500); err != nil {
		t.Fatalf("grow within hard limit: %v", err)
	}
	if !tr.OverBudget() {
		t.Fatalf("1500 > 1000 budget should be over budget")
	}
	if err := tr.Grow(1000); !errors.Is(err, ErrMemoryLimit) {
		t.Fatalf("hard-limit breach returned %v", err)
	}
	if tr.Used() != 1500 {
		t.Fatalf("failed grow must not stick: used = %d", tr.Used())
	}
	tr.NoteSpill(100)
	tr.NoteSpillBytes(50)
	if tr.SpillEvents() != 1 || tr.SpilledBytes() != 150 {
		t.Fatalf("spill accounting: events=%d bytes=%d", tr.SpillEvents(), tr.SpilledBytes())
	}

	var nilTracker *MemTracker
	if nilTracker.Budget() != 0 || nilTracker.TempDir() != "" || nilTracker.Peak() != 0 ||
		nilTracker.SpillEvents() != 0 || nilTracker.SpilledBytes() != 0 {
		t.Fatalf("nil tracker accessors must be zero")
	}
	nilTracker.Shrink(5)
	nilTracker.NoteSpill(1)
	nilTracker.NoteSpillBytes(1)
	if MemTrackerFrom(context.Background()) != nil {
		t.Fatalf("context without tracker must yield nil")
	}
	if WithMemTracker(context.Background(), nil) == nil {
		t.Fatalf("WithMemTracker(nil) must pass the context through")
	}
	ctx := WithMemTracker(context.Background(), tr)
	if MemTrackerFrom(ctx) != tr {
		t.Fatalf("tracker did not round-trip through the context")
	}
	if MemTrackerFrom(nil) != nil { //nolint:staticcheck // nil ctx tolerated by design
		t.Fatalf("nil context must yield nil tracker")
	}
}
