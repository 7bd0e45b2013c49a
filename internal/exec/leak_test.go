package exec

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"csq/internal/types"
)

// grCount returns the current goroutine count, excluding the runtime's own
// bookkeeping noise by forcing a couple of scheduling points first.
func grCount() int {
	runtime.Gosched()
	return runtime.NumGoroutine()
}

// assertNoLeak retries until the goroutine count returns to (at most) the
// baseline, failing with a stack dump after the deadline. Session readers,
// senders and client-runtime serving goroutines must all have exited by the
// time an operator's Close returns — modulo the brief teardown window of the
// in-process client runtime, which the retry loop absorbs.
func assertNoLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := grCount(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d goroutines, baseline %d\n%s", grCount(), baseline, dumpInteresting(string(buf)))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// dumpInteresting filters a full stack dump down to this module's frames.
func dumpInteresting(stack string) string {
	var keep []string
	for _, g := range strings.Split(stack, "\n\n") {
		if strings.Contains(g, "csq/internal") && !strings.Contains(g, "leak_test") {
			keep = append(keep, g)
		}
	}
	return strings.Join(keep, "\n\n")
}

// earlyCloseCases enumerates the client-site operators whose early Close (a
// LIMIT above them abandoning the stream mid-flight) must join every session
// reader and sender goroutine.
func earlyCloseCases(t *testing.T) map[string]func(link ClientLink) (Operator, error) {
	rows := stockRows(512)
	return map[string]func(link ClientLink) (Operator, error){
		"SemiJoin": func(link ClientLink) (Operator, error) {
			op, err := NewSemiJoin(NewValuesScan(stockSchema(), rows), link, []UDFBinding{analysisBinding()})
			if err != nil {
				return nil, err
			}
			op.Sessions = 3
			return op, nil
		},
		"ClientJoin": func(link ClientLink) (Operator, error) {
			op, err := NewClientJoin(NewValuesScan(stockSchema(), rows), link, []UDFBinding{analysisBinding()})
			if err != nil {
				return nil, err
			}
			op.Sessions = 3
			return op, nil
		},
		"naive": func(link ClientLink) (Operator, error) {
			op, err := newNaive(NewValuesScan(stockSchema(), rows), link, []UDFBinding{analysisBinding()})
			if err != nil {
				return nil, err
			}
			op.Sessions = 3
			return op, nil
		},
	}
}

// TestEarlyCloseJoinsAllReaders closes each client-site operator after
// consuming a handful of rows — long before exhaustion — and asserts that no
// session reader, sender, or client-runtime goroutine outlives Close.
func TestEarlyCloseJoinsAllReaders(t *testing.T) {
	for name, build := range earlyCloseCases(t) {
		t.Run(name, func(t *testing.T) {
			baseline := grCount()
			for round := 0; round < 3; round++ {
				op, err := build(fastLink(t))
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				if err := op.Open(context.Background()); err != nil {
					t.Fatalf("open: %v", err)
				}
				row := &types.Batch{Max: 1}
				for i := 0; i < 5; i++ {
					if n, err := op.NextBatch(row); err != nil || n != 1 {
						t.Fatalf("row %d: n=%d err=%v", i, n, err)
					}
				}
				if err := op.Close(); err != nil {
					t.Fatalf("close: %v", err)
				}
			}
			assertNoLeak(t, baseline)
		})
	}
}

// TestCancelledQueryJoinsAllReaders cancels the query context mid-stream and
// then closes the operator, asserting the same zero-leak property on the
// cancellation path (where readers are unblocked by the context binding
// slamming the connection deadlines, not by a clean drain).
func TestCancelledQueryJoinsAllReaders(t *testing.T) {
	for name, build := range earlyCloseCases(t) {
		t.Run(name, func(t *testing.T) {
			baseline := grCount()
			op, err := build(fastLink(t))
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			if err := op.Open(ctx); err != nil {
				t.Fatalf("open: %v", err)
			}
			row := &types.Batch{Max: 1}
			if n, err := op.NextBatch(row); err != nil || n != 1 {
				t.Fatalf("first row: n=%d err=%v", n, err)
			}
			cancel()
			// Drain until the cancellation surfaces; the error may take one
			// batch boundary to propagate.
			for i := 0; ; i++ {
				n, err := op.NextBatch(row)
				if err != nil || n == 0 {
					break
				}
				if i > DefaultBatchSize*4 {
					t.Fatalf("cancelled operator kept producing rows")
				}
			}
			if err := op.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			assertNoLeak(t, baseline)
		})
	}
}

// TestRepeatedEarlyCloseDoesNotAccumulate runs many early-close cycles and
// bounds the total goroutine growth, which catches slow per-query leaks that
// a single-shot comparison might hide inside the retry tolerance.
func TestRepeatedEarlyCloseDoesNotAccumulate(t *testing.T) {
	build := earlyCloseCases(t)["SemiJoin"]
	baseline := grCount()
	for round := 0; round < 20; round++ {
		op, err := build(fastLink(t))
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		if err := op.Open(context.Background()); err != nil {
			t.Fatalf("open: %v", err)
		}
		if n, err := op.NextBatch(&types.Batch{Max: 1}); err != nil || n != 1 {
			t.Fatalf("round %d: n=%d err=%v", round, n, err)
		}
		if err := op.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
	assertNoLeak(t, baseline)
}
