package service

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"csq/internal/catalog"
	"csq/internal/exec"
	"csq/internal/logical"
	"csq/internal/plan"
	"csq/internal/storage"
	"csq/internal/types"
)

// benchCatalog builds a small two-table catalog (no client runtime: the
// benchmark exercises the service machinery — admission, planning with the
// shared stats cache, the governed execution loop — not the wire).
func benchCatalog(b *testing.B, rows int) *catalog.Catalog {
	b.Helper()
	cat := catalog.New()
	events, err := storage.NewHeapTable("events", eventsSchema())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := events.Insert(types.NewTuple(
			types.NewInt(int64(i%17)),
			types.NewInt(int64((i*7)%128)),
			types.NewString(fmt.Sprintf("event-payload-%05d", i)),
			types.NewFloat(float64(i%1000)/3),
		)); err != nil {
			b.Fatal(err)
		}
	}
	if err := cat.AddTable(&catalog.Table{Name: "events", Schema: eventsSchema(), Stats: events.Stats(), Data: events}); err != nil {
		b.Fatal(err)
	}
	dims, err := storage.NewHeapTable("dims", dimsSchema())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := dims.Insert(types.NewTuple(types.NewInt(int64(i)), types.NewString(fmt.Sprintf("dim-%04d", i)))); err != nil {
			b.Fatal(err)
		}
	}
	if err := cat.AddTable(&catalog.Table{Name: "dims", Schema: dimsSchema(), Stats: dims.Stats(), Data: dims}); err != nil {
		b.Fatal(err)
	}
	return cat
}

func benchTree(b *testing.B, cat *catalog.Catalog) logical.Node {
	b.Helper()
	dimsScan, err := scanByName(cat, "dims", "")
	if err != nil {
		b.Fatal(err)
	}
	eventsScan, err := scanByName(cat, "events", "")
	if err != nil {
		b.Fatal(err)
	}
	join, err := logical.NewJoin(dimsScan, eventsScan, []int{0}, []int{1}, nil)
	if err != nil {
		b.Fatal(err)
	}
	agg, err := logical.NewAggregate(join, []int{3}, []exec.Aggregate{
		{Func: exec.AggCount, Ordinal: -1, Name: "n"},
		{Func: exec.AggSum, Ordinal: 5, Name: "sum_val"},
	})
	if err != nil {
		b.Fatal(err)
	}
	return agg
}

// BenchmarkServiceConcurrent8 pushes 8 concurrent join+aggregate queries
// through the Service per operation: admission, per-query context and
// tracker setup, planning (stats-cache served after the first round), and
// the governed execution loop. The /batch variant is gated by benchrun like
// the execution-engine batch paths.
func BenchmarkServiceConcurrent8(b *testing.B) {
	cat := benchCatalog(b, 512)
	svc := New(cat, Config{MaxConcurrent: 8, Planner: plan.Config{Link: fixedLink()}})
	defer svc.Close()
	tree := benchTree(b, cat)

	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for j := 0; j < 8; j++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := svc.Execute(context.Background(), Request{Tree: tree}); err != nil {
						b.Error(err)
					}
				}()
			}
			wg.Wait()
		}
	})
}

// BenchmarkServiceOverloadShed measures the cost of refusing work: the one
// execution slot and the one queue seat are pinned, so every measured
// submission takes the typed shed path — handle registration, the admission
// controller's queue-full refusal, and the terminal StateShed bookkeeping.
// This is the path a server leans on hardest when it is already saturated,
// so it must stay cheap; the /batch variant is gated by benchrun.
func BenchmarkServiceOverloadShed(b *testing.B) {
	cat := benchCatalog(b, 64)
	svc := New(cat, Config{MaxConcurrent: 1, MaxQueued: 1, Planner: plan.Config{Link: fixedLink()}})
	defer svc.Close()
	tree := benchTree(b, cat)

	// Pin the slot with a query whose sink blocks, then park a second query
	// on the single queue seat.
	started := make(chan struct{})
	hold := make(chan struct{})
	var once sync.Once
	blocker, err := svc.Submit(context.Background(), Request{Tree: tree, OnBatch: func([]types.Tuple) error {
		once.Do(func() { close(started) })
		<-hold
		return nil
	}})
	if err != nil {
		b.Fatal(err)
	}
	<-started
	queued, err := svc.Submit(context.Background(), Request{Tree: tree})
	if err != nil {
		b.Fatal(err)
	}
	for svc.Stats().Admission.Queued < 1 {
		time.Sleep(100 * time.Microsecond)
	}

	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q, err := svc.Submit(context.Background(), Request{Tree: tree})
			if err != nil {
				b.Fatal(err)
			}
			if _, werr := q.Wait(); werr == nil {
				b.Fatal("saturated submission was not shed")
			}
		}
	})

	close(hold)
	if _, err := blocker.Wait(); err != nil {
		b.Fatal(err)
	}
	if _, err := queued.Wait(); err != nil {
		b.Fatal(err)
	}
}
