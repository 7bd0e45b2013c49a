package service

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"csq/internal/exec"
	"csq/internal/logical"
	"csq/internal/plan"
	"csq/internal/storage"
	"csq/internal/types"
	"csq/internal/wire"
)

// eventsHeap digs the events heap table back out of the fixture's catalog so
// invalidation tests can write to it.
func eventsHeap(t testing.TB, fx *serviceFixture) *storage.HeapTable {
	t.Helper()
	tbl, err := fx.cat.Table("events")
	if err != nil {
		t.Fatal(err)
	}
	heap, ok := tbl.Data.(*storage.HeapTable)
	if !ok {
		t.Fatalf("events table data is %T, want *storage.HeapTable", tbl.Data)
	}
	return heap
}

// hotTree is the storm's query shape: a UDF-free join+aggregate, eligible for
// both the plan cache and the result cache.
func hotTree(t testing.TB, fx *serviceFixture) logical.Node {
	t.Helper()
	return joinAggTree(t, fx.cat, 2)
}

// runHotStorm fires requesters concurrent executors at svc — requesters/4
// tenants, every 4th request under a deadline — each running rounds
// executions of its own instance of the hot query shape. Every result is
// checked byte-for-byte against want; the per-request latencies come back
// sorted.
func runHotStorm(t *testing.T, fx *serviceFixture, svc *Service, requesters, rounds int, want []byte) []time.Duration {
	t.Helper()
	var mu sync.Mutex
	var latencies []time.Duration
	var firstErr error
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < requesters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tree := hotTree(t, fx)
			tenant := fmt.Sprintf("tenant-%d", i%4)
			<-start
			for r := 0; r < rounds; r++ {
				req := Request{Tree: tree, Tenant: tenant}
				if (i*rounds+r)%4 == 0 {
					// Mixed deadlines: a quarter of the storm runs under a
					// generous timeout that correct serving must never trip.
					req.Timeout = 30 * time.Second
				}
				began := time.Now()
				res, err := svc.Execute(context.Background(), req)
				took := time.Since(began)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("requester %d round %d: %w", i, r, err)
				}
				if err == nil && !bytes.Equal(encodeRows(t, res.Rows), want) {
					if firstErr == nil {
						firstErr = fmt.Errorf("requester %d round %d: rows differ from reference", i, r)
					}
				}
				latencies = append(latencies, took)
				mu.Unlock()
			}
		}(i)
	}
	close(start)
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
	return latencies
}

func median(sorted []time.Duration) time.Duration {
	return sorted[len(sorted)/2]
}

// TestServiceHotQueryStormAcceptance is the acceptance criterion of the
// heavy-traffic serving layer: a 32-requester hot-query storm across 4
// tenants with mixed deadlines, byte-identical with and without the caches,
// with at least a 2x median-latency improvement on the cached path, and a
// write invalidating the cached result (version bump -> miss), pinned by
// the stats flags.
func TestServiceHotQueryStormAcceptance(t *testing.T) {
	fx := newServiceFixture(t)
	defer fx.cleanup()
	want := encodeRows(t, referenceRun(t, fx, hotTree(t, fx)))

	const requesters, rounds = 32, 4
	tenants := map[string]TenantPolicy{
		"tenant-0": {Weight: 4},
		"tenant-1": {Weight: 2},
		"tenant-2": {Weight: 1},
		"tenant-3": {Weight: 1},
	}

	// Cold path: no serving caches at all.
	cold := New(fx.cat, Config{
		MaxConcurrent: 8,
		MaxQueued:     2 * requesters * rounds,
		Planner:       plan.Config{Link: fixedLink()},
		Tenants:       tenants,
	})
	coldLat := runHotStorm(t, fx, cold, requesters, rounds, want)

	// Hot path: plan cache, result cache and shared scans on. One warming
	// execution, then the same storm.
	hot := New(fx.cat, Config{
		MaxConcurrent:    8,
		MaxQueued:        2 * requesters * rounds,
		Planner:          plan.Config{Link: fixedLink()},
		Tenants:          tenants,
		PlanCacheEntries: 32,
		ResultCacheBytes: 32 << 20,
		SharedScans:      true,
	})
	warm, err := hot.Execute(context.Background(), Request{Tree: hotTree(t, fx)})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.ResultFromCache {
		t.Fatal("warming execution cannot be a cache hit")
	}
	if !bytes.Equal(encodeRows(t, warm.Rows), want) {
		t.Fatal("warming execution rows differ from reference")
	}
	hotLat := runHotStorm(t, fx, hot, requesters, rounds, want)

	st := hot.Stats()
	if st.Caches.ResultHits < int64(requesters*rounds)/2 {
		t.Fatalf("result cache hit only %d of %d storm requests", st.Caches.ResultHits, requesters*rounds)
	}
	coldP50, hotP50 := median(coldLat), median(hotLat)
	if coldP50 < 2*hotP50 {
		t.Errorf("cached p50 %v is not >= 2x faster than uncached p50 %v", hotP50, coldP50)
	}

	// A write to a scanned table must invalidate: the next execution misses,
	// recomputes over the new data, and re-primes the cache.
	heap := eventsHeap(t, fx)
	if err := heap.Insert(types.NewTuple(
		types.NewInt(3), types.NewInt(7), types.NewString("storm-invalidate"), types.NewFloat(1.5),
	)); err != nil {
		t.Fatal(err)
	}
	newWant := encodeRows(t, referenceRun(t, fx, hotTree(t, fx)))
	if bytes.Equal(newWant, want) {
		t.Fatal("fixture write did not change the reference result")
	}
	res, err := hot.Execute(context.Background(), Request{Tree: hotTree(t, fx)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ResultFromCache {
		t.Fatal("stale result served after a table write: version bump did not miss")
	}
	if !bytes.Equal(encodeRows(t, res.Rows), newWant) {
		t.Fatal("post-write execution rows differ from the new reference")
	}
	res, err = hot.Execute(context.Background(), Request{Tree: hotTree(t, fx)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.ResultFromCache {
		t.Fatal("second post-write execution should hit the re-primed cache")
	}
	if !bytes.Equal(encodeRows(t, res.Rows), newWant) {
		t.Fatal("re-primed cache serves wrong rows")
	}
}

// TestServicePreparedStatementLifecycle pins the in-process prepared-statement
// contract: plan once, hit the statement's plan slot on re-execution, replan
// after a write, and reject malformed statements at Prepare time.
func TestServicePreparedStatementLifecycle(t *testing.T) {
	fx := newServiceFixture(t)
	defer fx.cleanup()
	svc := New(fx.cat, Config{Planner: plan.Config{Link: fixedLink()}})

	ps, err := svc.Prepare(Request{Tree: hotTree(t, fx)})
	if err != nil {
		t.Fatal(err)
	}
	want := encodeRows(t, referenceRun(t, fx, hotTree(t, fx)))

	first, err := ps.Execute(context.Background(), Request{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.PlanFromCache {
		t.Fatal("first execution cannot reuse a plan")
	}
	second, err := ps.Execute(context.Background(), Request{})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Stats.PlanFromCache {
		t.Fatal("second execution over unchanged data did not reuse the statement's plan")
	}
	for _, res := range []*Result{first, second} {
		if !bytes.Equal(encodeRows(t, res.Rows), want) {
			t.Fatal("prepared execution rows differ from reference")
		}
	}

	// A write must force a replan — and the replanned execution must see the
	// new data.
	if err := eventsHeap(t, fx).Insert(types.NewTuple(
		types.NewInt(1), types.NewInt(3), types.NewString("prepared-invalidate"), types.NewFloat(9),
	)); err != nil {
		t.Fatal(err)
	}
	third, err := ps.Execute(context.Background(), Request{})
	if err != nil {
		t.Fatal(err)
	}
	if third.Stats.PlanFromCache {
		t.Fatal("execution after a write reused a stale plan")
	}
	newWant := encodeRows(t, referenceRun(t, fx, hotTree(t, fx)))
	if !bytes.Equal(encodeRows(t, third.Rows), newWant) {
		t.Fatal("post-write prepared execution rows differ from the new reference")
	}

	if _, err := svc.Prepare(Request{}); err == nil {
		t.Fatal("Prepare accepted a statement with no tree")
	}
}

// TestServiceCacheInvalidationRace is the satellite race test: writers
// mutating the scanned table race prepared executions and result-cache
// lookups. Readers hold an RWMutex read lock so the data is stable during
// each check, writers the write lock — any stale cached answer surfaces as a
// byte-level mismatch against an uncached reference computed under the same
// lock. Run under -race in CI.
func TestServiceCacheInvalidationRace(t *testing.T) {
	fx := newServiceFixture(t)
	defer fx.cleanup()
	svc := New(fx.cat, Config{
		MaxConcurrent:    8,
		Planner:          plan.Config{Link: fixedLink()},
		PlanCacheEntries: 16,
		ResultCacheBytes: 32 << 20,
		SharedScans:      true,
	})
	ps, err := svc.Prepare(Request{Tree: hotTree(t, fx)})
	if err != nil {
		t.Fatal(err)
	}
	heap := eventsHeap(t, fx)

	const (
		readers        = 6
		readsPerReader = 8
		writes         = 12
	)
	var dataMu sync.RWMutex
	stop := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		defer close(writerDone)
		for i := 0; i < writes; i++ {
			dataMu.Lock()
			err := heap.Insert(types.NewTuple(
				types.NewInt(int64(i%17)), types.NewInt(int64(i%eventKeys)),
				types.NewString(fmt.Sprintf("race-write-%03d", i)), types.NewFloat(float64(i)),
			))
			dataMu.Unlock()
			if err != nil {
				writerDone <- err
				return
			}
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < readsPerReader; r++ {
				dataMu.RLock()
				res, err := ps.Execute(context.Background(), Request{})
				if err != nil {
					dataMu.RUnlock()
					errs <- fmt.Errorf("reader %d: %w", i, err)
					return
				}
				// Uncached ground truth over the same (stable) data. Any
				// cached answer from an earlier version would differ.
				want := referenceRun(t, fx, hotTree(t, fx))
				dataMu.RUnlock()
				if !bytes.Equal(encodeRows(t, res.Rows), encodeRows(t, want)) {
					errs <- fmt.Errorf("reader %d read %d: cached result differs from uncached reference (fromCache=%v)",
						i, r, res.Stats.ResultFromCache)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Sanity: the cache was actually in play, not bypassed.
	if st := svc.Stats(); st.Caches.ResultHits+st.Caches.ResultMisses == 0 {
		t.Fatal("no result-cache lookups happened: the race exercised nothing")
	}
}

// TestServerPreparedOverWire drives the MsgPrepare / MsgExecPrepared framing
// over TCP loopback: prepare once, execute repeatedly (byte-identical to the
// reference each time, including after a data-changing write), and surface a
// typed error for an unknown statement ID.
func TestServerPreparedOverWire(t *testing.T) {
	fx := newServiceFixture(t)
	defer fx.cleanup()
	_, addr := startServer(t, fx, Config{
		Planner:          plan.Config{Link: fixedLink()},
		PlanCacheEntries: 16,
		ResultCacheBytes: 16 << 20,
	})

	req, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer req.Close()

	st, err := req.PrepareText(labelsQuery, wire.QuerySpec{})
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	for i := 0; i < 3; i++ {
		q, err := st.Exec(wire.ExecPrepared{Tenant: "acme"})
		if err != nil {
			t.Fatalf("exec %d: %v", i, err)
		}
		rows, err := q.Collect()
		if err != nil {
			t.Fatalf("collect %d: %v", i, err)
		}
		if len(rows) != dimRows {
			t.Fatalf("exec %d returned %d rows, want %d", i, len(rows), dimRows)
		}
	}

	// A UDF-bearing statement prepared on the same connection, checked
	// byte-for-byte against the unbudgeted in-process reference.
	udfStmt, err := req.PrepareText(scoreQuery, wire.QuerySpec{ClientAddr: fx.clientAddr})
	if err != nil {
		t.Fatalf("prepare udf statement: %v", err)
	}
	udfWant := encodeRows(t, referenceRun(t, fx,
		udfQueryTree(t, fx, []exec.UDFBinding{scoreBinding()}, nil, nil, nil)))
	for i := 0; i < 2; i++ {
		q, err := udfStmt.Exec(wire.ExecPrepared{})
		if err != nil {
			t.Fatalf("udf exec %d: %v", i, err)
		}
		got, err := q.Collect()
		if err != nil {
			t.Fatalf("udf collect %d: %v", i, err)
		}
		if !bytes.Equal(encodeRows(t, got), udfWant) {
			t.Fatalf("udf exec %d rows differ from reference", i)
		}
	}

	// Executing a statement ID the connection never prepared fails with a
	// server error, not a hang.
	bogus := &RemoteStatement{r: req, id: 999999, caps: st.caps}
	q, err := bogus.Exec(wire.ExecPrepared{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Collect(); err == nil {
		t.Fatal("executing an unknown statement ID succeeded")
	}
}
