package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"csq/internal/catalog"
	"csq/internal/client"
	"csq/internal/exec"
	"csq/internal/expr"
	"csq/internal/lang"
	"csq/internal/logical"
	"csq/internal/plan"
	"csq/internal/storage"
	"csq/internal/types"
	"csq/internal/wire"
)

// ---- fixture -------------------------------------------------------------

const (
	eventRows = 6000
	eventKeys = 2000
	dimRows   = 400
)

func eventsSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "GroupID", Kind: types.KindInt},
		types.Column{Name: "Key", Kind: types.KindInt},
		types.Column{Name: "Payload", Kind: types.KindString},
		types.Column{Name: "Val", Kind: types.KindFloat},
	)
}

func dimsSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "Key", Kind: types.KindInt},
		types.Column{Name: "Label", Kind: types.KindString},
	)
}

// Queries over the fixture's tables, as the wire tests submit them.
const (
	eventsQuery = "e(G, K, P, V) :- events(G, K, P, V)."
	dimsQuery   = "d(K, L) :- dims(K, L)."
	labelsQuery = "l(L) :- dims(_, L)."
	scoreQuery  = "s(G, K, P, V, S) :- events(G, K, P, V), udf score(K) as S."
	slowQuery   = "s(G, K, P, V, S) :- events(G, K, P, V), udf slowscore(K) as S."
)

// compileText compiles a query against the fixture's catalog, as the server
// does for a wire spec.
func compileText(t testing.TB, fx *serviceFixture, text string) logical.Node {
	t.Helper()
	tree, err := lang.Compile(fx.cat, text)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// serviceFixture is everything one acceptance test run needs: a catalog with
// two heap tables, a client UDF runtime listening on TCP loopback, and the
// runtime's address for DialLinks.
type serviceFixture struct {
	cat        *catalog.Catalog
	clientAddr string
	runtime    *client.Runtime
	cleanup    func()
}

func newServiceFixture(t testing.TB) *serviceFixture {
	t.Helper()
	cat := catalog.New()

	events, err := storage.NewHeapTable("events", eventsSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < eventRows; i++ {
		if err := events.Insert(types.NewTuple(
			types.NewInt(int64(i%17)),
			types.NewInt(int64((i*7)%eventKeys)),
			types.NewString(fmt.Sprintf("event-payload-%05d", i)),
			types.NewFloat(float64(i%1000)/3),
		)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.AddTable(&catalog.Table{Name: "events", Schema: eventsSchema(), Stats: events.Stats(), Data: events}); err != nil {
		t.Fatal(err)
	}

	dims, err := storage.NewHeapTable("dims", dimsSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < dimRows; i++ {
		if err := dims.Insert(types.NewTuple(
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("dim-%04d", i)),
		)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.AddTable(&catalog.Table{Name: "dims", Schema: dimsSchema(), Stats: dims.Stats(), Data: dims}); err != nil {
		t.Fatal(err)
	}

	rt := client.NewRuntime()
	mustRegister := func(f *client.Func) {
		t.Helper()
		if err := rt.Register(f); err != nil {
			t.Fatal(err)
		}
	}
	mustRegister(&client.Func{
		Name: "score", ArgKinds: []types.Kind{types.KindInt}, ResultKind: types.KindFloat, ResultSize: 9,
		Body: func(args []types.Value) (types.Value, error) {
			k, err := args[0].Int()
			if err != nil {
				return types.Value{}, err
			}
			return types.NewFloat(float64(k)*1.5 + 0.25), nil
		},
	})
	mustRegister(&client.Func{
		Name: "qualify", ArgKinds: []types.Kind{types.KindInt}, ResultKind: types.KindBool, ResultSize: 2, Selectivity: 0.5,
		Body: func(args []types.Value) (types.Value, error) {
			k, err := args[0].Int()
			if err != nil {
				return types.Value{}, err
			}
			return types.NewBool(k%2 == 0), nil
		},
	})
	mustRegister(&client.Func{
		Name: "slowscore", ArgKinds: []types.Kind{types.KindInt}, ResultKind: types.KindFloat, ResultSize: 9,
		Body: func(args []types.Value) (types.Value, error) {
			time.Sleep(2 * time.Millisecond)
			k, err := args[0].Int()
			if err != nil {
				return types.Value{}, err
			}
			return types.NewFloat(float64(k)), nil
		},
	})
	for _, f := range rt.Functions() {
		if _, err := cat.RegisterClientUDF(&wire.RegisterUDF{
			Name:        f.Name,
			ArgKinds:    f.ArgKinds,
			ResultKind:  f.ResultKind,
			ResultSize:  f.ResultSize,
			Selectivity: f.Selectivity,
		}); err != nil {
			t.Fatal(err)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = rt.ServeListener(ln) }()

	return &serviceFixture{
		cat:        cat,
		clientAddr: ln.Addr().String(),
		runtime:    rt,
		cleanup:    func() { _ = ln.Close() },
	}
}

// fixedLink keeps planning deterministic and probe-free in tests.
func fixedLink() *exec.LinkObservation {
	return &exec.LinkObservation{DownBytesPerSec: 1 << 22, UpBytesPerSec: 1 << 22, Asymmetry: 1, RTT: time.Millisecond}
}

// joinAggTree builds the memory-hungry server-side query: a join of events
// against dims with an aggregation over the join output — the shape whose
// hash-join build (~events) and group table (~eventKeys groups) both blow a
// small per-query budget.
func joinAggTree(t testing.TB, cat *catalog.Catalog, groupOrdinal int) logical.Node {
	t.Helper()
	dimsScan, err := scanByName(cat, "dims", "")
	if err != nil {
		t.Fatal(err)
	}
	eventsScan, err := scanByName(cat, "events", "")
	if err != nil {
		t.Fatal(err)
	}
	join, err := logical.NewJoin(dimsScan, eventsScan, []int{0}, []int{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Join schema: 0 dims.Key, 1 dims.Label, 2 GroupID, 3 Key, 4 Payload, 5 Val.
	agg, err := logical.NewAggregate(join, []int{groupOrdinal}, []exec.Aggregate{
		{Func: exec.AggCount, Ordinal: -1, Name: "n"},
		{Func: exec.AggSum, Ordinal: 5, Name: "sum_val"},
		{Func: exec.AggMax, Ordinal: 4, Name: "max_payload"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

// udfQueryTree builds a client-site UDF query over events.
func udfQueryTree(t testing.TB, fx *serviceFixture, udfs []exec.UDFBinding, filter, pushable expr.Expr, project []int) logical.Node {
	t.Helper()
	scan, err := scanByName(fx.cat, "events", "")
	if err != nil {
		t.Fatal(err)
	}
	var tree logical.Node = scan
	if filter != nil {
		if tree, err = logical.NewFilter(tree, filter); err != nil {
			t.Fatal(err)
		}
	}
	if tree, err = logical.NewUDFApply(tree, udfs); err != nil {
		t.Fatal(err)
	}
	if pushable != nil {
		if tree, err = logical.NewFilter(tree, pushable); err != nil {
			t.Fatal(err)
		}
	}
	if len(project) > 0 {
		if tree, err = logical.NewProject(tree, project); err != nil {
			t.Fatal(err)
		}
	}
	return tree
}

func scoreBinding() exec.UDFBinding {
	return exec.UDFBinding{Name: "score", ArgOrdinals: []int{1}, ResultKind: types.KindFloat}
}

func qualifyBinding() exec.UDFBinding {
	return exec.UDFBinding{Name: "qualify", ArgOrdinals: []int{1}, ResultKind: types.KindBool}
}

// referenceRun executes a tree through the unbudgeted single-query path: a
// fresh planner (no stats cache, no budget), a fresh operator tree, plain
// Collect with no memory tracker.
func referenceRun(t testing.TB, fx *serviceFixture, tree logical.Node) []types.Tuple {
	t.Helper()
	planner := plan.NewPlanner(&exec.DialLink{Addr: fx.clientAddr})
	planner.Config.Link = fixedLink()
	tp, err := planner.PlanTree(context.Background(), tree, fx.cat)
	if err != nil {
		t.Fatalf("reference plan: %v", err)
	}
	op, err := tp.NewOperator()
	if err != nil {
		t.Fatalf("reference lower: %v", err)
	}
	rows, err := exec.Collect(context.Background(), op)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return rows
}

func encodeRows(t testing.TB, rows []types.Tuple) []byte {
	t.Helper()
	var buf []byte
	var err error
	for _, r := range rows {
		buf, err = types.EncodeTuple(buf, r)
		if err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// ---- the acceptance test -------------------------------------------------

// TestServiceConcurrentGovernedRuntime is the acceptance test of the
// governed multi-query runtime: ≥ 8 concurrent queries through one Service
// whose UDF sessions run over TCP loopback, under a per-query memory budget
// that forces both HashJoin and HashAggregate spilling on the heavy queries,
// with one query cancelled mid-stream. It verifies byte-identical results
// against the unbudgeted single-query path, prompt (< 1s) context.Canceled
// on the cancelled query, and zero leaked goroutines.
func TestServiceConcurrentGovernedRuntime(t *testing.T) {
	runtime.Gosched()
	baseline := runtime.NumGoroutine()

	fx := newServiceFixture(t)
	defer fx.cleanup()

	svc := New(fx.cat, Config{
		MaxConcurrent: 4,        // below the query count: admission is exercised
		MemBudget:     48 << 10, // small enough that join build and group table spill
		Planner:       plan.Config{Link: fixedLink()},
	})

	// The workload: 8 concurrent queries — two spilling join+aggregate
	// shapes, semi-join and client-join UDF queries (with repeats so the
	// stats cache gets hits), plus one long-running UDF query that is
	// cancelled mid-stream.
	filter := expr.NewBinary(expr.OpLt,
		expr.NewBoundColumnRef(0, types.KindInt),
		expr.NewConst(types.NewInt(9)))
	pushable := expr.NewBoundColumnRef(5, types.KindBool) // extended ordinal of qualify
	type namedQuery struct {
		name      string
		tree      logical.Node
		udf       bool
		wantSpill bool
	}
	queries := []namedQuery{
		{name: "join-agg-by-key", tree: joinAggTree(t, fx.cat, 3), wantSpill: true},
		{name: "join-agg-by-payload", tree: joinAggTree(t, fx.cat, 4), wantSpill: true},
		{name: "score-full", tree: udfQueryTree(t, fx, []exec.UDFBinding{scoreBinding()}, nil, nil, nil), udf: true},
		{name: "score-full-repeat", tree: udfQueryTree(t, fx, []exec.UDFBinding{scoreBinding()}, nil, nil, nil), udf: true},
		{name: "score-filtered", tree: udfQueryTree(t, fx, []exec.UDFBinding{scoreBinding()}, filter, nil, nil), udf: true},
		{name: "qualify-pushable", tree: udfQueryTree(t, fx, []exec.UDFBinding{scoreBinding(), qualifyBinding()}, nil, pushable, []int{0, 1, 4}), udf: true},
		{name: "qualify-pushable-repeat", tree: udfQueryTree(t, fx, []exec.UDFBinding{scoreBinding(), qualifyBinding()}, nil, pushable, []int{0, 1, 4}), udf: true},
		{name: "join-agg-small-groups", tree: joinAggTree(t, fx.cat, 2), wantSpill: false},
	}

	// Reference results from the unbudgeted single-query path, computed
	// before the concurrent run.
	want := make(map[string][]byte, len(queries))
	for _, q := range queries {
		want[q.name] = encodeRows(t, referenceRun(t, fx, q.tree))
	}

	// Launch everything concurrently, including the to-be-cancelled query.
	slowTree := udfQueryTree(t, fx, []exec.UDFBinding{{Name: "slowscore", ArgOrdinals: []int{1}, ResultKind: types.KindFloat}}, nil, nil, nil)
	firstBatch := make(chan struct{})
	var firstBatchOnce sync.Once
	slowQ, err := svc.Submit(context.Background(), Request{
		Tree:    slowTree,
		Link:    &exec.DialLink{Addr: fx.clientAddr},
		LinkKey: fx.clientAddr,
		OnBatch: func(batch []types.Tuple) error {
			firstBatchOnce.Do(func() { close(firstBatch) })
			return nil
		},
	})
	if err != nil {
		t.Fatalf("submit slow query: %v", err)
	}

	results := make(map[string]*Result, len(queries))
	errs := make(map[string]error, len(queries))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, q := range queries {
		wg.Add(1)
		go func(q namedQuery) {
			defer wg.Done()
			req := Request{Tree: q.tree}
			if q.udf {
				req.Link = &exec.DialLink{Addr: fx.clientAddr}
				req.LinkKey = fx.clientAddr
			}
			res, err := svc.Execute(context.Background(), req)
			mu.Lock()
			results[q.name], errs[q.name] = res, err
			mu.Unlock()
		}(q)
	}

	// Cancel the slow query as soon as it has demonstrably started
	// streaming results.
	select {
	case <-firstBatch:
	case <-time.After(30 * time.Second):
		t.Fatalf("slow query produced no rows within 30s")
	}
	cancelAt := time.Now()
	slowQ.Cancel()
	if _, err := slowQ.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query returned %v, want context.Canceled", err)
	}
	if d := time.Since(cancelAt); d > time.Second {
		t.Fatalf("cancellation took %v, want < 1s", d)
	}
	if st := slowQ.Stats(); st.State != StateCanceled {
		t.Fatalf("cancelled query state = %s, want canceled", st.State)
	}

	wg.Wait()

	// Every other query finished with byte-identical results.
	for _, q := range queries {
		if errs[q.name] != nil {
			t.Fatalf("query %s failed: %v", q.name, errs[q.name])
		}
		got := encodeRows(t, results[q.name].Rows)
		if !bytes.Equal(got, want[q.name]) {
			t.Fatalf("query %s: governed result differs from unbudgeted reference (%d vs %d rows)",
				q.name, len(results[q.name].Rows), results[q.name].Stats.Rows)
		}
	}

	// The budget forced spilling on the heavy queries.
	for _, q := range queries {
		st := results[q.name].Stats
		if q.wantSpill && st.SpillEvents == 0 {
			t.Fatalf("query %s: expected spilling under a %dB budget (mem peak %dB)",
				q.name, svc.cfg.MemBudget, st.MemPeakBytes)
		}
		if st.State != StateDone {
			t.Fatalf("query %s state = %s, want done", q.name, st.State)
		}
	}

	// Repeated queries over unchanged tables hit the cross-query stats cache.
	if svc.StatsCache().Hits() == 0 {
		t.Fatalf("no cross-query stats-cache hits across repeated queries")
	}
	foundCached := false
	for _, q := range queries {
		if results[q.name].Stats.StatsFromCache {
			foundCached = true
		}
	}
	if !foundCached {
		t.Fatalf("no query reported cached planning statistics")
	}

	// Lifecycle stats are visible for every query.
	stats := svc.Queries()
	if len(stats) < len(queries)+1 {
		t.Fatalf("service tracks %d queries, want at least %d", len(stats), len(queries)+1)
	}
	for _, st := range stats {
		if !st.State.Terminal() {
			t.Fatalf("query %d still %s after completion", st.ID, st.State)
		}
	}

	// No goroutines may outlive the service.
	svc.Close()
	fx.cleanup()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d vs baseline %d\n%s", runtime.NumGoroutine(), baseline, filterStacks(string(buf)))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func filterStacks(stack string) string {
	var keep []string
	for _, g := range strings.Split(stack, "\n\n") {
		if strings.Contains(g, "csq/internal") && !strings.Contains(g, "service_test") {
			keep = append(keep, g)
		}
	}
	return strings.Join(keep, "\n\n")
}

// TestServiceAdmissionLimit saturates the admission limit with slow queries
// and verifies that surplus queries wait in StateQueued (and that a queued
// query can be cancelled before ever running).
func TestServiceAdmissionLimit(t *testing.T) {
	fx := newServiceFixture(t)
	defer fx.cleanup()
	svc := New(fx.cat, Config{
		MaxConcurrent: 1,
		Planner:       plan.Config{Link: fixedLink()},
	})
	defer svc.Close()

	slowTree := udfQueryTree(t, fx, []exec.UDFBinding{{Name: "slowscore", ArgOrdinals: []int{1}, ResultKind: types.KindFloat}}, nil, nil, nil)
	started := make(chan struct{})
	var once sync.Once
	q1, err := svc.Submit(context.Background(), Request{
		Tree: slowTree, Link: &exec.DialLink{Addr: fx.clientAddr},
		OnBatch: func([]types.Tuple) error { once.Do(func() { close(started) }); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	q2, err := svc.Submit(context.Background(), Request{Tree: joinAggTree(t, fx.cat, 2)})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if st := q2.Stats(); st.State != StateQueued {
		t.Fatalf("second query state = %s while the slot is held, want queued", st.State)
	}
	q2.Cancel()
	if _, err := q2.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued query cancel returned %v", err)
	}
	q1.Cancel()
	if _, err := q1.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("running query cancel returned %v", err)
	}
}

// TestServiceQueryTimeout verifies the per-query deadline terminates a query
// with context.DeadlineExceeded.
func TestServiceQueryTimeout(t *testing.T) {
	fx := newServiceFixture(t)
	defer fx.cleanup()
	svc := New(fx.cat, Config{Planner: plan.Config{Link: fixedLink()}})
	defer svc.Close()

	slowTree := udfQueryTree(t, fx, []exec.UDFBinding{{Name: "slowscore", ArgOrdinals: []int{1}, ResultKind: types.KindFloat}}, nil, nil, nil)
	start := time.Now()
	_, err := svc.Execute(context.Background(), Request{
		Tree: slowTree, Link: &exec.DialLink{Addr: fx.clientAddr},
		Timeout: 300 * time.Millisecond,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out query returned %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("deadline enforcement took %v", d)
	}
}

// TestServiceHandlesAndStates covers the small lifecycle surfaces: state
// strings, handle accessors, Lookup, and finished-query pruning.
func TestServiceHandlesAndStates(t *testing.T) {
	for s, want := range map[State]string{
		StateQueued: "queued", StatePlanning: "planning", StateRunning: "running",
		StateDone: "done", StateFailed: "failed", StateCanceled: "canceled", State(99): "unknown",
	} {
		if s.String() != want {
			t.Fatalf("State(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
	if StateRunning.Terminal() || !StateDone.Terminal() {
		t.Fatalf("Terminal misclassifies states")
	}

	fx := newServiceFixture(t)
	defer fx.cleanup()
	svc := New(fx.cat, Config{Planner: plan.Config{Link: fixedLink()}})
	defer svc.Close()

	var handles []*Query
	for i := 0; i < DefaultKeepFinished+2; i++ {
		q, err := svc.Submit(context.Background(), Request{Tree: joinAggTree(t, fx.cat, 2)})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, q)
		if _, err := q.Wait(); err != nil {
			t.Fatal(err)
		}
		<-q.Done()
	}
	last := handles[len(handles)-1]
	if last.ID() == 0 {
		t.Fatalf("query ID must be non-zero")
	}
	if _, ok := svc.Lookup(last.ID()); !ok {
		t.Fatalf("recent query not visible in Lookup")
	}
	if _, ok := svc.Lookup(handles[0].ID()); ok {
		t.Fatalf("pruned query still visible (DefaultKeepFinished=%d)", DefaultKeepFinished)
	}
	if got := len(svc.Queries()); got != DefaultKeepFinished {
		t.Fatalf("Queries() tracks %d, want %d after pruning", got, DefaultKeepFinished)
	}

	// Submitting with no tree is rejected; submitting after Close too.
	if _, err := svc.Submit(context.Background(), Request{}); err == nil {
		t.Fatalf("expected rejection of an empty request")
	}
	svc.Close()
	if _, err := svc.Submit(context.Background(), Request{Tree: joinAggTree(t, fx.cat, 2)}); err == nil {
		t.Fatalf("expected rejection after Close")
	}
}

// TestServerAddrAndListenAndServe covers the front-end's listener plumbing.
func TestServerAddrAndListenAndServe(t *testing.T) {
	fx := newServiceFixture(t)
	defer fx.cleanup()
	svc := New(fx.cat, Config{Planner: plan.Config{Link: fixedLink()}})
	srv := NewServer(svc)
	if srv.Addr() != nil {
		t.Fatalf("Addr before serving must be nil")
	}
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0") }()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Addr() == nil {
		if time.Now().After(deadline) {
			t.Fatalf("server never started listening")
		}
		time.Sleep(5 * time.Millisecond)
	}
	req, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	q, err := req.SubmitText(dimsQuery, wire.QuerySpec{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := q.Collect()
	if err != nil || len(rows) != dimRows {
		t.Fatalf("query over ListenAndServe: rows=%d err=%v", len(rows), err)
	}
	_ = req.Close()
	srv.Close()
	if err := <-done; err != nil {
		t.Fatalf("ListenAndServe returned %v", err)
	}
	if err := srv.Serve(nil); err == nil {
		t.Fatalf("Serve after Close must fail")
	}
}

// scanByName builds a scan over the catalog's table name, as the query
// compiler does.
func scanByName(cat *catalog.Catalog, name, alias string) (*logical.Scan, error) {
	t, err := cat.Table(name)
	if err != nil {
		return nil, err
	}
	return logical.NewScan(t, alias)
}
