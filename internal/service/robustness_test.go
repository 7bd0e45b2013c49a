package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"csq/internal/catalog"
	"csq/internal/client"
	"csq/internal/exec"
	"csq/internal/expr"
	"csq/internal/logical"
	"csq/internal/plan"
	"csq/internal/storage"
	"csq/internal/types"
	"csq/internal/wire"
)

// ---- small fixtures --------------------------------------------------------

// miniCatalog builds a catalog with one small pure-server table ("nums": Key
// int, Val float), cheap enough to submit hundreds of times.
func miniCatalog(t testing.TB, rows int) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	schema := types.NewSchema(
		types.Column{Name: "Key", Kind: types.KindInt},
		types.Column{Name: "Val", Kind: types.KindFloat},
	)
	tbl, err := storage.NewHeapTable("nums", schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := tbl.Insert(types.NewTuple(types.NewInt(int64(i)), types.NewFloat(float64(i)/7))); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.AddTable(&catalog.Table{Name: "nums", Schema: schema, Stats: tbl.Stats(), Data: tbl}); err != nil {
		t.Fatal(err)
	}
	return cat
}

// numsQuery reads every row of the mini catalog's table over the wire.
const numsQuery = "n(K, V) :- nums(K, V)."

// numsTree builds a fresh filter tree over the mini catalog's table; each
// submission gets its own tree.
func numsTree(t testing.TB, cat *catalog.Catalog) logical.Node {
	t.Helper()
	scan, err := scanByName(cat, "nums", "")
	if err != nil {
		t.Fatal(err)
	}
	f, err := logical.NewFilter(scan, expr.NewBinary(expr.OpGe,
		expr.NewBoundColumnRef(0, types.KindInt),
		expr.NewConst(types.NewInt(0))))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// hangFixture is a catalog plus a client runtime whose "hang" UDF blocks every
// invocation until release is closed — the stuck-query shape: the operator
// tree stops advancing, so its progress heartbeat freezes, while cancellation
// still unblocks it (the per-query context slams the session connections).
type hangFixture struct {
	cat     *catalog.Catalog
	addr    string
	release chan struct{}
	once    sync.Once
}

func (h *hangFixture) unblock() { h.once.Do(func() { close(h.release) }) }

func newHangFixture(t *testing.T) *hangFixture {
	t.Helper()
	h := &hangFixture{cat: catalog.New(), release: make(chan struct{})}
	schema := types.NewSchema(types.Column{Name: "Key", Kind: types.KindInt})
	tbl, err := storage.NewHeapTable("rows", schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := tbl.Insert(types.NewTuple(types.NewInt(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.cat.AddTable(&catalog.Table{Name: "rows", Schema: schema, Stats: tbl.Stats(), Data: tbl}); err != nil {
		t.Fatal(err)
	}
	rt := client.NewRuntime()
	hang := &client.Func{
		Name: "hang", ArgKinds: []types.Kind{types.KindInt}, ResultKind: types.KindFloat, ResultSize: 9,
		Body: func(args []types.Value) (types.Value, error) {
			<-h.release
			k, err := args[0].Int()
			if err != nil {
				return types.Value{}, err
			}
			return types.NewFloat(float64(k)), nil
		},
	}
	if err := rt.Register(hang); err != nil {
		t.Fatal(err)
	}
	if _, err := h.cat.RegisterClientUDF(&wire.RegisterUDF{
		Name: hang.Name, ArgKinds: hang.ArgKinds, ResultKind: hang.ResultKind, ResultSize: hang.ResultSize,
	}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = rt.ServeListener(ln) }()
	h.addr = ln.Addr().String()
	t.Cleanup(func() {
		h.unblock()
		_ = ln.Close()
	})
	return h
}

func (h *hangFixture) tree(t *testing.T) logical.Node {
	t.Helper()
	scan, err := scanByName(h.cat, "rows", "")
	if err != nil {
		t.Fatal(err)
	}
	udfs := []exec.UDFBinding{{Name: "hang", ArgOrdinals: []int{0}, ResultKind: types.KindFloat}}
	tree, err := logical.NewUDFApply(scan, udfs)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// Queries over the hang fixture's table, as the wire tests submit them.
const (
	rowsQuery = "r(K) :- rows(K)."
	hangQuery = "h(K, H) :- rows(K), udf hang(K) as H."
)

// awaitLeakFree fails the test if the goroutine count does not return to the
// baseline within 5s.
func awaitLeakFree(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d vs baseline %d\n%s", runtime.NumGoroutine(), baseline, filterStacks(string(buf)))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// blockerRequest builds a request whose OnBatch sink blocks on hold after
// signalling started — a way to pin an admission slot (release it by closing
// hold; the query then completes normally).
func blockerRequest(t *testing.T, cat *catalog.Catalog, started chan struct{}, hold <-chan struct{}) Request {
	t.Helper()
	var once sync.Once
	return Request{
		Tree: numsTree(t, cat),
		OnBatch: func(batch []types.Tuple) error {
			once.Do(func() { close(started) })
			<-hold
			return nil
		},
	}
}

// ---- admission controller units -------------------------------------------

func TestAdmissionQueueFullShedsTyped(t *testing.T) {
	a := newAdmission(1, 1, 0, nil)
	rel1, _, err := a.acquire(context.Background(), "")
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	// One waiter occupies the whole queue.
	waiterErr := make(chan error, 1)
	go func() {
		rel, _, err := a.acquire(context.Background(), "")
		if err == nil {
			rel()
		}
		waiterErr <- err
	}()
	waitForQueued(t, a, 1)

	// The next submission finds the queue full and is shed, typed.
	_, _, err = a.acquire(context.Background(), "")
	var re *wire.RejectError
	if !errors.As(err, &re) || re.Reason != wire.RejectOverloaded {
		t.Fatalf("queue-full acquire returned %v, want typed overload reject", err)
	}
	if !errors.Is(err, wire.ErrOverloaded) {
		t.Fatalf("reject does not unwrap to wire.ErrOverloaded: %v", err)
	}
	if re.RetryAfter <= 0 {
		t.Fatalf("overload reject carries no retry-after hint")
	}
	if wire.Classify(err) != wire.ClassRetryable {
		t.Fatalf("overload shed classified %v, want retryable", wire.Classify(err))
	}

	rel1()
	if err := <-waiterErr; err != nil {
		t.Fatalf("queued acquire failed after release: %v", err)
	}
	st := a.stats()
	if st.Admitted != 2 || st.ShedOverload != 1 {
		t.Fatalf("stats = %+v, want 2 admitted / 1 overload shed", st)
	}
}

func TestAdmissionDeadlineBudgetSheds(t *testing.T) {
	a := newAdmission(1, 8, 0, nil)
	rel, _, err := a.acquire(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer rel()

	// 40ms of deadline leaves a ~20ms queue budget; the slot never frees, so
	// the query must be shed near the budget, keeping the rest of its
	// deadline usable elsewhere.
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, wait, err := a.acquire(ctx, "")
	if !errors.Is(err, wire.ErrOverloaded) {
		t.Fatalf("deadline-budget acquire returned %v, want overload shed", err)
	}
	if elapsed := time.Since(start); elapsed >= 40*time.Millisecond {
		t.Fatalf("shed after %v — the whole deadline burned in the queue", elapsed)
	}
	if wait <= 0 {
		t.Fatalf("shed reported no queue wait")
	}
	if st := a.stats(); st.ShedDeadline != 1 {
		t.Fatalf("ShedDeadline = %d, want 1", st.ShedDeadline)
	}
}

func TestAdmissionDrainShedsWaiters(t *testing.T) {
	a := newAdmission(1, 8, 0, nil)
	rel, _, err := a.acquire(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := a.acquire(context.Background(), "")
		waiterErr <- err
	}()
	waitForQueued(t, a, 1)

	a.drain()
	if err := <-waiterErr; !errors.Is(err, wire.ErrServerDraining) {
		t.Fatalf("drained waiter got %v, want wire.ErrServerDraining", err)
	}
	if _, _, err := a.acquire(context.Background(), ""); !errors.Is(err, wire.ErrServerDraining) {
		t.Fatalf("post-drain acquire got %v, want wire.ErrServerDraining", err)
	}
	a.drain() // idempotent
	if st := a.stats(); st.ShedDraining != 2 {
		t.Fatalf("ShedDraining = %d, want 2", st.ShedDraining)
	}
}

func TestAdmissionCancelWhileQueued(t *testing.T) {
	a := newAdmission(1, 8, 0, nil)
	rel, _, err := a.acquire(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	ctx, cancel := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := a.acquire(ctx, "")
		waiterErr <- err
	}()
	waitForQueued(t, a, 1)
	cancel()
	if err := <-waiterErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
	}
	if st := a.stats(); st.Queued != 0 {
		t.Fatalf("queue not drained after cancel: %+v", st)
	}
}

func waitForQueued(t *testing.T, a *admission, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for a.stats().Queued < n {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached depth %d", n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWaitHistogramQuantiles(t *testing.T) {
	var h waitHistogram
	for i := 0; i < 99; i++ {
		h.observe(time.Millisecond) // bucket <2ms
	}
	h.observe(3 * time.Second)
	if p50 := h.quantile(0.50); p50 > 2*time.Millisecond {
		t.Fatalf("p50 = %v, want <= 2ms", p50)
	}
	if p99 := h.quantile(0.99); p99 > 2*time.Millisecond {
		t.Fatalf("p99 = %v, want <= 2ms (99/100 observations under 1ms)", p99)
	}
	if p100 := h.quantile(1.0); p100 < time.Second {
		t.Fatalf("p100 = %v, want >= 1s", p100)
	}
}

// ---- service-level robustness ---------------------------------------------

// TestServiceShedsTypedWhenSaturated fills the one execution slot and the
// one queue seat, then checks the third query is shed as a typed, retryable
// overload reject in StateShed — and that the saturated queries still finish.
func TestServiceShedsTypedWhenSaturated(t *testing.T) {
	cat := miniCatalog(t, 512)
	svc := New(cat, Config{MaxConcurrent: 1, MaxQueued: 1})
	defer svc.Close()

	started := make(chan struct{})
	hold := make(chan struct{})
	blocker, err := svc.Submit(context.Background(), blockerRequest(t, cat, started, hold))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := svc.Submit(context.Background(), Request{Tree: numsTree(t, cat)})
	if err != nil {
		t.Fatal(err)
	}
	waitForQueued(t, svc.adm, 1)

	shed, err := svc.Submit(context.Background(), Request{Tree: numsTree(t, cat)})
	if err != nil {
		t.Fatal(err)
	}
	_, werr := shed.Wait()
	var re *wire.RejectError
	if !errors.As(werr, &re) || !errors.Is(werr, wire.ErrOverloaded) {
		t.Fatalf("saturated submit returned %v, want typed overload reject", werr)
	}
	if re.RetryAfter <= 0 {
		t.Fatalf("shed carries no retry-after hint")
	}
	if wire.Classify(werr) != wire.ClassRetryable {
		t.Fatalf("shed classified %v, want retryable", wire.Classify(werr))
	}
	if st := shed.Stats(); st.State != StateShed {
		t.Fatalf("shed query state = %s, want shed", st.State)
	}

	close(hold)
	if _, err := blocker.Wait(); err != nil {
		t.Fatalf("blocker failed: %v", err)
	}
	if _, err := queued.Wait(); err != nil {
		t.Fatalf("queued query failed: %v", err)
	}
	st := svc.Stats()
	if st.Admission.ShedOverload != 1 || st.Admission.Admitted != 2 {
		t.Fatalf("service stats = %+v, want 1 shed / 2 admitted", st.Admission)
	}
}

// TestServiceShedQueryReportsAdmissionWait holds the one slot past the
// queue-wait cap: the second query is shed, and its stats still carry the
// time it spent queued.
func TestServiceShedQueryReportsAdmissionWait(t *testing.T) {
	cat := miniCatalog(t, 512)
	const maxWait = 30 * time.Millisecond
	svc := New(cat, Config{MaxConcurrent: 1, MaxQueueWait: maxWait})
	defer svc.Close()

	started := make(chan struct{})
	hold := make(chan struct{})
	defer close(hold) // before Close, which waits for the blocker
	if _, err := svc.Submit(context.Background(), blockerRequest(t, cat, started, hold)); err != nil {
		t.Fatal(err)
	}
	<-started
	shed, err := svc.Submit(context.Background(), Request{Tree: numsTree(t, cat)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shed.Wait(); !errors.Is(err, wire.ErrOverloaded) {
		t.Fatalf("queued query returned %v, want an overload shed", err)
	}
	if st := shed.Stats(); st.State != StateShed || st.AdmissionWait < maxWait {
		t.Fatalf("shed query state = %s, admission wait = %v; want shed after at least %v", st.State, st.AdmissionWait, maxWait)
	}
}

// TestServiceCancelWhileQueued cancels a query waiting for admission and
// checks it reports context.Canceled / StateCanceled without ever running —
// leak-free.
func TestServiceCancelWhileQueued(t *testing.T) {
	runtime.Gosched()
	baseline := runtime.NumGoroutine()
	cat := miniCatalog(t, 512)
	svc := New(cat, Config{MaxConcurrent: 1, MaxQueued: 8})

	started := make(chan struct{})
	hold := make(chan struct{})
	blocker, err := svc.Submit(context.Background(), blockerRequest(t, cat, started, hold))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := svc.Submit(context.Background(), Request{Tree: numsTree(t, cat)})
	if err != nil {
		t.Fatal(err)
	}
	waitForQueued(t, svc.adm, 1)

	queued.Cancel()
	if _, err := queued.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled queued query returned %v, want context.Canceled", err)
	}
	if st := queued.Stats(); st.State != StateCanceled || !st.Started.IsZero() {
		t.Fatalf("cancelled queued query state = %s started = %v, want canceled and never started", st.State, st.Started)
	}

	close(hold)
	if _, err := blocker.Wait(); err != nil {
		t.Fatalf("blocker failed: %v", err)
	}
	svc.Close()
	awaitLeakFree(t, baseline)
}

// TestServiceCloseRacesSubmit hammers Submit from many goroutines while Close
// runs: no panic, every accepted query reaches a terminal state, and every
// refusal is the typed closed error. Run under -race.
func TestServiceCloseRacesSubmit(t *testing.T) {
	runtime.Gosched()
	baseline := runtime.NumGoroutine()
	cat := miniCatalog(t, 128)
	svc := New(cat, Config{MaxConcurrent: 4, MaxQueued: 16})

	var mu sync.Mutex
	var accepted []*Query
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 40; i++ {
				q, err := svc.Submit(context.Background(), Request{Tree: numsTree(t, cat)})
				if err != nil {
					var re *wire.RejectError
					if err.Error() != "service: closed" && !errors.As(err, &re) {
						panic(fmt.Sprintf("unexpected submit error: %v", err))
					}
					continue
				}
				mu.Lock()
				accepted = append(accepted, q)
				mu.Unlock()
			}
		}()
	}
	close(start)
	time.Sleep(2 * time.Millisecond) // let submissions interleave with Close
	svc.Close()
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	for _, q := range accepted {
		<-q.Done()
		if st := q.Stats(); !st.State.Terminal() {
			t.Fatalf("query %d left non-terminal: %s", st.ID, st.State)
		}
	}
	if _, err := svc.Submit(context.Background(), Request{Tree: numsTree(t, cat)}); err == nil {
		t.Fatal("submit after Close succeeded")
	}
	awaitLeakFree(t, baseline)
}

// TestServiceShutdownDrains checks the graceful path: the running query
// finishes intact, the queued query and new submissions are shed as typed
// draining rejects, and Shutdown returns nil within its context.
func TestServiceShutdownDrains(t *testing.T) {
	runtime.Gosched()
	baseline := runtime.NumGoroutine()
	cat := miniCatalog(t, 512)
	svc := New(cat, Config{MaxConcurrent: 1, MaxQueued: 8})

	started := make(chan struct{})
	hold := make(chan struct{})
	blocker, err := svc.Submit(context.Background(), blockerRequest(t, cat, started, hold))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := svc.Submit(context.Background(), Request{Tree: numsTree(t, cat)})
	if err != nil {
		t.Fatal(err)
	}
	waitForQueued(t, svc.adm, 1)

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- svc.Shutdown(ctx)
	}()

	// The queued query is shed promptly, typed as draining.
	if _, err := queued.Wait(); !errors.Is(err, wire.ErrServerDraining) {
		t.Fatalf("queued query got %v during drain, want wire.ErrServerDraining", err)
	}
	if st := queued.Stats(); st.State != StateShed {
		t.Fatalf("drained queued query state = %s, want shed", st.State)
	}
	// New submissions are refused, typed.
	if _, err := svc.Submit(context.Background(), Request{Tree: numsTree(t, cat)}); !errors.Is(err, wire.ErrServerDraining) {
		t.Fatalf("submit during drain got %v, want wire.ErrServerDraining", err)
	}
	if !svc.Stats().Draining {
		t.Fatal("service does not report draining")
	}

	// The running query is untouched: release it and it completes.
	close(hold)
	res, err := blocker.Wait()
	if err != nil {
		t.Fatalf("running query failed during graceful drain: %v", err)
	}
	if res.RowCount != 512 {
		t.Fatalf("running query produced %d rows, want 512", res.RowCount)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("graceful Shutdown returned %v", err)
	}
	if _, err := svc.Submit(context.Background(), Request{Tree: numsTree(t, cat)}); err == nil || err.Error() != "service: closed" {
		t.Fatalf("submit after Shutdown got %v, want service: closed", err)
	}
	awaitLeakFree(t, baseline)
}

// TestServiceShutdownTimeoutCancels checks the impatient path: a wedged query
// is cancelled when the drain context expires, and Shutdown reports the
// timeout.
func TestServiceShutdownTimeoutCancels(t *testing.T) {
	h := newHangFixture(t)
	svc := New(h.cat, Config{MaxConcurrent: 2, Planner: plan.Config{Link: fixedLink()}})
	q, err := svc.Submit(context.Background(), Request{
		Tree: h.tree(t), Link: &exec.DialLink{Addr: h.addr}, LinkKey: h.addr,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Let it get wedged inside the hanging UDF call.
	time.Sleep(50 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := svc.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out Shutdown returned %v, want context.DeadlineExceeded", err)
	}
	if _, err := q.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("wedged query got %v after drain timeout, want context.Canceled", err)
	}
	h.unblock()
}

// TestServiceWatchdogCancelsStalled wedges a query inside a never-returning
// UDF call and checks the watchdog kills it with ErrStalled once its progress
// heartbeat freezes for the stall window — while a healthy concurrent query
// is left alone.
func TestServiceWatchdogCancelsStalled(t *testing.T) {
	h := newHangFixture(t)
	svc := New(h.cat, Config{
		MaxConcurrent: 2,
		StallTimeout:  200 * time.Millisecond,
		Planner:       plan.Config{Link: fixedLink()},
	})
	defer svc.Close()

	stuck, err := svc.Submit(context.Background(), Request{
		Tree: h.tree(t), Link: &exec.DialLink{Addr: h.addr}, LinkKey: h.addr,
	})
	if err != nil {
		t.Fatal(err)
	}
	healthyTree := func() logical.Node {
		scan, err := scanByName(h.cat, "rows", "")
		if err != nil {
			t.Fatal(err)
		}
		return scan
	}
	if _, err := svc.Execute(context.Background(), Request{Tree: healthyTree()}); err != nil {
		t.Fatalf("healthy query failed while watchdog armed: %v", err)
	}

	_, werr := stuck.Wait()
	if !errors.Is(werr, ErrStalled) {
		t.Fatalf("stalled query returned %v, want ErrStalled", werr)
	}
	st := stuck.Stats()
	if st.State != StateFailed || !st.Stalled {
		t.Fatalf("stalled query state = %s stalled = %v, want failed/true", st.State, st.Stalled)
	}
	if n := svc.Stats().StallCancels; n != 1 {
		t.Fatalf("StallCancels = %d, want 1", n)
	}
	h.unblock()
}

// ---- wire-level robustness -------------------------------------------------

// TestServerShedTypedOverWire saturates a one-slot server through the framed
// protocol and checks the shed crosses the wire as a typed MsgQueryReject the
// requester surfaces as wire.ErrOverloaded — then relieves the pressure and
// checks that resubmitting after the reject's retry-after hint succeeds.
func TestServerShedTypedOverWire(t *testing.T) {
	h := newHangFixture(t)
	svc := New(h.cat, Config{MaxConcurrent: 1, MaxQueued: 1, Planner: plan.Config{Link: fixedLink()}})
	srv := NewServer(svc)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(srv.Close)

	r, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	hangSpec := wire.QuerySpec{ClientAddr: h.addr}
	q1, err := r.SubmitText(hangQuery, hangSpec)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := r.SubmitText(hangQuery, hangSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitForQueued(t, svc.adm, 1)

	q3, err := r.SubmitText(rowsQuery, wire.QuerySpec{})
	if err != nil {
		t.Fatal(err)
	}
	_, cerr := q3.Collect()
	var re *wire.RejectError
	if !errors.As(cerr, &re) || !errors.Is(cerr, wire.ErrOverloaded) {
		t.Fatalf("wire shed surfaced as %v, want typed *wire.RejectError overload", cerr)
	}
	if re.RetryAfter <= 0 {
		t.Fatalf("wire reject lost its retry-after hint")
	}
	if wire.Classify(cerr) != wire.ClassRetryable {
		t.Fatalf("wire shed classified %v, want retryable", wire.Classify(cerr))
	}

	// Relieve the hang shortly; resubmitting after each typed reject's
	// retry-after hint must eventually land.
	go func() {
		time.Sleep(60 * time.Millisecond)
		h.unblock()
	}()
	var rows []types.Tuple
	for attempt := 1; ; attempt++ {
		q, err := r.SubmitText(rowsQuery, wire.QuerySpec{})
		if err == nil {
			rows, err = q.Collect()
		}
		if err == nil {
			break
		}
		if !errors.As(err, &re) || wire.Classify(err) != wire.ClassRetryable || attempt == 10 {
			t.Fatalf("resubmitted query failed on attempt %d: %v", attempt, err)
		}
		time.Sleep(re.RetryAfter)
	}
	if len(rows) != 64 {
		t.Fatalf("retried query returned %d rows, want 64", len(rows))
	}
	if _, err := q1.Collect(); err != nil {
		t.Fatalf("first hang query failed after release: %v", err)
	}
	if _, err := q2.Collect(); err != nil {
		t.Fatalf("second hang query failed after release: %v", err)
	}
}

// TestServerShutdownOverWire drains a server mid-query: the admitted query's
// stream still ends with a clean End frame and byte-identical rows, new
// submissions during the drain are shed as typed draining rejects, and the
// control connection dies only after the flush.
func TestServerShutdownOverWire(t *testing.T) {
	h := newHangFixture(t)
	svc := New(h.cat, Config{MaxConcurrent: 1, Planner: plan.Config{Link: fixedLink()}})
	srv := NewServer(svc)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() { _ = srv.Serve(ln); close(serveDone) }()

	r, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	inflight, err := r.SubmitText(hangQuery, wire.QuerySpec{ClientAddr: h.addr})
	if err != nil {
		t.Fatal(err)
	}
	// Let the query get into its UDF calls before the drain starts.
	time.Sleep(50 * time.Millisecond)

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	// A submission during the drain is shed, typed.
	waitDraining(t, svc)
	shed, err := r.SubmitText(rowsQuery, wire.QuerySpec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, cerr := shed.Collect(); !errors.Is(cerr, wire.ErrServerDraining) {
		t.Fatalf("drain-time submit surfaced %v, want wire.ErrServerDraining", cerr)
	}

	// Release the hang: the admitted query must flush a clean, complete
	// stream before the connection drops.
	h.unblock()
	rows, err := inflight.Collect()
	if err != nil {
		t.Fatalf("in-flight query failed during graceful drain: %v", err)
	}
	want := make([]types.Tuple, 0, 64)
	for i := 0; i < 64; i++ {
		want = append(want, types.NewTuple(types.NewInt(int64(i)), types.NewFloat(float64(i))))
	}
	if !bytes.Equal(encodeRows(t, rows), encodeRows(t, want)) {
		t.Fatalf("drained query rows differ from reference (%d rows)", len(rows))
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("graceful server Shutdown returned %v", err)
	}
	select {
	case <-serveDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
}

// TestServerShutdownRacesWireSubmissions runs Shutdown against a burst of
// wire submissions. Every submission must end in its rows, a typed reject or
// a transport error from the connections closing after the drain, Shutdown
// must return nil, and the race detector must see no unsynchronised use of
// the server's stream accounting.
func TestServerShutdownRacesWireSubmissions(t *testing.T) {
	const rows, requesters, perRequester = 16, 4, 8
	cat := miniCatalog(t, rows)
	for round := 0; round < 10; round++ {
		srv := NewServer(New(cat, Config{MaxConcurrent: 4, MaxQueued: requesters * perRequester}))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serveDone := make(chan struct{})
		go func() { _ = srv.Serve(ln); close(serveDone) }()
		// A Shutdown that beats Serve's start would leave ln open, and the
		// requesters' connections unaccepted in its backlog.
		for srv.Addr() == nil {
			time.Sleep(time.Millisecond)
		}

		start := make(chan struct{})
		errs := make(chan error, requesters*perRequester)
		var wg sync.WaitGroup
		conns := make([]*Requester, requesters)
		for i := range conns {
			r, err := Dial(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			conns[i] = r
			for j := 0; j < perRequester; j++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					q, err := r.SubmitText(numsQuery, wire.QuerySpec{})
					var got []types.Tuple
					if err == nil {
						got, err = q.Collect()
					}
					switch {
					case err == nil && len(got) != rows:
						errs <- fmt.Errorf("completed query returned %d rows, want %d", len(got), rows)
					case err != nil && wire.Classify(err) != wire.ClassRetryable:
						errs <- fmt.Errorf("submission failed untyped: %w", err)
					}
				}()
			}
		}
		close(start)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = srv.Shutdown(ctx)
		cancel()
		if err != nil {
			t.Fatalf("round %d: Shutdown returned %v", round, err)
		}
		wg.Wait()
		for _, r := range conns {
			_ = r.Close()
		}
		close(errs)
		for err := range errs {
			t.Errorf("round %d: %v", round, err)
		}
		<-serveDone
	}
}

func waitDraining(t *testing.T, svc *Service) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !svc.Stats().Draining {
		if time.Now().After(deadline) {
			t.Fatal("service never reported draining")
		}
		time.Sleep(time.Millisecond)
	}
}
