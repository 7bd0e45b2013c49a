package service

import (
	"context"
	"errors"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"csq/internal/catalog"
	"csq/internal/exec"
	"csq/internal/lang"
	"csq/internal/types"
	"csq/internal/wire"
)

// Queries of the lifecycle parity table, each as text so that every entry,
// in process or over the wire, runs the same tree.
const (
	// parityJoin is pure and UDF-free, so its answer is cacheable; under the
	// cell's memory budget its hash join spills into the query's namespace.
	parityJoin = "n(G, count(*) as c) :- events(G, K, _, _), dims(K, _)."
	// parityUDF runs a client-site UDF; planning it probes the link.
	parityUDF = "s(K, S) :- events(_, K, _, _), udf score(K) as S."
	// parityBoom scans a relation whose iterator panics mid-execution.
	parityBoom = "b(K) :- boom(K)."
)

// parityOutcome is one way a query can end.
type parityOutcome int

const (
	outcomeDone      parityOutcome = iota
	outcomeShed                    // shed from the queue: the queue-wait cap elapses
	outcomeCancel                  // cancelled while waiting in the queue
	outcomePlanError               // the link probe fails while planning
	outcomeExecError               // an operator panics while executing
)

var parityOutcomes = []struct {
	name    string
	outcome parityOutcome
}{
	{"done", outcomeDone},
	{"shed", outcomeShed},
	{"cancel", outcomeCancel},
	{"plan_error", outcomePlanError},
	{"exec_error", outcomeExecError},
}

// parityCell is what an entry is handed: the service (and, for a wire entry,
// a requester on its server) and the query to run.
type parityCell struct {
	svc        *Service
	req        *Requester
	text       string
	clientAddr string
	budget     int64
	// cancelQueued cancels the query once it waits in the admission queue.
	cancelQueued bool
}

// await cancels the query, through cancel, once the admission queue holds it,
// if the cell asks for that.
func (c *parityCell) await(t *testing.T, cancel func()) {
	if c.cancelQueued {
		waitForQueued(t, c.svc.adm, 1)
		cancel()
	}
}

// inProcess runs the cell through Service.Execute.
func inProcess(t *testing.T, c *parityCell) error {
	tree, err := lang.Compile(c.svc.cat, c.text)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Tree: tree, MemBudget: c.budget}
	if c.clientAddr != "" {
		req.Link, req.LinkKey = &exec.DialLink{Addr: c.clientAddr}, c.clientAddr
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := c.svc.Execute(ctx, req)
		done <- err
	}()
	c.await(t, cancel)
	return <-done
}

// overWire submits the cell as an ad-hoc MsgQuery.
func overWire(t *testing.T, c *parityCell) error {
	q, err := c.req.SubmitText(c.text, wire.QuerySpec{ClientAddr: c.clientAddr, MemBudget: c.budget})
	if err != nil {
		t.Fatal(err)
	}
	c.await(t, func() {
		if err := q.Cancel(); err != nil {
			t.Error(err)
		}
	})
	_, err = q.Collect()
	return err
}

// preparedOverWire prepares the cell and runs it as one MsgExecPrepared.
func preparedOverWire(t *testing.T, c *parityCell) error {
	st, err := c.req.PrepareText(c.text, wire.QuerySpec{ClientAddr: c.clientAddr, MemBudget: c.budget})
	if err != nil {
		t.Fatal(err)
	}
	q, err := st.Exec(wire.ExecPrepared{})
	if err != nil {
		t.Fatal(err)
	}
	c.await(t, func() {
		if err := q.Cancel(); err != nil {
			t.Error(err)
		}
	})
	_, err = q.Collect()
	return err
}

// TestLifecycleParity runs every outcome through every entry — in-process
// Execute, wire ad-hoc, wire prepared, and an in-process query whose answer
// the result cache already holds — and holds each cell to the same lifecycle
// invariants: the terminal state matches the error class, the stamps are
// ordered, a shed or cancelled query records its admission wait, and nothing
// outlives the query (no active query, no admission slot or seat, no spill
// namespace).
func TestLifecycleParity(t *testing.T) {
	fx := newServiceFixture(t)
	defer fx.cleanup()
	schema := types.NewSchema(types.Column{Name: "K", Kind: types.KindInt})
	if err := fx.cat.AddTable(&catalog.Table{
		Name: "boom", Schema: schema, Stats: catalog.TableStats{RowCount: 16, AvgRowSize: 8},
		Data: &panicRelation{schema: schema},
	}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	entries := []struct {
		name string
		wire bool
		// hit warms the result cache with the cell's answer first.
		hit bool
		run func(*testing.T, *parityCell) error
	}{
		{"execute", false, false, inProcess},
		{"wire_adhoc", true, false, overWire},
		{"wire_prepared", true, false, preparedOverWire},
		{"cache_hit", false, true, inProcess},
	}
	for _, e := range entries {
		for _, o := range parityOutcomes {
			t.Run(e.name+"/"+o.name, func(t *testing.T) {
				tmp := t.TempDir()
				cfg := Config{MaxConcurrent: 1, MaxQueued: 4, TempDir: tmp}
				if o.outcome == outcomeShed {
					cfg.MaxQueueWait = 40 * time.Millisecond
				}
				if e.hit {
					cfg.ResultCacheBytes = 1 << 20
				}
				c := &parityCell{text: parityJoin, budget: 16 << 10}
				if e.wire {
					srv, addr := startServer(t, fx, cfg)
					r, err := Dial(addr)
					if err != nil {
						t.Fatal(err)
					}
					defer r.Close()
					c.svc, c.req = srv.svc, r
				} else {
					c.svc = New(fx.cat, cfg)
				}
				svc := c.svc
				defer svc.Close()
				if e.hit {
					if err := inProcess(t, c); err != nil {
						t.Fatalf("warming the result cache: %v", err)
					}
				}

				// The shed and cancel outcomes queue behind a query that holds
				// the only slot until the cell is over.
				hold := make(chan struct{})
				var blocker *Query
				release := sync.OnceFunc(func() { close(hold) })
				defer release()
				want := StateDone
				switch o.outcome {
				case outcomeShed, outcomeCancel:
					started := make(chan struct{})
					var once sync.Once
					tree, err := lang.Compile(fx.cat, "d(K) :- dims(K, _).")
					if err != nil {
						t.Fatal(err)
					}
					blocker, err = svc.Submit(context.Background(), Request{Tree: tree, OnBatch: func([]types.Tuple) error {
						once.Do(func() { close(started) })
						<-hold
						return nil
					}})
					if err != nil {
						t.Fatal(err)
					}
					<-started
					if o.outcome == outcomeShed {
						want = StateShed
					} else {
						want, c.cancelQueued = StateCanceled, true
					}
					if e.hit {
						// An answer from the cache never competes for a slot.
						want, c.cancelQueued = StateDone, false
					}
				case outcomePlanError:
					c.text, c.clientAddr, want = parityUDF, deadAddr, StateFailed
				case outcomeExecError:
					c.text, want = parityBoom, StateFailed
				}

				err := e.run(t, c)
				release()
				if blocker != nil {
					if _, err := blocker.Wait(); err != nil {
						t.Fatalf("blocker: %v", err)
					}
				}

				var re *wire.RejectError
				switch want {
				case StateDone:
					if err != nil {
						t.Fatalf("query failed: %v", err)
					}
				case StateShed:
					if !errors.As(err, &re) {
						t.Fatalf("query ended with %v, want a typed reject", err)
					}
				case StateCanceled:
					if !isCanceled(err) {
						t.Fatalf("query ended with %v, want a cancellation", err)
					}
				default:
					if err == nil || errors.As(err, &re) || isCanceled(err) {
						t.Fatalf("query ended with %v, want a failure", err)
					}
				}

				qs := svc.Queries()
				st := qs[len(qs)-1]
				if blocker != nil && st.ID == blocker.id {
					st = qs[len(qs)-2]
				}
				if st.State != want {
					t.Errorf("state %s, want %s (error %q)", st.State, want, st.Err)
				}
				if (st.Err == "") != (want == StateDone) {
					t.Errorf("state %s carries error %q", st.State, st.Err)
				}
				if st.Submitted.IsZero() || st.Finished.Before(st.Submitted) {
					t.Errorf("submitted %v, finished %v", st.Submitted, st.Finished)
				}
				if !st.Started.IsZero() && (st.Started.Before(st.Submitted) || st.Finished.Before(st.Started)) {
					t.Errorf("submitted %v, started %v, finished %v: out of order", st.Submitted, st.Started, st.Finished)
				}
				admitted := want == StateDone || o.outcome == outcomePlanError || o.outcome == outcomeExecError
				if admitted == st.Started.IsZero() {
					t.Errorf("state %s with started = %v", st.State, st.Started)
				}
				if (want == StateShed || want == StateCanceled) && st.AdmissionWait <= 0 {
					t.Errorf("state %s recorded no admission wait", st.State)
				}
				if e.hit && want == StateDone && (!st.ResultFromCache || st.AdmissionWait != 0) {
					t.Errorf("cache hit: from cache %v, admission wait %v", st.ResultFromCache, st.AdmissionWait)
				}

				if want == StateDone && !e.hit && st.SpillEvents == 0 {
					t.Error("the join did not spill, so the namespace check below shows nothing")
				}
				if n := svc.Stats().Active; n != 0 {
					t.Errorf("%d queries still active", n)
				}
				svc.adm.mu.Lock()
				running, queued := svc.adm.running, svc.adm.queued
				for name, tq := range svc.adm.tenants {
					if tq.running != 0 || len(tq.waiters) != 0 {
						t.Errorf("tenant %s: %d running, %d queued", name, tq.running, len(tq.waiters))
					}
				}
				svc.adm.mu.Unlock()
				if running != 0 || queued != 0 {
					t.Errorf("admission: %d running, %d queued", running, queued)
				}
				if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
					t.Errorf("spill directory holds %v (%v)", left, err)
				}
			})
		}
	}
}

// TestPrepareRefusedWhileDraining: once a drain has begun, a prepare is
// refused with the typed draining reject Submit returns, in process and over
// the wire, rather than registering a statement every execution of which
// would be shed.
func TestPrepareRefusedWhileDraining(t *testing.T) {
	fx := newServiceFixture(t)
	defer fx.cleanup()
	srv, addr := startServer(t, fx, Config{MaxConcurrent: 1})
	r, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tree, err := lang.Compile(fx.cat, parityJoin)
	if err != nil {
		t.Fatal(err)
	}
	// A running query keeps the drain open.
	started, hold := make(chan struct{}), make(chan struct{})
	var once sync.Once
	if _, err := srv.svc.Submit(context.Background(), Request{Tree: tree, OnBatch: func([]types.Tuple) error {
		once.Do(func() { close(started) })
		<-hold
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	<-started
	drained := make(chan error, 1)
	go func() { drained <- srv.Shutdown(context.Background()) }()
	waitDraining(t, srv.svc)

	if _, err := srv.svc.Prepare(Request{Tree: tree}); !errors.Is(err, wire.ErrServerDraining) {
		t.Errorf("prepare while draining returned %v, want a draining reject", err)
	}
	if _, err := r.PrepareText(parityJoin, wire.QuerySpec{}); err == nil || !strings.Contains(err.Error(), wire.RejectDraining.String()) {
		t.Errorf("prepare over the wire while draining returned %v, want a draining refusal", err)
	}
	close(hold)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}
