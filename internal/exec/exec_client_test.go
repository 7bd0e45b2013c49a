package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"csq/internal/client"
	"csq/internal/expr"
	"csq/internal/netsim"
	"csq/internal/types"
	"csq/internal/wire"
)

// newAnalysisRuntime returns a client runtime hosting the ClientAnalysis UDF:
// rating = basis-point change of the quote series.
func newAnalysisRuntime(t testing.TB) *client.Runtime {
	t.Helper()
	rt := client.NewRuntime()
	err := rt.Register(&client.Func{
		Name:       "ClientAnalysis",
		ArgKinds:   []types.Kind{types.KindTimeSeries},
		ResultKind: types.KindInt,
		ResultSize: 10,
		Body: func(args []types.Value) (types.Value, error) {
			ts, err := args[0].Series()
			if err != nil {
				return types.Value{}, err
			}
			if ts.Len() == 0 || ts.First() == 0 {
				return types.NewInt(0), nil
			}
			return types.NewInt(int64((ts.Last() - ts.First()) / ts.First() * 10000)), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Register(&client.Func{
		Name:       "Volatility",
		ArgKinds:   []types.Kind{types.KindTimeSeries},
		ResultKind: types.KindFloat,
		ResultSize: 10,
		Body: func(args []types.Value) (types.Value, error) {
			ts, err := args[0].Series()
			if err != nil {
				return types.Value{}, err
			}
			return types.NewFloat(ts.Volatility()), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func analysisBinding() UDFBinding {
	return UDFBinding{Name: "ClientAnalysis", ArgOrdinals: []int{2}, ResultKind: types.KindInt, ResultName: "Rating"}
}

// expectedRating mirrors the client's ClientAnalysis implementation.
func expectedRating(ts types.TimeSeries) int64 {
	if ts.Len() == 0 || ts.First() == 0 {
		return 0
	}
	return int64((ts.Last() - ts.First()) / ts.First() * 10000)
}

func fastLink(t testing.TB) *InProcessLink {
	return NewInProcessLink(newAnalysisRuntime(t), netsim.LinkConfig{})
}

// newNaive builds the paper's naive strategy: a semi-join at concurrency
// factor 1, which has one frame of one argument tuple in flight at a time.
func newNaive(input Operator, link ClientLink, udfs []UDFBinding) (*SemiJoin, error) {
	op, err := NewSemiJoin(input, link, udfs)
	if err != nil {
		return nil, err
	}
	op.ConcurrencyFactor = 1
	return op, nil
}

func TestNaiveUDFOperator(t *testing.T) {
	rows := stockRows(12)
	link := fastLink(t)
	op, err := newNaive(NewValuesScan(stockSchema(), rows), link, []UDFBinding{analysisBinding()})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(context.Background(), op)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("naive returned %d rows, want %d", len(got), len(rows))
	}
	if op.Schema().Len() != 4 || op.Schema().Columns[3].Name != "Rating" {
		t.Errorf("naive schema = %v", op.Schema())
	}
	for i, r := range got {
		ts, _ := rows[i][2].Series()
		if v, _ := r[3].Int(); v != expectedRating(ts) {
			t.Errorf("row %d rating = %d, want %d", i, v, expectedRating(ts))
		}
	}
	// Every argument is distinct: one 1-tuple frame each.
	stats := op.NetStats()
	if stats.Messages != int64(len(rows)) || stats.Invocations != int64(len(rows)) {
		t.Errorf("naive messages = %d, invocations = %d, want %d each", stats.Messages, stats.Invocations, len(rows))
	}
	if stats.BytesDown == 0 || stats.BytesUp == 0 {
		t.Errorf("naive stats should record traffic: %+v", stats)
	}
}

func TestNaiveUDFCache(t *testing.T) {
	// All rows share the same argument value: the result table answers the
	// duplicates, so only one round trip happens.
	ts := types.NewTimeSeries(types.TimeSeries{100, 110})
	rows := make([]types.Tuple, 10)
	for i := range rows {
		rows[i] = types.NewTuple(types.NewString("X"), types.NewFloat(1), ts)
	}
	rt := newAnalysisRuntime(t)
	calls := countCalls(t, rt, "ClientAnalysis")
	link := NewInProcessLink(rt, netsim.LinkConfig{})
	op, err := newNaive(NewValuesScan(stockSchema(), rows), link, []UDFBinding{analysisBinding()})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(context.Background(), op)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("rows = %d", len(got))
	}
	if st := op.NetStats(); st.Messages != 1 || st.Invocations != 1 {
		t.Errorf("cached naive messages = %d, invocations = %d, want 1 and 1", st.Messages, st.Invocations)
	}
	if calls.Load() != 1 {
		t.Errorf("client invocations = %d, want 1", calls.Load())
	}
}

// TestNaiveOneFrameInFlight holds the first argument's UDF call at the
// client: at concurrency factor 1 one argument tuple is in flight, so
// nothing else is dealt until the call returns, and afterwards every
// distinct argument still gets exactly one 1-tuple frame.
func TestNaiveOneFrameInFlight(t *testing.T) {
	held, release := make(chan struct{}), make(chan struct{})
	var first sync.Once
	rt := client.NewRuntime()
	err := rt.Register(&client.Func{
		Name:       "ClientAnalysis",
		ArgKinds:   []types.Kind{types.KindTimeSeries},
		ResultKind: types.KindInt,
		Body: func(args []types.Value) (types.Value, error) {
			first.Do(func() {
				close(held)
				<-release
			})
			ts, err := args[0].Series()
			if err != nil {
				return types.Value{}, err
			}
			return types.NewInt(expectedRating(ts)), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const distinct = 4
	rows := make([]types.Tuple, 12)
	for i := range rows {
		rows[i] = types.NewTuple(types.NewString("X"), types.NewFloat(float64(i)),
			types.NewTimeSeries(types.TimeSeries{100, 100 + float64(i%distinct)}))
	}
	op, err := newNaive(NewValuesScan(stockSchema(), rows), NewInProcessLink(rt, netsim.LinkConfig{}), []UDFBinding{analysisBinding()})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		rows []types.Tuple
		err  error
	}
	done := make(chan result, 1)
	go func() {
		got, err := Collect(context.Background(), op)
		done <- result{got, err}
	}()
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("the first UDF call never reached the client")
	}
	// Give the sender time to deal a second frame if its window let it.
	time.Sleep(50 * time.Millisecond)
	if m := op.NetStats().Messages; m != 1 {
		t.Errorf("frames dealt while the first call is held = %d, want 1", m)
	}
	close(release)
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if len(res.rows) != len(rows) {
		t.Fatalf("rows = %d, want %d", len(res.rows), len(rows))
	}
	for i, r := range res.rows {
		ts, _ := rows[i][2].Series()
		if v, _ := r[3].Int(); v != expectedRating(ts) {
			t.Errorf("row %d rating = %d, want %d", i, v, expectedRating(ts))
		}
	}
	if st := op.NetStats(); st.Messages != distinct || st.Invocations != distinct {
		t.Errorf("messages = %d, invocations = %d, want %d each", st.Messages, st.Invocations, distinct)
	}
}

func TestSemiJoinOperator(t *testing.T) {
	rows := stockRows(30)
	rt := newAnalysisRuntime(t)
	link := NewInProcessLink(rt, netsim.LinkConfig{})
	op, err := NewSemiJoin(NewValuesScan(stockSchema(), rows), link, []UDFBinding{analysisBinding()})
	if err != nil {
		t.Fatal(err)
	}
	op.ConcurrencyFactor = 5
	got, err := Collect(context.Background(), op)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("semi-join returned %d rows, want %d", len(got), len(rows))
	}
	for i, r := range got {
		ts, _ := rows[i][2].Series()
		if v, _ := r[3].Int(); v != expectedRating(ts) {
			t.Errorf("row %d rating = %d, want %d", i, v, expectedRating(ts))
		}
	}
	// 30 rows share 30 distinct Quotes series (series depend on i), so all
	// are shipped; invocation count equals distinct argument count.
	if op.NetStats().Invocations != 30 {
		t.Errorf("semi-join invocations = %d", op.NetStats().Invocations)
	}
}

func TestSemiJoinDuplicateElimination(t *testing.T) {
	// 40 rows but only 4 distinct argument values: the semi-join must ship
	// only 4 argument tuples and invoke the UDF 4 times.
	rows := make([]types.Tuple, 40)
	for i := range rows {
		series := types.NewTimeSeries(types.TimeSeries{100, 100 + float64(i%4)})
		rows[i] = types.NewTuple(types.NewString(fmt.Sprintf("N%d", i)), types.NewFloat(float64(i)), series)
	}
	rt := newAnalysisRuntime(t)
	calls := countCalls(t, rt, "ClientAnalysis")
	link := NewInProcessLink(rt, netsim.LinkConfig{})
	op, err := NewSemiJoin(NewValuesScan(stockSchema(), rows), link, []UDFBinding{analysisBinding()})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(context.Background(), op)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 40 {
		t.Fatalf("rows = %d", len(got))
	}
	if calls.Load() != 4 {
		t.Errorf("client invocations = %d, want 4 (argument duplicates eliminated)", calls.Load())
	}
	if op.NetStats().Invocations != 4 {
		t.Errorf("shipped arguments = %d, want 4", op.NetStats().Invocations)
	}
	// Every duplicate still received the right result.
	for i, r := range got {
		ts, _ := rows[i][2].Series()
		if v, _ := r[3].Int(); v != expectedRating(ts) {
			t.Errorf("row %d rating = %d, want %d", i, v, expectedRating(ts))
		}
	}
}

func TestSemiJoinSortedInput(t *testing.T) {
	rows := stockRows(20)
	link := fastLink(t)
	// Sorting on the argument column below the operator makes its receiver a
	// pure merge join (the assumption the paper makes for it).
	arg := analysisBinding().ArgOrdinals[0]
	slices.SortFunc(rows, func(a, b types.Tuple) int {
		c, _ := types.Compare(a[arg], b[arg])
		return c
	})
	op, err := NewSemiJoin(NewValuesScan(stockSchema(), rows), link, []UDFBinding{analysisBinding()})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(context.Background(), op)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("rows = %d", len(got))
	}
	// The output is ordered by the argument column; verify every output row
	// carries a consistent rating for its series.
	for _, r := range got {
		ts, _ := r[2].Series()
		if v, _ := r[3].Int(); v != expectedRating(ts) {
			t.Errorf("rating mismatch for %v", r)
		}
	}
}

func TestSemiJoinConcurrencyFactors(t *testing.T) {
	rows := stockRows(25)
	for _, w := range []int{1, 2, 8, 64} {
		link := fastLink(t)
		op, err := NewSemiJoin(NewValuesScan(stockSchema(), rows), link, []UDFBinding{analysisBinding()})
		if err != nil {
			t.Fatal(err)
		}
		op.ConcurrencyFactor = w
		got, err := Collect(context.Background(), op)
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		if len(got) != len(rows) {
			t.Errorf("w=%d: rows = %d", w, len(got))
		}
	}
	// Invalid factor rejected at Open.
	op, _ := NewSemiJoin(NewValuesScan(stockSchema(), rows), fastLink(t), []UDFBinding{analysisBinding()})
	op.ConcurrencyFactor = 0
	if err := op.Open(context.Background()); err == nil {
		t.Error("concurrency factor 0 should fail")
	}
}

func TestSemiJoinEarlyClose(t *testing.T) {
	// A consumer that closes the semi-join after 3 rows abandons the stream
	// early; Close must not deadlock and must not leak the sender goroutine.
	rows := stockRows(200)
	link := fastLink(t)
	op, err := NewSemiJoin(NewValuesScan(stockSchema(), rows), link, []UDFBinding{analysisBinding()})
	if err != nil {
		t.Fatal(err)
	}
	op.ConcurrencyFactor = 4
	done := make(chan error, 1)
	go func() {
		rows, err := collectN(context.Background(), op, 3)
		if err == nil && len(rows) != 3 {
			err = fmt.Errorf("pulled %d rows, want 3", len(rows))
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("early close deadlocked")
	}
}

func TestClientJoinOperator(t *testing.T) {
	rows := stockRows(15)
	link := fastLink(t)
	op, err := NewClientJoin(NewValuesScan(stockSchema(), rows), link, []UDFBinding{analysisBinding()})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(context.Background(), op)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("client-site join returned %d rows, want %d", len(got), len(rows))
	}
	// Order is preserved (records flow through the client in order).
	for i, r := range got {
		if r.Len() != 4 {
			t.Fatalf("row arity = %d", r.Len())
		}
		name, _ := r[0].Str()
		wantName, _ := rows[i][0].Str()
		if name != wantName {
			t.Errorf("row %d name = %s, want %s", i, name, wantName)
		}
		ts, _ := rows[i][2].Series()
		if v, _ := r[3].Int(); v != expectedRating(ts) {
			t.Errorf("row %d rating mismatch", i)
		}
	}
	stats := op.NetStats()
	if stats.BytesDown <= stats.BytesUp/2 && stats.BytesUp == 0 {
		t.Errorf("client join stats look wrong: %+v", stats)
	}
}

func TestClientJoinPushableOps(t *testing.T) {
	rows := stockRows(20)
	link := fastLink(t)
	op, err := NewClientJoin(NewValuesScan(stockSchema(), rows), link, []UDFBinding{analysisBinding()})
	if err != nil {
		t.Fatal(err)
	}
	// Pushable predicate over the extended record: Rating (ordinal 3) > 500.
	op.Pushable = expr.NewBinary(expr.OpGt, expr.NewBoundColumnRef(3, types.KindInt), expr.NewConst(types.NewInt(500)))
	// Pushable projection: return only Name and Rating.
	op.ProjectOrdinals = []int{0, 3}
	got, err := Collect(context.Background(), op)
	if err != nil {
		t.Fatal(err)
	}
	// Ratings are (i/100)*10000 basis points = i*100 for row i; rows with
	// i*100 > 500 ⇒ i >= 6 ⇒ 14 rows.
	if len(got) != 14 {
		t.Fatalf("pushable predicate kept %d rows, want 14", len(got))
	}
	for _, r := range got {
		if r.Len() != 2 {
			t.Errorf("pushable projection arity = %d, want 2", r.Len())
		}
		if v, _ := r[1].Int(); v <= 500 {
			t.Errorf("pushable predicate leaked rating %d", v)
		}
	}
	if op.Schema().Len() != 2 {
		t.Errorf("projected schema = %v", op.Schema())
	}
}

// TestClientJoinChargesFramesInFlight checks that the records a client-site
// join holds in flight are charged to the query's memory tracker: at least
// one frame's worth at the peak, nothing once the operator is closed, and a
// hard limit below one frame fails the query with the tracker's error.
func TestClientJoinChargesFramesInFlight(t *testing.T) {
	rows := stockRows(64)
	build := func(t *testing.T) *ClientJoin {
		op, err := NewClientJoin(NewValuesScan(stockSchema(), rows), fastLink(t), []UDFBinding{analysisBinding()})
		if err != nil {
			t.Fatal(err)
		}
		op.Sessions = 2
		return op
	}
	var frame int64
	for _, r := range rows[:DefaultShipBatchSize] {
		frame += int64(r.MemSize())
	}

	tracker := NewMemTracker(0)
	op := build(t)
	got, err := Collect(WithMemTracker(context.Background(), tracker), op)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("%d rows, want %d", len(got), len(rows))
	}
	if tracker.Peak() < frame {
		t.Errorf("peak charge %d B, want at least one frame's records (%d B)", tracker.Peak(), frame)
	}
	if tracker.Used() != 0 {
		t.Errorf("tracker still charged %d B after Close", tracker.Used())
	}

	tracker = NewMemTracker(0)
	tracker.SetHardLimit(frame - 1)
	if _, err := Collect(WithMemTracker(context.Background(), tracker), build(t)); !errors.Is(err, ErrMemoryLimit) {
		t.Errorf("err = %v, want ErrMemoryLimit under a hard limit below one frame", err)
	}
	if tracker.Used() != 0 {
		t.Errorf("tracker still charged %d B after the failed query", tracker.Used())
	}
}

// TestSemiJoinChargesParkedRecords checks that the records a semi-join parks
// between sender and receiver are charged to the query's memory tracker: at
// least one parked batch's worth at the peak, nothing once the operator is
// closed — after a clean drain or under a LIMIT that abandons the stream —
// and a hard limit below one parked batch fails the query with the tracker's
// error. Every argument repeats in 64 rows, so the dedup set and the result
// table alone stay far below one batch of records.
func TestSemiJoinChargesParkedRecords(t *testing.T) {
	rows := repeatedRows(512, 64)
	build := func(t *testing.T) *SemiJoin {
		op, err := NewSemiJoin(NewValuesScan(stockSchema(), rows), fastLink(t), []UDFBinding{analysisBinding()})
		if err != nil {
			t.Fatal(err)
		}
		op.ConcurrencyFactor = sendBatchSize
		return op
	}
	// The sender parks one batch per frame it deals, as columns.
	var parked types.Batch
	parked.Reset(stockSchema().Len())
	parked.AppendRows(rows[:sendBatchSize]...)
	batch := parked.MemSize(0)

	tracker := NewMemTracker(0)
	got, err := Collect(WithMemTracker(context.Background(), tracker), build(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("%d rows, want %d", len(got), len(rows))
	}
	if tracker.Peak() < batch {
		t.Errorf("peak charge %d B, want at least one parked batch's records (%d B)", tracker.Peak(), batch)
	}
	if tracker.Used() != 0 {
		t.Errorf("tracker still charged %d B after Close", tracker.Used())
	}

	tracker = NewMemTracker(0)
	got, err = collectN(WithMemTracker(context.Background(), tracker), build(t), 3)
	if err != nil || len(got) != 3 {
		t.Fatalf("early close: %d rows, %v", len(got), err)
	}
	if tracker.Used() != 0 {
		t.Errorf("tracker still charged %d B after an early Close", tracker.Used())
	}

	tracker = NewMemTracker(0)
	tracker.SetHardLimit(batch - 1)
	if _, err := Collect(WithMemTracker(context.Background(), tracker), build(t)); !errors.Is(err, ErrMemoryLimit) {
		t.Errorf("err = %v, want ErrMemoryLimit under a hard limit below one parked batch", err)
	}
	if tracker.Used() != 0 {
		t.Errorf("tracker still charged %d B after the failed query", tracker.Used())
	}
}

// TestSemiJoinRepublishChargesOnce: a frame answered again, as a replay
// after failover can, leaves the result table and its charge as they were.
func TestSemiJoinRepublishChargesOnce(t *testing.T) {
	op, err := NewSemiJoin(NewValuesScan(stockSchema(), nil), fastLink(t), []UDFBinding{analysisBinding()})
	if err != nil {
		t.Fatal(err)
	}
	tracker := NewMemTracker(0)
	op.mem = memAccount{t: tracker}
	frame := shipFrame[[]int32]{tuples: make([]types.Tuple, 2), tag: []int32{1, 0}}
	reply := []types.Tuple{{types.NewInt(10)}, {types.NewInt(20)}}
	for i := 0; i < 2; i++ {
		if err := op.publish(frame, reply); err != nil {
			t.Fatal(err)
		}
	}
	if want := int64(reply[0].MemSize() + reply[1].MemSize()); tracker.Used() != want {
		t.Errorf("two publishes of one frame charged %d B, want %d", tracker.Used(), want)
	}
	if res, err := op.result(1); err != nil || !sameRow(res, reply[0]) {
		t.Errorf("argument 1's result = %v, %v; want %v", res, err, reply[0])
	}
}

func TestClientJoinEarlyClose(t *testing.T) {
	rows := stockRows(500)
	link := fastLink(t)
	op, err := NewClientJoin(NewValuesScan(stockSchema(), rows), link, []UDFBinding{analysisBinding()})
	if err != nil {
		t.Fatal(err)
	}
	op.ShipBatchSize = 1
	done := make(chan error, 1)
	go func() {
		rows, err := collectN(context.Background(), op, 2)
		if err == nil && len(rows) != 2 {
			err = fmt.Errorf("pulled %d rows, want 2", len(rows))
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("early close deadlocked")
	}
}

func TestClientUDFErrorPropagation(t *testing.T) {
	// A UDF that fails at the client must surface as an operator error for
	// every strategy.
	rt := client.NewRuntime()
	_ = rt.Register(&client.Func{
		Name:       "ClientAnalysis",
		ResultKind: types.KindInt,
		Body: func(args []types.Value) (types.Value, error) {
			return types.Value{}, fmt.Errorf("analysis blew up")
		},
	})
	rows := stockRows(3)

	semi, _ := NewSemiJoin(NewValuesScan(stockSchema(), rows), NewInProcessLink(rt, netsim.LinkConfig{}), []UDFBinding{analysisBinding()})
	if _, err := Collect(context.Background(), semi); err == nil {
		t.Error("semi-join operator should propagate the client error")
	}
	cj, _ := NewClientJoin(NewValuesScan(stockSchema(), rows), NewInProcessLink(rt, netsim.LinkConfig{}), []UDFBinding{analysisBinding()})
	if _, err := Collect(context.Background(), cj); err == nil {
		t.Error("client-site join operator should propagate the client error")
	}

	// An unregistered UDF is rejected at setup time.
	missing, _ := NewSemiJoin(NewValuesScan(stockSchema(), rows), NewInProcessLink(rt, netsim.LinkConfig{}),
		[]UDFBinding{{Name: "DoesNotExist", ArgOrdinals: []int{2}, ResultKind: types.KindInt}})
	if err := missing.Open(context.Background()); err == nil {
		t.Error("setup with an unregistered UDF should fail")
		_ = missing.Close()
	}
}

func TestOperatorConstructionErrors(t *testing.T) {
	scan := NewValuesScan(stockSchema(), nil)
	link := fastLink(t)
	if _, err := NewSemiJoin(scan, link, nil); err == nil {
		t.Error("semi-join without UDFs should fail")
	}
	if _, err := NewClientJoin(scan, link, nil); err == nil {
		t.Error("client join without UDFs should fail")
	}
	bad := UDFBinding{Name: "X", ArgOrdinals: []int{99}, ResultKind: types.KindInt}
	if _, err := NewSemiJoin(scan, link, []UDFBinding{bad}); err == nil {
		t.Error("out-of-range argument ordinal should fail")
	}
	if _, err := NewClientJoin(scan, link, []UDFBinding{bad}); err == nil {
		t.Error("out-of-range argument ordinal should fail (client join)")
	}
	noArgs := UDFBinding{Name: "X", ResultKind: types.KindInt}
	if _, err := NewSemiJoin(scan, link, []UDFBinding{noArgs}); err == nil {
		t.Error("UDF without argument columns should fail for semi-join")
	}
	// Operators without a link refuse to open.
	sj, _ := NewSemiJoin(scan, nil, []UDFBinding{analysisBinding()})
	if err := sj.Open(context.Background()); err == nil {
		t.Error("semi-join without a link should fail to open")
	}
	cj, _ := NewClientJoin(scan, nil, []UDFBinding{analysisBinding()})
	if err := cj.Open(context.Background()); err == nil {
		t.Error("client join without a link should fail to open")
	}
	// In-process link without a runtime fails on session open.
	empty := &InProcessLink{}
	if _, err := empty.OpenSession(context.Background()); err == nil {
		t.Error("in-process link without runtime should fail")
	}
}

func TestDialLink(t *testing.T) {
	// Spin up a TCP listener backed by the client runtime and execute a
	// semi-join through a DialLink — the path a planner over a remote client
	// runtime uses.
	rt := newAnalysisRuntime(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { _ = rt.ServeConn(wire.NewConn(conn)) }()
		}
	}()
	link := &DialLink{Addr: ln.Addr().String()}
	rows := stockRows(10)
	op, err := NewSemiJoin(NewValuesScan(stockSchema(), rows), link, []UDFBinding{analysisBinding()})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(context.Background(), op)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Errorf("dial link semi-join = %d rows", len(got))
	}
	// Dialling a dead address fails.
	dead := &DialLink{Addr: "127.0.0.1:1"}
	if _, err := dead.OpenSession(context.Background()); err == nil {
		t.Error("dialling a dead address should fail")
	}
}

// TestDialLinkCancelledContext dials a listening address under a cancelled
// context: the dial must give up at once with context.Canceled instead of
// connecting (or waiting out the dial timeout).
func TestDialLinkCancelledContext(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	link := &DialLink{Addr: ln.Addr().String()}
	start := time.Now()
	conn, err := link.OpenSession(ctx)
	if err == nil {
		_ = conn.Close()
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancelled dial took %v", elapsed)
	}
}

// TestStrategyEquivalence property: naive, semi-join and client-site join all
// compute the same multiset of (input, result) rows on random inputs with
// random duplicate structure. This is the paper's implicit correctness
// requirement: the strategies differ only in cost.
func TestStrategyEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(25)
		rows := make([]types.Tuple, n)
		for i := range rows {
			series := types.NewTimeSeries(types.TimeSeries{100, 100 + float64(r.Intn(5))})
			rows[i] = types.NewTuple(
				types.NewString(fmt.Sprintf("N%d", r.Intn(6))),
				types.NewFloat(float64(r.Intn(50))),
				series,
			)
		}
		collectSorted := func(op Operator) ([]string, error) {
			out, err := Collect(context.Background(), op)
			if err != nil {
				return nil, err
			}
			keys := keysOf(out)
			sort.Strings(keys)
			return keys, nil
		}
		naive, err := newNaive(NewValuesScan(stockSchema(), rows), fastLink(t), []UDFBinding{analysisBinding()})
		if err != nil {
			return false
		}
		a, err := collectSorted(naive)
		if err != nil {
			return false
		}
		semi, err := NewSemiJoin(NewValuesScan(stockSchema(), rows), fastLink(t), []UDFBinding{analysisBinding()})
		if err != nil {
			return false
		}
		semi.ConcurrencyFactor = 1 + r.Intn(8)
		b, err := collectSorted(semi)
		if err != nil {
			return false
		}
		cj, err := NewClientJoin(NewValuesScan(stockSchema(), rows), fastLink(t), []UDFBinding{analysisBinding()})
		if err != nil {
			return false
		}
		cj.ShipBatchSize = 1 + r.Intn(8)
		c, err := collectSorted(cj)
		if err != nil {
			return false
		}
		if len(a) != len(b) || len(b) != len(c) {
			return false
		}
		for i := range a {
			if a[i] != b[i] || b[i] != c[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestContextCancellation(t *testing.T) {
	rows := stockRows(50)
	link := fastLink(t)
	op, err := NewSemiJoin(NewValuesScan(stockSchema(), rows), link, []UDFBinding{analysisBinding()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	// Read a couple of rows, then cancel and close.
	row := &types.Batch{Max: 1}
	for i := 0; i < 2; i++ {
		if n, err := op.NextBatch(row); err != nil || n != 1 {
			t.Fatalf("next %d: %d %v", i, n, err)
		}
	}
	cancel()
	done := make(chan struct{})
	go func() {
		_ = op.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close after cancellation deadlocked")
	}
}

// countCalls makes the registered function count its invocations.
func countCalls(t *testing.T, rt *client.Runtime, name string) *atomic.Int64 {
	t.Helper()
	f, ok := rt.Lookup(name)
	if !ok {
		t.Fatalf("%s is not registered", name)
	}
	var n atomic.Int64
	body := f.Body
	f.Body = func(args []types.Value) (types.Value, error) {
		n.Add(1)
		return body(args)
	}
	return &n
}
