package client

import (
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"csq/internal/expr"
	"csq/internal/types"
	"csq/internal/wire"
)

// analysisFunc is the test stand-in for the paper's ClientAnalysis UDF: it
// rates a quote series by its total change in basis points.
func analysisFunc() *Func {
	return &Func{
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
	}
}

func volatilityFunc() *Func {
	return &Func{
		Name:       "Volatility",
		ArgKinds:   []types.Kind{types.KindTimeSeries, types.KindTimeSeries},
		ResultKind: types.KindFloat,
		ResultSize: 10,
		Body: func(args []types.Value) (types.Value, error) {
			a, err := args[0].Series()
			if err != nil {
				return types.Value{}, err
			}
			b, err := args[1].Series()
			if err != nil {
				return types.Value{}, err
			}
			return types.NewFloat(a.Volatility() + b.Volatility()), nil
		},
	}
}

func shippedSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Qualifier: "S", Name: "Quotes", Kind: types.KindTimeSeries},
		types.Column{Qualifier: "S", Name: "Name", Kind: types.KindString},
	)
}

func TestRegisterAndCall(t *testing.T) {
	r := NewRuntime()
	if err := r.Register(analysisFunc()); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(analysisFunc()); err == nil {
		t.Error("duplicate registration should fail")
	}
	if err := r.Register(&Func{Name: "", ResultKind: types.KindInt, Body: func([]types.Value) (types.Value, error) { return types.Value{}, nil }}); err == nil {
		t.Error("empty name should fail")
	}
	if err := r.Register(&Func{Name: "x", ResultKind: types.KindInt}); err == nil {
		t.Error("nil body should fail")
	}
	if err := r.Register(&Func{Name: "x", Body: func([]types.Value) (types.Value, error) { return types.Value{}, nil }}); err == nil {
		t.Error("missing result kind should fail")
	}

	if _, ok := r.Lookup("clientanalysis"); !ok {
		t.Error("case-insensitive lookup failed")
	}
	calls := countCalls(t, r, "ClientAnalysis")
	v, err := r.Call("ClientAnalysis", []types.Value{types.NewTimeSeries(types.TimeSeries{100, 120})})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if i, _ := v.Int(); i != 2000 {
		t.Errorf("ClientAnalysis = %v, want 2000", v)
	}
	if _, err := r.Call("missing", nil); err == nil {
		t.Error("calling an unregistered function should fail")
	}
	if _, err := r.Call("ClientAnalysis", nil); err == nil {
		t.Error("wrong arity should fail")
	}
	if calls.Load() != 1 {
		t.Errorf("invocation count = %d", calls.Load())
	}
	if err := r.Register(volatilityFunc()); err != nil {
		t.Fatal(err)
	}
	fs := r.Functions()
	if len(fs) != 2 || fs[0].Name != "ClientAnalysis" || fs[1].Name != "Volatility" {
		t.Errorf("Functions() = %v", fs)
	}
}

// startRuntime wires a runtime to an in-process connection, served as a
// session dialled by the server is, and returns the server-side framed
// connection plus a cleanup function.
func startRuntime(t *testing.T, r *Runtime) (*wire.Conn, func()) {
	t.Helper()
	serverRaw, clientRaw := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- r.ServeConn(wire.NewConn(clientRaw)) }()
	conn := wire.NewConn(serverRaw)
	cleanup := func() {
		_ = conn.Close()
		_ = serverRaw.Close()
		<-done
	}
	return conn, cleanup
}

func setupSession(t *testing.T, conn *wire.Conn, req *wire.SetupRequest) *wire.SetupAck {
	t.Helper()
	payload, err := wire.EncodeSetup(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(wire.MsgSetup, payload); err != nil {
		t.Fatal(err)
	}
	msg, err := conn.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != wire.MsgSetupAck {
		t.Fatalf("expected SETUP_ACK, got %s", msg.Type)
	}
	ack, err := wire.DecodeSetupAck(msg.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return ack
}

func sendBatch(t *testing.T, conn *wire.Conn, session, seq uint64, tuples []types.Tuple) *wire.TupleBatch {
	t.Helper()
	payload, err := wire.AppendTupleBatch(nil, &wire.TupleBatch{SessionID: session, Seq: seq, Tuples: tuples})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(wire.MsgTupleBatch, payload); err != nil {
		t.Fatal(err)
	}
	msg, err := conn.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type == wire.MsgError {
		e, _ := wire.DecodeError(msg.Payload)
		t.Fatalf("client returned error: %s", e.Message)
	}
	if msg.Type != wire.MsgResultBatch {
		t.Fatalf("expected RESULT_BATCH, got %s", msg.Type)
	}
	batch := &wire.TupleBatch{}
	if err := wire.DecodeTupleBatchInto(batch, msg.Payload); err != nil {
		t.Fatal(err)
	}
	return batch
}

func TestAnnouncePreamble(t *testing.T) {
	r := NewRuntime()
	_ = r.Register(analysisFunc())
	_ = r.Register(volatilityFunc())
	serverRaw, clientRaw := net.Pipe()
	go func() { _ = r.Announce(wire.NewConn(clientRaw)) }()
	conn := wire.NewConn(serverRaw)
	defer conn.Close()
	names := []string{}
	for {
		msg, err := conn.Receive()
		if err != nil {
			t.Fatal(err)
		}
		if msg.Type == wire.MsgEnd {
			break
		}
		reg, err := wire.DecodeRegisterUDF(msg.Payload)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, reg.Name)
	}
	if strings.Join(names, ",") != "ClientAnalysis,Volatility" {
		t.Errorf("announced %v", names)
	}
}

func TestSemiJoinSession(t *testing.T) {
	r := NewRuntime()
	_ = r.Register(analysisFunc())
	calls := countCalls(t, r, "ClientAnalysis")
	conn, cleanup := startRuntime(t, r)
	defer cleanup()

	ack := setupSession(t, conn, &wire.SetupRequest{
		SessionID:   1,
		Mode:        wire.ModeSemiJoin,
		InputSchema: types.NewSchema(types.Column{Name: "Quotes", Kind: types.KindTimeSeries}),
		UDFs:        []wire.UDFSpec{{Name: "ClientAnalysis", ArgOrdinals: []int{0}}},
	})
	if !ack.OK {
		t.Fatalf("setup rejected: %s", ack.Error)
	}
	args := []types.Tuple{
		types.NewTuple(types.NewTimeSeries(types.TimeSeries{100, 150})),
		types.NewTuple(types.NewTimeSeries(types.TimeSeries{100, 90})),
	}
	res := sendBatch(t, conn, 1, 0, args)
	if len(res.Tuples) != 2 {
		t.Fatalf("semi-join returned %d tuples", len(res.Tuples))
	}
	// Semi-join returns bare results only.
	if res.Tuples[0].Len() != 1 {
		t.Errorf("result arity = %d, want 1", res.Tuples[0].Len())
	}
	if i, _ := res.Tuples[0][0].Int(); i != 5000 {
		t.Errorf("result[0] = %v", res.Tuples[0][0])
	}
	if i, _ := res.Tuples[1][0].Int(); i != -1000 {
		t.Errorf("result[1] = %v", res.Tuples[1][0])
	}
	// End handshake.
	if err := conn.Send(wire.MsgEnd, wire.EncodeEnd(&wire.End{SessionID: 1})); err != nil {
		t.Fatal(err)
	}
	msg, err := conn.Receive()
	if err != nil || msg.Type != wire.MsgEnd {
		t.Fatalf("end handshake = %v, %v", msg.Type, err)
	}
	if calls.Load() != 2 {
		t.Errorf("invocations = %d", calls.Load())
	}
}

func TestClientJoinSessionWithPushableOps(t *testing.T) {
	r := NewRuntime()
	_ = r.Register(analysisFunc())
	conn, cleanup := startRuntime(t, r)
	defer cleanup()

	// Pushable predicate: ClientAnalysis result ( ordinal 2 = len(schema)+0 )
	// greater than 0. Built over the extended tuple (Quotes, Name, result).
	pred, err := expr.Marshal(expr.NewBinary(expr.OpGt,
		expr.NewBoundColumnRef(2, types.KindInt),
		expr.NewConst(types.NewInt(0))))
	if err != nil {
		t.Fatal(err)
	}
	ack := setupSession(t, conn, &wire.SetupRequest{
		SessionID:         2,
		Mode:              wire.ModeClientJoin,
		InputSchema:       shippedSchema(),
		UDFs:              []wire.UDFSpec{{Name: "ClientAnalysis", ArgOrdinals: []int{0}}},
		PushablePredicate: pred,
		// Return only Name and the UDF result (pushable projection).
		ProjectOrdinals: []int{1, 2},
	})
	if !ack.OK {
		t.Fatalf("setup rejected: %s", ack.Error)
	}
	rows := []types.Tuple{
		types.NewTuple(types.NewTimeSeries(types.TimeSeries{100, 150}), types.NewString("UP")),
		types.NewTuple(types.NewTimeSeries(types.TimeSeries{100, 50}), types.NewString("DOWN")),
		types.NewTuple(types.NewTimeSeries(types.TimeSeries{100, 101}), types.NewString("FLATISH")),
	}
	res := sendBatch(t, conn, 2, 0, rows)
	if len(res.Tuples) != 2 {
		t.Fatalf("client-site join returned %d tuples, want 2 (predicate drops DOWN)", len(res.Tuples))
	}
	for _, tup := range res.Tuples {
		if tup.Len() != 2 {
			t.Errorf("projected arity = %d, want 2", tup.Len())
		}
		name, _ := tup[0].Str()
		if name == "DOWN" {
			t.Error("predicate should have dropped the DOWN row at the client")
		}
	}
}

// TestNaiveModeSession: the naive strategy is a semi-join session that ships
// one tuple per frame and waits for each reply.
func TestNaiveModeSession(t *testing.T) {
	r := NewRuntime()
	_ = r.Register(analysisFunc())
	calls := countCalls(t, r, "ClientAnalysis")
	conn, cleanup := startRuntime(t, r)
	defer cleanup()
	ack := setupSession(t, conn, &wire.SetupRequest{
		SessionID:   3,
		Mode:        wire.ModeSemiJoin,
		InputSchema: types.NewSchema(types.Column{Name: "Quotes", Kind: types.KindTimeSeries}),
		UDFs:        []wire.UDFSpec{{Name: "ClientAnalysis", ArgOrdinals: []int{0}}},
	})
	if !ack.OK {
		t.Fatalf("setup rejected: %s", ack.Error)
	}
	// One tuple per batch, many batches.
	for seq := uint64(0); seq < 5; seq++ {
		res := sendBatch(t, conn, 3, seq, []types.Tuple{
			types.NewTuple(types.NewTimeSeries(types.TimeSeries{100, 100 + float64(seq)})),
		})
		if len(res.Tuples) != 1 || res.Seq != seq {
			t.Fatalf("naive batch %d: %d tuples, seq %d", seq, len(res.Tuples), res.Seq)
		}
	}
	if calls.Load() != 5 {
		t.Errorf("invocations = %d", calls.Load())
	}
}

func TestMultiUDFAndChaining(t *testing.T) {
	// Volatility uses two argument columns; ClientAnalysis result feeds the
	// predicate. Both run in the same session (the paper's UDF grouping).
	r := NewRuntime()
	_ = r.Register(analysisFunc())
	_ = r.Register(volatilityFunc())
	conn, cleanup := startRuntime(t, r)
	defer cleanup()

	schema := types.NewSchema(
		types.Column{Name: "Quotes", Kind: types.KindTimeSeries},
		types.Column{Name: "Futures", Kind: types.KindTimeSeries},
		types.Column{Name: "Name", Kind: types.KindString},
	)
	ack := setupSession(t, conn, &wire.SetupRequest{
		SessionID:   4,
		Mode:        wire.ModeClientJoin,
		InputSchema: schema,
		UDFs: []wire.UDFSpec{
			{Name: "ClientAnalysis", ArgOrdinals: []int{0}},
			{Name: "Volatility", ArgOrdinals: []int{0, 1}},
		},
	})
	if !ack.OK {
		t.Fatalf("setup rejected: %s", ack.Error)
	}
	rows := []types.Tuple{
		types.NewTuple(
			types.NewTimeSeries(types.TimeSeries{100, 120}),
			types.NewTimeSeries(types.TimeSeries{50, 55, 60}),
			types.NewString("ACME"),
		),
	}
	res := sendBatch(t, conn, 4, 0, rows)
	if len(res.Tuples) != 1 {
		t.Fatalf("returned %d tuples", len(res.Tuples))
	}
	// Extended tuple: Quotes, Futures, Name, CA result, Volatility result.
	if res.Tuples[0].Len() != 5 {
		t.Errorf("extended arity = %d, want 5", res.Tuples[0].Len())
	}
	if i, _ := res.Tuples[0][3].Int(); i != 2000 {
		t.Errorf("ClientAnalysis column = %v", res.Tuples[0][3])
	}
	if res.Tuples[0][4].Kind() != types.KindFloat {
		t.Errorf("Volatility column kind = %v", res.Tuples[0][4].Kind())
	}
}

// TestRefusesFinalDelivery: the client keeps no rows, so a setup carrying
// the retired final-delivery bit is refused by name, and an End (which
// servers that predate ending a query by closing its sessions still send)
// is echoed with no rows.
func TestRefusesFinalDelivery(t *testing.T) {
	r := NewRuntime()
	_ = r.Register(analysisFunc())
	conn, cleanup := startRuntime(t, r)
	defer cleanup()

	ack := setupSession(t, conn, &wire.SetupRequest{
		SessionID:     5,
		Mode:          wire.ModeClientJoin,
		InputSchema:   shippedSchema(),
		UDFs:          []wire.UDFSpec{{Name: "ClientAnalysis", ArgOrdinals: []int{0}}},
		FinalDelivery: true,
	})
	if ack.OK || !strings.Contains(ack.Error, "final delivery (flag bit 0)") {
		t.Errorf("final-delivery setup ack = %+v, want a refusal naming the bit", ack)
	}
	if err := conn.Send(wire.MsgEnd, wire.EncodeEnd(&wire.End{SessionID: 5})); err != nil {
		t.Fatal(err)
	}
	msg, err := conn.Receive()
	if err != nil || msg.Type != wire.MsgEnd {
		t.Fatalf("end = %v, %v", msg, err)
	}
	if end, err := wire.DecodeEnd(msg.Payload); err != nil || end.SessionID != 5 || end.Rows != 0 {
		t.Errorf("end echo = %+v, %v; want session 5, 0 rows", end, err)
	}
}

// TestRefusesUnknownMode: a setup whose mode is neither the semi-join nor
// the client-site join, the retired naive code 0 included, is refused at
// setup rather than failing its first batch.
func TestRefusesUnknownMode(t *testing.T) {
	r := NewRuntime()
	_ = r.Register(analysisFunc())
	conn, cleanup := startRuntime(t, r)
	defer cleanup()
	for _, mode := range []wire.Mode{0, 9} {
		ack := setupSession(t, conn, &wire.SetupRequest{
			SessionID:   uint64(20 + mode),
			Mode:        mode,
			InputSchema: shippedSchema(),
			UDFs:        []wire.UDFSpec{{Name: "ClientAnalysis", ArgOrdinals: []int{0}}},
		})
		if ack.OK || !strings.Contains(ack.Error, "unknown execution mode") {
			t.Errorf("mode %d: ack = %+v, want a refusal naming the mode", mode, ack)
		}
	}
}

// TestServesDictionarySetupPlain: a server that still asks for the retired
// per-frame dictionary (Setup flag bit 1) gets an ack without the capability
// byte that accepted it, which it reads as declined, and plain result frames.
func TestServesDictionarySetupPlain(t *testing.T) {
	r := NewRuntime()
	_ = r.Register(analysisFunc())
	conn, cleanup := startRuntime(t, r)
	defer cleanup()
	payload, err := wire.EncodeSetup(&wire.SetupRequest{
		SessionID:   4,
		Mode:        wire.ModeSemiJoin,
		InputSchema: types.NewSchema(types.Column{Name: "Quotes", Kind: types.KindTimeSeries}),
		UDFs:        []wire.UDFSpec{{Name: "ClientAnalysis", ArgOrdinals: []int{0}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	payload[9] |= 2 // the flags byte follows the session ID and the mode
	if err := conn.Send(wire.MsgSetup, payload); err != nil {
		t.Fatal(err)
	}
	msg, err := conn.Receive()
	if err != nil || msg.Type != wire.MsgSetupAck {
		t.Fatalf("ack = %v, %v", msg, err)
	}
	// Session ID, OK byte and an empty error string: nothing after it.
	if len(msg.Payload) != 10 || msg.Payload[8] != 1 {
		t.Fatalf("ack payload = %x, want an OK ack with no capability byte", msg.Payload)
	}
	// The same value fourfold: a frame a per-frame dictionary would shrink.
	series := types.NewTimeSeries(types.TimeSeries{100, 120, 140, 160, 180, 200, 220, 240})
	res := sendBatch(t, conn, 4, 0, []types.Tuple{{series}, {series}, {series}, {series}})
	if len(res.Tuples) != 4 {
		t.Fatalf("reply holds %d tuples, want 4", len(res.Tuples))
	}
}

func TestSetupErrors(t *testing.T) {
	r := NewRuntime()
	_ = r.Register(analysisFunc())
	conn, cleanup := startRuntime(t, r)
	defer cleanup()

	// Unknown UDF.
	ack := setupSession(t, conn, &wire.SetupRequest{
		SessionID:   6,
		Mode:        wire.ModeSemiJoin,
		InputSchema: shippedSchema(),
		UDFs:        []wire.UDFSpec{{Name: "NotRegistered", ArgOrdinals: []int{0}}},
	})
	if ack.OK || !strings.Contains(ack.Error, "not registered") {
		t.Errorf("unknown UDF ack = %+v", ack)
	}
	// Out-of-range argument ordinal.
	ack = setupSession(t, conn, &wire.SetupRequest{
		SessionID:   7,
		Mode:        wire.ModeSemiJoin,
		InputSchema: shippedSchema(),
		UDFs:        []wire.UDFSpec{{Name: "ClientAnalysis", ArgOrdinals: []int{9}}},
	})
	if ack.OK {
		t.Error("out-of-range ordinal should be rejected")
	}
	// Out-of-range projection ordinal.
	ack = setupSession(t, conn, &wire.SetupRequest{
		SessionID:       8,
		Mode:            wire.ModeClientJoin,
		InputSchema:     shippedSchema(),
		UDFs:            []wire.UDFSpec{{Name: "ClientAnalysis", ArgOrdinals: []int{0}}},
		ProjectOrdinals: []int{99},
	})
	if ack.OK {
		t.Error("out-of-range projection should be rejected")
	}
	// Bad pushable predicate bytes.
	ack = setupSession(t, conn, &wire.SetupRequest{
		SessionID:         9,
		Mode:              wire.ModeClientJoin,
		InputSchema:       shippedSchema(),
		PushablePredicate: []byte{0xee, 0xff},
	})
	if ack.OK {
		t.Error("bad predicate bytes should be rejected")
	}
}

func TestRuntimeErrorsDuringBatch(t *testing.T) {
	r := NewRuntime()
	_ = r.Register(&Func{
		Name:       "Explode",
		ResultKind: types.KindInt,
		Body: func(args []types.Value) (types.Value, error) {
			return types.Value{}, fmt.Errorf("boom")
		},
	})
	conn, cleanup := startRuntime(t, r)
	defer cleanup()
	ack := setupSession(t, conn, &wire.SetupRequest{
		SessionID:   10,
		Mode:        wire.ModeSemiJoin,
		InputSchema: types.NewSchema(types.Column{Name: "Quotes", Kind: types.KindTimeSeries}),
		UDFs:        []wire.UDFSpec{{Name: "Explode", ArgOrdinals: []int{0}}},
	})
	if !ack.OK {
		t.Fatalf("setup rejected: %s", ack.Error)
	}
	payload, _ := wire.AppendTupleBatch(nil, &wire.TupleBatch{
		SessionID: 10, Seq: 0,
		Tuples: []types.Tuple{types.NewTuple(types.NewTimeSeries(types.TimeSeries{1}))},
	})
	if err := conn.Send(wire.MsgTupleBatch, payload); err != nil {
		t.Fatal(err)
	}
	msg, err := conn.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != wire.MsgError {
		t.Fatalf("expected ERROR, got %s", msg.Type)
	}
	e, _ := wire.DecodeError(msg.Payload)
	if !strings.Contains(e.Message, "boom") {
		t.Errorf("error message = %q", e.Message)
	}

	// A batch for a session that was never set up also yields an error.
	payload, _ = wire.AppendTupleBatch(nil, &wire.TupleBatch{SessionID: 999, Seq: 0})
	if err := conn.Send(wire.MsgTupleBatch, payload); err != nil {
		t.Fatal(err)
	}
	msg, err = conn.Receive()
	if err != nil || msg.Type != wire.MsgError {
		t.Fatalf("unknown session should produce ERROR, got %v, %v", msg.Type, err)
	}
	// Arity mismatch in a shipped tuple.
	ack = setupSession(t, conn, &wire.SetupRequest{
		SessionID:   11,
		Mode:        wire.ModeSemiJoin,
		InputSchema: shippedSchema(),
	})
	if !ack.OK {
		t.Fatal("setup should succeed")
	}
	payload, _ = wire.AppendTupleBatch(nil, &wire.TupleBatch{
		SessionID: 11, Seq: 0,
		Tuples: []types.Tuple{types.NewTuple(types.NewInt(1))},
	})
	if err := conn.Send(wire.MsgTupleBatch, payload); err != nil {
		t.Fatal(err)
	}
	msg, err = conn.Receive()
	if err != nil || msg.Type != wire.MsgError {
		t.Fatalf("arity mismatch should produce ERROR, got %v, %v", msg.Type, err)
	}
}

// countCalls makes the registered function count its invocations.
func countCalls(t *testing.T, r *Runtime, name string) *atomic.Int64 {
	t.Helper()
	f, ok := r.Lookup(name)
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
