package service

import (
	"bytes"
	"encoding/binary"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"csq/internal/catalog"
	"csq/internal/plan"
	"csq/internal/types"
	"csq/internal/wire"
)

// isCanceled reports whether a query error, which crosses the wire as text,
// describes a cancelled query.
func isCanceled(err error) bool {
	return err != nil && strings.Contains(err.Error(), "context canceled")
}

// startServer runs a wire front-end over a fresh service on TCP loopback.
func startServer(t *testing.T, fx *serviceFixture, cfg Config) (*Server, string) {
	t.Helper()
	svc := New(fx.cat, cfg)
	srv := NewServer(svc)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(srv.Close)
	return srv, ln.Addr().String()
}

// TestServerQueryOverWire submits queries through the MsgQuery framing over
// TCP loopback — a UDF query (whose sessions dial the client runtime) and a
// pure server-side query — and checks the streamed results byte-for-byte
// against the unbudgeted in-process path.
func TestServerQueryOverWire(t *testing.T) {
	fx := newServiceFixture(t)
	defer fx.cleanup()
	_, addr := startServer(t, fx, Config{Planner: plan.Config{Link: fixedLink()}})

	req, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer req.Close()

	// UDF query: score over events, filtered server-side.
	const text = "s(G, K, P, V, S) :- events(G, K, P, V), udf score(K) as S, G < 5."
	q, err := req.SubmitText(text, wire.QuerySpec{ClientAddr: fx.clientAddr})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	got, err := q.Collect()
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	want := referenceRun(t, fx, compileText(t, fx, text))
	if !bytes.Equal(encodeRows(t, got), encodeRows(t, want)) {
		t.Fatalf("wire query result differs: %d rows vs %d", len(got), len(want))
	}

	// Pure server-side query on the same connection: no UDFs, no client addr.
	q2, err := req.SubmitText(labelsQuery, wire.QuerySpec{})
	if err != nil {
		t.Fatalf("submit server-side: %v", err)
	}
	rows, err := q2.Collect()
	if err != nil {
		t.Fatalf("collect server-side: %v", err)
	}
	if len(rows) != dimRows {
		t.Fatalf("server-side query returned %d rows, want %d", len(rows), dimRows)
	}
}

// TestServerCancelOverWire cancels a slow query with MsgCancel (after the
// ack negotiated CapCancel) and expects the stream to terminate promptly
// with a cancellation error.
func TestServerCancelOverWire(t *testing.T) {
	fx := newServiceFixture(t)
	defer fx.cleanup()
	_, addr := startServer(t, fx, Config{Planner: plan.Config{Link: fixedLink()}})

	req, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer req.Close()

	q, err := req.SubmitText(slowQuery, wire.QuerySpec{ClientAddr: fx.clientAddr})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if q.caps&wire.CapCancel == 0 {
		t.Fatalf("server did not negotiate CapCancel")
	}

	done := make(chan error, 1)
	var mu sync.Mutex
	var rows int
	go func() {
		got, err := q.Collect()
		mu.Lock()
		rows = len(got)
		mu.Unlock()
		done <- err
	}()
	// Give the query a moment to start streaming, then cancel.
	time.Sleep(300 * time.Millisecond)
	cancelAt := time.Now()
	if err := q.Cancel(); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	select {
	case err := <-done:
		if !isCanceled(err) {
			t.Fatalf("cancelled wire query returned %v, want a canceled error", err)
		}
		if d := time.Since(cancelAt); d > time.Second {
			t.Fatalf("wire cancellation took %v, want < 1s", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("cancelled wire query never terminated")
	}
	mu.Lock()
	defer mu.Unlock()
	if rows >= eventRows {
		t.Fatalf("cancelled query delivered the whole result (%d rows)", rows)
	}
}

// TestServerRegisterUDFsOverWire announces UDF metadata on the control
// connection and then uses it in a query against a catalog that had no UDFs.
func TestServerRegisterUDFsOverWire(t *testing.T) {
	fx := newServiceFixture(t)
	defer fx.cleanup()
	events, err := fx.cat.Table("events")
	if err != nil {
		t.Fatal(err)
	}
	fx.cat = catalog.New()
	if err := fx.cat.AddTable(events); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, fx, Config{Planner: plan.Config{Link: fixedLink()}})

	req, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer req.Close()
	if err := req.RegisterUDFs([]*wire.RegisterUDF{{
		Name: "score", ArgKinds: []types.Kind{types.KindInt}, ResultKind: types.KindFloat, ResultSize: 9,
	}}); err != nil {
		t.Fatalf("register: %v", err)
	}
	q, err := req.SubmitText(scoreQuery, wire.QuerySpec{ClientAddr: fx.clientAddr})
	if err != nil {
		t.Fatalf("submit after register: %v", err)
	}
	rows, err := q.Collect()
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if len(rows) != eventRows {
		t.Fatalf("got %d rows, want %d", len(rows), eventRows)
	}
}

// TestServerRejectsUnknownTable exercises the rejection path of the ack.
func TestServerRejectsUnknownTable(t *testing.T) {
	fx := newServiceFixture(t)
	defer fx.cleanup()
	_, addr := startServer(t, fx, Config{Planner: plan.Config{Link: fixedLink()}})

	req, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer req.Close()
	if _, err := req.SubmitText("x(A) :- nosuch(A).", wire.QuerySpec{}); err == nil {
		t.Fatalf("expected a rejection for an unknown table")
	}
}

// TestQuerySpecRoundTrip pins the MsgQuery codec.
func TestQuerySpecRoundTrip(t *testing.T) {
	spec := &wire.QuerySpec{
		QueryID:       42,
		Caps:          wire.CapCancel,
		ClientAddr:    "127.0.0.1:9999",
		MemBudget:     1 << 20,
		TimeoutMillis: 2500,
		Text:          scoreQuery,
		Tenant:        "acme",
	}
	data, err := wire.EncodeQuerySpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wire.DecodeQuerySpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *spec {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, spec)
	}

	ack := &wire.QueryAck{QueryID: 42, OK: true, Caps: wire.CapCancel}
	back, err := wire.DecodeQueryAck(wire.EncodeQueryAck(ack))
	if err != nil {
		t.Fatal(err)
	}
	if back.QueryID != 42 || !back.OK || back.Caps != wire.CapCancel {
		t.Fatalf("ack round trip mismatch: %+v", back)
	}

	c, err := wire.DecodeCancel(binary.LittleEndian.AppendUint64(nil, 42))
	if err != nil {
		t.Fatal(err)
	}
	if c.QueryID != 42 {
		t.Fatalf("cancel round trip mismatch: %+v", c)
	}
}

// TestServerRejectsDuplicateQueryID crafts two MsgQuery frames sharing one
// (peer-chosen) query ID on a raw control connection; the second must be
// rejected in its ack rather than interleaving two result streams.
func TestServerRejectsDuplicateQueryID(t *testing.T) {
	fx := newServiceFixture(t)
	defer fx.cleanup()
	_, addr := startServer(t, fx, Config{Planner: plan.Config{Link: fixedLink()}})

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	conn := wire.NewConn(nc)
	send := func() {
		t.Helper()
		spec := &wire.QuerySpec{QueryID: 7, Text: slowQuery, ClientAddr: fx.clientAddr}
		payload, err := wire.EncodeQuerySpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(wire.MsgQuery, payload); err != nil {
			t.Fatal(err)
		}
	}
	readAck := func() *wire.QueryAck {
		t.Helper()
		for {
			msg, err := conn.Receive()
			if err != nil {
				t.Fatal(err)
			}
			if msg.Type != wire.MsgQueryAck {
				continue // result batches of the first query may interleave
			}
			ack, err := wire.DecodeQueryAck(msg.Payload)
			if err != nil {
				t.Fatal(err)
			}
			return ack
		}
	}
	send()
	if ack := readAck(); !ack.OK {
		t.Fatalf("first query rejected: %s", ack.Error)
	}
	send()
	if ack := readAck(); ack.OK {
		t.Fatalf("duplicate in-flight query ID was accepted")
	}
}

// TestServerRejectsBadSpecs covers the malformed-spec rejection paths.
func TestServerRejectsBadSpecs(t *testing.T) {
	fx := newServiceFixture(t)
	defer fx.cleanup()
	_, addr := startServer(t, fx, Config{Planner: plan.Config{Link: fixedLink()}})
	req, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer req.Close()
	// Unregistered UDF.
	if _, err := req.SubmitText("s(S) :- events(_, K, _, _), udf nope(K) as S.", wire.QuerySpec{}); err == nil {
		t.Fatalf("unregistered UDF accepted")
	}
	// A filter that does not parse.
	if _, err := req.SubmitText("s(K) :- events(_, K, _, _), K <.", wire.QuerySpec{}); err == nil {
		t.Fatalf("garbage filter accepted")
	}
	// Budget and timeout plumbing (accept path with overrides).
	q, err := req.SubmitText(dimsQuery, wire.QuerySpec{MemBudget: 1 << 20, TimeoutMillis: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Collect(); err != nil {
		t.Fatal(err)
	}
}

// TestRequesterSurfacesConnectionDeath kills the control connection while a
// query is streaming; the collector must terminate with the read error
// instead of hanging on a full, never-closed channel.
func TestRequesterSurfacesConnectionDeath(t *testing.T) {
	fx := newServiceFixture(t)
	defer fx.cleanup()
	srv, addr := startServer(t, fx, Config{Planner: plan.Config{Link: fixedLink()}})

	req, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	q, err := req.SubmitText(slowQuery, wire.QuerySpec{ClientAddr: fx.clientAddr})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := q.Collect()
		done <- err
	}()
	time.Sleep(200 * time.Millisecond)
	srv.Close() // server side dies mid-stream
	select {
	case err := <-done:
		if err == nil {
			t.Fatalf("collector returned success after the connection died")
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("collector hung after connection death")
	}
	_ = req.Close()
	// Submitting on a dead requester fails fast.
	if _, err := req.SubmitText(dimsQuery, wire.QuerySpec{}); err == nil {
		t.Fatalf("submit on a dead connection succeeded")
	}
}
