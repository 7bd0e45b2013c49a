package service

import (
	"bytes"
	"net"
	"strings"
	"testing"

	"csq/internal/exec"
	"csq/internal/expr"
	"csq/internal/logical"
	"csq/internal/plan"
	"csq/internal/types"
	"csq/internal/wire"
)

// TestServerTextQueryServerSide submits a pure server-side textual query over
// the wire and compares the streamed rows byte-for-byte against the
// equivalent hand-built logical tree.
func TestServerTextQueryServerSide(t *testing.T) {
	fx := newServiceFixture(t)
	defer fx.cleanup()
	_, addr := startServer(t, fx, Config{Planner: plan.Config{Link: fixedLink()}})

	req, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer req.Close()

	q, err := req.SubmitText("labels(Label) :- dims(_, Label).", wire.QuerySpec{})
	if err != nil {
		t.Fatalf("submit text: %v", err)
	}
	if q.caps&wire.CapTextQuery == 0 {
		t.Fatalf("server did not negotiate CapTextQuery")
	}
	got, err := q.Collect()
	if err != nil {
		t.Fatalf("collect: %v", err)
	}

	scan, err := scanByName(fx.cat, "dims", "")
	if err != nil {
		t.Fatal(err)
	}
	proj, err := logical.NewProject(scan, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	want := referenceRun(t, fx, proj)
	if !bytes.Equal(encodeRows(t, got), encodeRows(t, want)) {
		t.Fatalf("text query result differs from the hand-built tree: %d rows vs %d", len(got), len(want))
	}
}

// TestServerTextQueryWithUDF submits a textual query whose udf clause makes
// the server dial the fixture's client runtime, and compares the rows
// byte-for-byte against the equivalent hand-built tree.
func TestServerTextQueryWithUDF(t *testing.T) {
	fx := newServiceFixture(t)
	defer fx.cleanup()
	_, addr := startServer(t, fx, Config{Planner: plan.Config{Link: fixedLink()}})

	req, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer req.Close()

	q, err := req.SubmitText(
		"scored(GroupID, S) :- events(GroupID, Key, _, _), udf score(Key) as S, GroupID < 5.",
		wire.QuerySpec{ClientAddr: fx.clientAddr})
	if err != nil {
		t.Fatalf("submit text: %v", err)
	}
	got, err := q.Collect()
	if err != nil {
		t.Fatalf("collect: %v", err)
	}

	// The equivalent tree, hand-built exactly as the compiler lowers the rule:
	// scan → udf-apply → filter → project.
	scan, err := scanByName(fx.cat, "events", "")
	if err != nil {
		t.Fatal(err)
	}
	apply, err := logical.NewUDFApply(scan, []exec.UDFBinding{{
		Name: "score", ArgOrdinals: []int{1}, ResultKind: types.KindFloat, ResultName: "S",
	}})
	if err != nil {
		t.Fatal(err)
	}
	filter, err := logical.NewFilter(apply, expr.NewBinary(expr.OpLt,
		expr.NewBoundColumnRef(0, types.KindInt), expr.NewConst(types.NewInt(5))))
	if err != nil {
		t.Fatal(err)
	}
	proj, err := logical.NewProject(filter, []int{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	want := referenceRun(t, fx, proj)
	if len(want) == 0 {
		t.Fatalf("reference run returned no rows")
	}
	if !bytes.Equal(encodeRows(t, got), encodeRows(t, want)) {
		t.Fatalf("text UDF query differs from the hand-built tree: %d rows vs %d", len(got), len(want))
	}
}

// TestServerTextQueryError checks that a parse/resolve failure travels back
// in the admission ack with its line:column position and caret snippet.
func TestServerTextQueryError(t *testing.T) {
	fx := newServiceFixture(t)
	defer fx.cleanup()
	_, addr := startServer(t, fx, Config{Planner: plan.Config{Link: fixedLink()}})

	req, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer req.Close()

	_, serr := req.SubmitText("ans(X) :- nosuch(X).", wire.QuerySpec{})
	if serr == nil {
		t.Fatalf("expected a rejection for an unknown table")
	}
	for _, want := range []string{"1:11:", `unknown table "nosuch"`, "^"} {
		if !strings.Contains(serr.Error(), want) {
			t.Errorf("rejection %q does not contain %q", serr, want)
		}
	}
}

// TestServerOldClientWithoutTextCap plays an old requester on a raw
// connection: a pre-text QuerySpec encoding (no trailing Text field, only
// CapCancel requested) must keep working, and the ack must echo only the
// requested capabilities.
func TestServerOldClientWithoutTextCap(t *testing.T) {
	fx := newServiceFixture(t)
	defer fx.cleanup()
	_, addr := startServer(t, fx, Config{Planner: plan.Config{Link: fixedLink()}})

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	conn := wire.NewConn(nc)

	payload, err := wire.EncodeQuerySpec(&wire.QuerySpec{
		QueryID: 3,
		Caps:    wire.CapCancel,
		Table:   "dims",
		Project: []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(wire.MsgQuery, payload); err != nil {
		t.Fatal(err)
	}

	var rows int
	for {
		msg, err := conn.Receive()
		if err != nil {
			t.Fatal(err)
		}
		switch msg.Type {
		case wire.MsgQueryAck:
			ack, err := wire.DecodeQueryAck(msg.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if !ack.OK {
				t.Fatalf("old-client query rejected: %s", ack.Error)
			}
			if ack.Caps != wire.CapCancel {
				t.Fatalf("ack caps = %#x, want only CapCancel: the server must not grant unrequested capabilities", ack.Caps)
			}
		case wire.MsgResultBatch:
			var batch wire.TupleBatch
			if err := wire.DecodeTupleBatchInto(&batch, msg.Payload); err != nil {
				t.Fatal(err)
			}
			rows += len(batch.Tuples)
		case wire.MsgEnd:
			if rows != dimRows {
				t.Fatalf("old-client query returned %d rows, want %d", rows, dimRows)
			}
			return
		case wire.MsgError:
			e, _ := wire.DecodeError(msg.Payload)
			t.Fatalf("old-client query failed: %s", e.Message)
		}
	}
}

// TestQuerySpecTextRoundTrip pins the optional trailing Text field: specs
// without it must encode byte-identically to the pre-text layout, and specs
// with it must round-trip.
func TestQuerySpecTextRoundTrip(t *testing.T) {
	withText := &wire.QuerySpec{
		QueryID: 9,
		Caps:    wire.CapCancel | wire.CapTextQuery,
		Text:    "labels(Label) :- dims(_, Label).",
	}
	data, err := wire.EncodeQuerySpec(withText)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wire.DecodeQuerySpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Text != withText.Text || got.Table != "" {
		t.Fatalf("text round trip mismatch: %+v", got)
	}

	// Without text, the trailing field is absent entirely.
	plain := &wire.QuerySpec{QueryID: 9, Caps: wire.CapCancel, Table: "dims"}
	plainData, err := wire.EncodeQuerySpec(plain)
	if err != nil {
		t.Fatal(err)
	}
	textless := *withText
	textless.Text = ""
	textless.Table = "dims"
	textlessData, err := wire.EncodeQuerySpec(&textless)
	if err != nil {
		t.Fatal(err)
	}
	if len(textlessData) >= len(data) {
		t.Fatalf("empty Text must not be encoded: %d bytes vs %d with text", len(textlessData), len(data))
	}
	back, err := wire.DecodeQuerySpec(plainData)
	if err != nil {
		t.Fatalf("pre-text layout must keep decoding: %v", err)
	}
	if back.Text != "" || back.Table != "dims" {
		t.Fatalf("pre-text decode mismatch: %+v", back)
	}

	// A spec with neither a table nor text is unsendable.
	if _, err := wire.EncodeQuerySpec(&wire.QuerySpec{QueryID: 1}); err == nil {
		t.Fatalf("expected an error for a spec with no table and no text")
	}
}
