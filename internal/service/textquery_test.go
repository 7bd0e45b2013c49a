package service

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"net"
	"strings"
	"testing"
	"time"

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
// connection that asks only for CapCancel, never for CapTextQuery: its text
// query must keep working, and the ack must echo only the requested
// capabilities.
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

	payload, err := wire.EncodeQuerySpec(&wire.QuerySpec{QueryID: 3, Caps: wire.CapCancel, Text: labelsQuery})
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

// TestQuerySpecTextRoundTrip pins the text field: a spec round-trips through
// the codec, and a spec without text is refused by the encoder and the
// decoder alike.
func TestQuerySpecTextRoundTrip(t *testing.T) {
	withText := &wire.QuerySpec{
		QueryID: 9,
		Caps:    wire.CapCancel | wire.CapTextQuery,
		Text:    labelsQuery,
	}
	data, err := wire.EncodeQuerySpec(withText)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wire.DecodeQuerySpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *withText {
		t.Fatalf("text round trip mismatch: %+v", got)
	}
	if _, err := wire.EncodeQuerySpec(&wire.QuerySpec{QueryID: 1}); err == nil {
		t.Fatalf("encoded a spec with no text")
	}
	textless := bytes.Clone(data)
	textless = append(textless[:len(textless)-len(labelsQuery)-1], 0)
	if _, err := wire.DecodeQuerySpec(textless); err == nil {
		t.Fatalf("decoded a spec with no text")
	}
}

// Structured query specs as requesters before the query language sent them,
// each with query ID 7: the whole of dims, and a projection of dims whose
// ordinal count (65 536) the structured decoder refused, leaving such a
// requester waiting on an ack that never came.
const (
	structuredDimsHex    = "0700000000000000010000000464696d7300000000000000"
	structuredHostileHex = "0700000000000000010000000464696d73000000808004"
)

// TestServerRefusesStructuredSpec plays requesters from before the query
// language on raw connections: a structured query or prepare is refused in
// the ack to its own query ID, naming the retirement, and the connection
// keeps serving text.
func TestServerRefusesStructuredSpec(t *testing.T) {
	fx := newServiceFixture(t)
	defer fx.cleanup()
	_, addr := startServer(t, fx, Config{Planner: plan.Config{Link: fixedLink()}})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	conn := wire.NewConn(nc)

	for _, c := range []struct {
		msg, ack wire.MsgType
		hex      string
	}{
		{wire.MsgQuery, wire.MsgQueryAck, structuredDimsHex},
		{wire.MsgQuery, wire.MsgQueryAck, structuredHostileHex},
		{wire.MsgPrepare, wire.MsgPrepareAck, structuredDimsHex},
	} {
		payload, err := hex.DecodeString(c.hex)
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(c.msg, payload); err != nil {
			t.Fatal(err)
		}
		msg, err := conn.Receive()
		if err != nil {
			t.Fatalf("%s of %s: no answer: %v", c.msg, c.hex, err)
		}
		if msg.Type != c.ack {
			t.Fatalf("%s of %s answered with %s, want %s", c.msg, c.hex, msg.Type, c.ack)
		}
		ack, err := wire.DecodeQueryAck(msg.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if ack.QueryID != 7 || ack.OK || !strings.Contains(ack.Error, "structured query specs are retired; send query text") {
			t.Fatalf("%s of %s acked %+v, want a refusal of query 7 naming the retirement", c.msg, c.hex, ack)
		}
	}

	payload, err := wire.EncodeQuerySpec(&wire.QuerySpec{QueryID: 7, Text: labelsQuery})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(wire.MsgQuery, payload); err != nil {
		t.Fatal(err)
	}
	for {
		msg, err := conn.Receive()
		if err != nil {
			t.Fatal(err)
		}
		if msg.Type == wire.MsgEnd {
			break
		}
		if msg.Type == wire.MsgQueryAck {
			if ack, err := wire.DecodeQueryAck(msg.Payload); err != nil || !ack.OK {
				t.Fatalf("text query after the refusals acked %+v, %v", ack, err)
			}
		}
	}
}

// TestRequesterUndecodableRequestAnswered sends requests the server cannot
// decode through a live Requester: structured specs of older requesters, and
// a prepared execution cut short after its query ID. Each must end with an
// error for its own query ID within a bounded time, not leave the requester
// waiting on a frame that never comes.
func TestRequesterUndecodableRequestAnswered(t *testing.T) {
	fx := newServiceFixture(t)
	defer fx.cleanup()
	_, addr := startServer(t, fx, Config{Planner: plan.Config{Link: fixedLink()}})
	r, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// send hands payload to the requester as a msg request, its query ID
	// (at offset idAt) replaced by the one the requester assigns.
	send := func(msg wire.MsgType, payload []byte, idAt int) *resultStream {
		t.Helper()
		var id uint64
		ch, err := r.send(&id, msg, func() ([]byte, error) {
			b := bytes.Clone(payload)
			binary.LittleEndian.PutUint64(b[idAt:], id)
			return b, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return ch
	}
	for _, h := range []string{structuredDimsHex, structuredHostileHex} {
		payload, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case ack := <-send(wire.MsgQuery, payload, 0).ack:
			if ack.OK || !strings.Contains(ack.Error, "structured query specs are retired; send query text") {
				t.Fatalf("structured spec %s acked %+v, want the retirement refusal", h, ack)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("structured spec %s: no ack within 5s", h)
		}
	}

	st, err := r.PrepareText(labelsQuery, wire.QuerySpec{})
	if err != nil {
		t.Fatal(err)
	}
	frame := wire.EncodeExecPrepared(&wire.ExecPrepared{StatementID: st.id})
	ch := send(wire.MsgExecPrepared, frame[:len(frame)-1], 8)
	select {
	case <-ch.done:
		if ch.err == nil || !strings.Contains(ch.err.Error(), "bad exec prepared") {
			t.Fatalf("truncated execution ended with %v, want the decode error", ch.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("truncated execution: no answer within 5s")
	}
}
