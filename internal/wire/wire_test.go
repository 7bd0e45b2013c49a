package wire

import (
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"csq/internal/types"
)

func shippedSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Qualifier: "S", Name: "Quotes", Kind: types.KindTimeSeries},
		types.Column{Qualifier: "S", Name: "Name", Kind: types.KindString},
	)
}

func TestConnSendReceive(t *testing.T) {
	a, b := net.Pipe()
	server, client := NewConn(a), NewConn(b)
	defer server.Close()
	defer client.Close()

	go func() {
		_ = server.Send(MsgSetup, []byte("payload-1"))
		_ = server.Send(MsgEnd, nil)
	}()
	m1, err := client.Receive()
	if err != nil {
		t.Fatalf("receive 1: %v", err)
	}
	if m1.Type != MsgSetup || string(m1.Payload) != "payload-1" {
		t.Errorf("m1 = %v %q", m1.Type, m1.Payload)
	}
	m2, err := client.Receive()
	if err != nil {
		t.Fatalf("receive 2: %v", err)
	}
	if m2.Type != MsgEnd || len(m2.Payload) != 0 {
		t.Errorf("m2 = %v %q", m2.Type, m2.Payload)
	}
	if client.BytesReceived() == 0 {
		t.Error("BytesReceived should be positive")
	}
	if server.BytesSent() != client.BytesReceived() {
		t.Errorf("sent %d != received %d", server.BytesSent(), client.BytesReceived())
	}
}

func TestConnOversizeFrame(t *testing.T) {
	a, _ := net.Pipe()
	c := NewConn(a)
	defer c.Close()
	big := make([]byte, MaxFrameSize+1)
	if err := c.Send(MsgTupleBatch, big); err == nil {
		t.Error("oversize frame should be rejected")
	}
}

func TestConnReceiveAfterClose(t *testing.T) {
	a, b := net.Pipe()
	server, client := NewConn(a), NewConn(b)
	_ = server.Close()
	_ = b.Close()
	if _, err := client.Receive(); err == nil {
		t.Error("receive on closed connection should fail")
	}
}

func TestMsgTypeAndModeStrings(t *testing.T) {
	// Every code a peer may send keeps its number; the retired ones (8, 10,
	// 11 and 19) stay reserved and print as INVALID.
	codes := []MsgType{MsgInvalid, MsgSetup, MsgSetupAck, MsgTupleBatch, MsgResultBatch, MsgEnd, MsgError, MsgRegisterUDF,
		8, MsgProbe, 10, 11, MsgQuery, MsgQueryAck, MsgCancel, MsgQueryReject, MsgPrepare, MsgPrepareAck,
		MsgExecPrepared, 19, MsgResultVectors}
	for code, mt := range codes {
		if int(mt) != code {
			t.Errorf("%s is code %d, want %d", mt, mt, code)
		}
		if retired := code == 0 || code == 8 || code == 10 || code == 11 || code == 19; retired != (mt.String() == "INVALID") {
			t.Errorf("MsgType(%d) prints as %s", mt, mt)
		}
	}
	if ModeSemiJoin != 1 || ModeClientJoin != 2 || ModeSemiJoin.String() != "semijoin" || ModeClientJoin.String() != "clientjoin" {
		t.Error("Mode codes or strings wrong")
	}
	if Mode(0).String() != "unknown" || Mode(99).String() != "unknown" {
		t.Error("unknown mode string wrong")
	}
	if !strings.Contains(MsgTupleBatch.String(), "TUPLE") {
		t.Error("MsgTupleBatch string wrong")
	}
}

func TestSetupRoundTrip(t *testing.T) {
	s := &SetupRequest{
		SessionID:   7,
		Mode:        ModeClientJoin,
		InputSchema: shippedSchema(),
		UDFs: []UDFSpec{
			{Name: "ClientAnalysis", ArgOrdinals: []int{0}},
			{Name: "Volatility", ArgOrdinals: []int{0, 1}},
		},
		PushablePredicate: []byte{1, 2, 3, 4},
		ProjectOrdinals:   []int{1, 2},
		FinalDelivery:     true,
	}
	data, err := EncodeSetup(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSetup(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Errorf("setup round trip:\n got %+v\nwant %+v", got, s)
	}

	// Minimal setup (no UDFs, no predicate, no projection).
	minimal := &SetupRequest{SessionID: 1, Mode: ModeSemiJoin, InputSchema: shippedSchema()}
	data, err = EncodeSetup(minimal)
	if err != nil {
		t.Fatal(err)
	}
	got, err = DecodeSetup(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode != ModeSemiJoin || len(got.UDFs) != 0 || got.PushablePredicate != nil || got.ProjectOrdinals != nil || got.FinalDelivery {
		t.Errorf("minimal setup round trip = %+v", got)
	}

	if _, err := EncodeSetup(&SetupRequest{}); err == nil {
		t.Error("setup without schema should fail to encode")
	}
	if _, err := DecodeSetup([]byte{1, 2}); err == nil {
		t.Error("truncated setup should fail to decode")
	}
	if _, err := DecodeSetup(append(data, 0xff)); err == nil {
		t.Error("trailing bytes should fail to decode")
	}
}

func TestSetupAckRoundTrip(t *testing.T) {
	for _, a := range []*SetupAck{
		{SessionID: 3, OK: true},
		{SessionID: 9, OK: false, Error: "no such UDF"},
	} {
		got, err := DecodeSetupAck(EncodeSetupAck(a))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, got) {
			t.Errorf("ack round trip %+v != %+v", got, a)
		}
	}
	if _, err := DecodeSetupAck([]byte{1}); err == nil {
		t.Error("truncated ack should fail")
	}
}

// TestSetupAckRefusesTrailingBytes: an ack may end in the one capability byte
// older clients sent, and no more.
func TestSetupAckRefusesTrailingBytes(t *testing.T) {
	ack := EncodeSetupAck(&SetupAck{SessionID: 7, OK: true})
	if _, err := DecodeSetupAck(append(ack, 1)); err != nil {
		t.Fatalf("ack with the old capability byte: %v", err)
	}
	if a, err := DecodeSetupAck(append(ack, 1, 0)); err == nil {
		t.Fatalf("ack with two trailing bytes decoded as %+v", a)
	}
}

func TestTupleBatchRoundTrip(t *testing.T) {
	b := &TupleBatch{
		SessionID: 11,
		Seq:       4,
		Tuples: []types.Tuple{
			types.NewTuple(types.NewTimeSeries(types.TimeSeries{1, 2, 3}), types.NewString("ACME")),
			types.NewTuple(types.NewTimeSeries(types.TimeSeries{9}), types.Null(types.KindString)),
		},
	}
	data, err := AppendTupleBatch(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	var got TupleBatch
	if err := DecodeTupleBatchInto(&got, data); err != nil {
		t.Fatal(err)
	}
	if got.SessionID != 11 || got.Seq != 4 || len(got.Tuples) != 2 {
		t.Errorf("batch header round trip = %+v", got)
	}
	if got.Tuples[0].Len() != 2 || !sameTuple(got.Tuples[0][1:], types.NewTuple(types.NewString("ACME"))) {
		t.Errorf("batch tuple 0 = %v", got.Tuples[0])
	}
	if !got.Tuples[1][1].IsNull() {
		t.Errorf("batch tuple 1 = %v", got.Tuples[1])
	}
	// Empty batch is legal (a reply whose rows were all filtered out).
	empty := &TupleBatch{SessionID: 1, Seq: 0}
	data, _ = AppendTupleBatch(nil, empty)
	if err := DecodeTupleBatchInto(&got, data); err != nil || len(got.Tuples) != 0 {
		t.Errorf("empty batch round trip = %+v, %v", got, err)
	}
	if err := DecodeTupleBatchInto(&got, []byte{1, 2, 3}); err == nil {
		t.Error("truncated batch should fail")
	}
	if err := DecodeTupleBatchInto(&got, append(data, 0x01)); err == nil {
		t.Error("trailing bytes should fail")
	}
}

func TestErrorAndEndRoundTrip(t *testing.T) {
	e := &ErrorMsg{SessionID: 5, Message: "client UDF panicked"}
	got, err := DecodeError(EncodeError(e))
	if err != nil || !reflect.DeepEqual(e, got) {
		t.Errorf("error round trip = %+v, %v", got, err)
	}
	if _, err := DecodeError([]byte{0}); err == nil {
		t.Error("truncated error should fail")
	}
	end := &End{SessionID: 2, Rows: 42}
	gotEnd, err := DecodeEnd(EncodeEnd(end))
	if err != nil || !reflect.DeepEqual(end, gotEnd) {
		t.Errorf("end round trip = %+v, %v", gotEnd, err)
	}
	if _, err := DecodeEnd([]byte{0, 1}); err == nil {
		t.Error("truncated end should fail")
	}
}

func TestRegisterUDFRoundTrip(t *testing.T) {
	r := &RegisterUDF{
		Name:        "ClientAnalysis",
		ArgKinds:    []types.Kind{types.KindTimeSeries},
		ResultKind:  types.KindInt,
		ResultSize:  100,
		Selectivity: 0.4,
		PerCallCost: 2.5,
	}
	got, err := DecodeRegisterUDF(EncodeRegisterUDF(r))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Errorf("register round trip = %+v", got)
	}
	noArgs := &RegisterUDF{Name: "f", ResultKind: types.KindBool}
	got, err = DecodeRegisterUDF(EncodeRegisterUDF(noArgs))
	if err != nil || got.Name != "f" || len(got.ArgKinds) != 0 {
		t.Errorf("no-arg register round trip = %+v, %v", got, err)
	}
	for _, bad := range [][]byte{nil, {1, 'f'}, {1, 'f', 1}} {
		if _, err := DecodeRegisterUDF(bad); err == nil {
			t.Errorf("DecodeRegisterUDF(%v) should fail", bad)
		}
	}
}

// TestQuickTupleBatchRoundTrip property: arbitrary batches survive the wire
// encoding with tuple count, session and sequence numbers intact.
func TestQuickTupleBatchRoundTrip(t *testing.T) {
	f := func(seed int64, session, seq uint64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(20)
		b := &TupleBatch{SessionID: session, Seq: seq}
		for i := 0; i < n; i++ {
			b.Tuples = append(b.Tuples, types.NewTuple(
				types.NewTimeSeries(types.TimeSeries{r.Float64(), r.Float64()}),
				types.NewString(strings.Repeat("x", r.Intn(32))),
			))
		}
		data, err := AppendTupleBatch(nil, b)
		if err != nil {
			return false
		}
		var got TupleBatch
		if err := DecodeTupleBatchInto(&got, data); err != nil {
			return false
		}
		return got.SessionID == session && got.Seq == seq && len(got.Tuples) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
