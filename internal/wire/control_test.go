package wire

import (
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"csq/internal/types"
)

// controlCase is one control-message value, its encoder and decoder, and the
// hex its encoding must be.
type controlCase struct {
	name string
	val  any
	enc  func() []byte
	dec  func([]byte) (any, error)
	hex  string
}

// must unwraps an encoder that can fail on the values below it never fails on.
func must(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

// controlCases holds two values of each of the ten control messages: one
// with every optional trailer (or every field) set and one with none. The hex
// is the encoding the protocol has always had; the cost model counts these
// bytes, so none may move. The Setup and SetupAck lost what negotiated the
// retired per-frame dictionary; oldPeerHex keeps what peers sent before. A
// query spec is text only: its hex is what every release has sent for the
// same text, tenant trailer or not, with the retired structured fields
// written empty (see TestQuerySpecStructuredRetired).
func controlCases() []controlCase {
	schema := types.NewSchema(
		types.Column{Qualifier: "s", Name: "id", Kind: types.KindInt},
		types.Column{Name: "img", Kind: types.KindBytes},
	)
	setupFull := &SetupRequest{
		SessionID: 0x0102030405060708, Mode: ModeSemiJoin, InputSchema: schema,
		UDFs:              []UDFSpec{{Name: "f", ArgOrdinals: []int{1, 300}}, {Name: "g", ArgOrdinals: []int{}}},
		PushablePredicate: []byte{9, 8, 7}, ProjectOrdinals: []int{0, 2},
		FinalDelivery: true,
	}
	setupMin := &SetupRequest{SessionID: 1, InputSchema: types.NewSchema(types.Column{Name: "a", Kind: types.KindInt})}
	ackFull := &SetupAck{SessionID: 7, OK: false, Error: "no such udf"}
	ackMin := &SetupAck{SessionID: 7, OK: true}
	errFull := &ErrorMsg{SessionID: 1 << 40, Message: "boom"}
	errMin := &ErrorMsg{}
	endFull := &End{SessionID: 3, Rows: 1 << 33}
	endMin := &End{}
	regFull := &RegisterUDF{
		Name: "classify", ArgKinds: []types.Kind{types.KindBytes, types.KindInt},
		ResultKind: types.KindString, ResultSize: 200, Selectivity: 0.25, PerCallCost: 1.5, Pure: true,
	}
	regMin := &RegisterUDF{Name: "f", ResultKind: types.KindInt}
	rejFull := &QueryReject{QueryID: 11, Reason: RejectDraining, RetryAfterMillis: 1500}
	rejMin := &QueryReject{}
	specFull := &QuerySpec{
		QueryID: 42, Caps: CapCancel | CapTextQuery,
		ClientAddr: "127.0.0.1:9", MemBudget: 1 << 20, TimeoutMillis: 5000,
		Text: "q(X) :- t(X).", Tenant: "acme",
	}
	specMin := &QuerySpec{QueryID: 1, Text: "q(X) :- t(X)."}
	queryAckFull := &QueryAck{QueryID: 5, OK: true, Error: "", Caps: CapCancel | CapReject}
	queryAckMin := &QueryAck{QueryID: 5, Error: "bad"}
	execFull := &ExecPrepared{StatementID: 4, QueryID: 9, MemBudget: 4096, TimeoutMillis: 250, Tenant: "acme"}
	execMin := &ExecPrepared{}
	cancel := &Cancel{QueryID: 0xdeadbeef}
	cancelMin := &Cancel{}

	decSetup := func(b []byte) (any, error) { return DecodeSetup(b) }
	decAck := func(b []byte) (any, error) { return DecodeSetupAck(b) }
	decErr := func(b []byte) (any, error) { return DecodeError(b) }
	decEnd := func(b []byte) (any, error) { return DecodeEnd(b) }
	decReg := func(b []byte) (any, error) { return DecodeRegisterUDF(b) }
	decRej := func(b []byte) (any, error) { return DecodeQueryReject(b) }
	decSpec := func(b []byte) (any, error) { return DecodeQuerySpec(b) }
	decQAck := func(b []byte) (any, error) { return DecodeQueryAck(b) }
	decExec := func(b []byte) (any, error) { return DecodeExecPrepared(b) }
	decCancel := func(b []byte) (any, error) { return DecodeCancel(b) }

	return []controlCase{
		{"setup/full", setupFull, func() []byte { return must(EncodeSetup(setupFull)) }, decSetup, "0807060504030201010102010173026964050003696d670201660201ac0201670003090807020002"},
		{"setup/none", setupMin, func() []byte { return must(EncodeSetup(setupMin)) }, decSetup, "010000000000000000000101000161000000"},
		{"setup-ack/full", ackFull, func() []byte { return EncodeSetupAck(ackFull) }, decAck, "0700000000000000000b6e6f207375636820756466"},
		{"setup-ack/none", ackMin, func() []byte { return EncodeSetupAck(ackMin) }, decAck, "07000000000000000100"},
		{"error/full", errFull, func() []byte { return EncodeError(errFull) }, decErr, "000000000001000004626f6f6d"},
		{"error/none", errMin, func() []byte { return EncodeError(errMin) }, decErr, "000000000000000000"},
		{"end/full", endFull, func() []byte { return EncodeEnd(endFull) }, decEnd, "03000000000000000000000002000000"},
		{"end/none", endMin, func() []byte { return EncodeEnd(endMin) }, decEnd, "00000000000000000000000000000000"},
		{"register-udf/full", regFull, func() []byte { return EncodeRegisterUDF(regFull) }, decReg, "08636c61737369667902050103c801000000000000d03f000000000000f83f01"},
		{"register-udf/none", regMin, func() []byte { return EncodeRegisterUDF(regMin) }, decReg, "016600010000000000000000000000000000000000"},
		{"query-reject/full", rejFull, func() []byte { return EncodeQueryReject(rejFull) }, decRej, "0b0000000000000001dc0b"},
		{"query-reject/none", rejMin, func() []byte { return EncodeQueryReject(rejMin) }, decRej, "00000000000000000000"},
		{"query-spec/full", specFull, func() []byte { return must(EncodeQuerySpec(specFull)) }, decSpec, "2a000000000000000500000000000000000b3132372e302e302e313a3980804088270d71285829203a2d20742858292e0461636d65"},
		{"query-spec/none", specMin, func() []byte { return must(EncodeQuerySpec(specMin)) }, decSpec, "01000000000000000000000000000000000000000d71285829203a2d20742858292e"},
		{"query-ack/full", queryAckFull, func() []byte { return EncodeQueryAck(queryAckFull) }, decQAck, "0500000000000000010009000000"},
		{"query-ack/none", queryAckMin, func() []byte { return EncodeQueryAck(queryAckMin) }, decQAck, "0500000000000000000362616400000000"},
		{"exec-prepared/full", execFull, func() []byte { return EncodeExecPrepared(execFull) }, decExec, "040000000000000009000000000000008020fa010461636d65"},
		{"exec-prepared/none", execMin, func() []byte { return EncodeExecPrepared(execMin) }, decExec, "00000000000000000000000000000000000000"},
		{"cancel/full", cancel, func() []byte { return EncodeCancel(cancel) }, decCancel, "efbeadde00000000"},
		{"cancel/none", cancelMin, func() []byte { return EncodeCancel(cancelMin) }, decCancel, "0000000000000000"},
	}
}

// oldPeerHex holds, by case name, what peers that negotiated the retired
// per-frame dictionary sent for the value: a Setup with flag bit 1 set, and
// acks ending in the capability byte. Each must still decode to the value.
var oldPeerHex = map[string]string{
	"setup/full":     "0807060504030201010302010173026964050003696d670201660201ac0201670003090807020002",
	"setup-ack/full": "0700000000000000000b6e6f20737563682075646601",
	"setup-ack/none": "0700000000000000010000",
}

// TestControlEncodingsPinned holds every control message to its established
// bytes, and its decoder to reading those bytes, and what older peers sent,
// back as the value.
func TestControlEncodingsPinned(t *testing.T) {
	for _, c := range controlCases() {
		t.Run(c.name, func(t *testing.T) {
			enc := c.enc()
			if got := hex.EncodeToString(enc); got != c.hex {
				t.Fatalf("encodes as\n\t%s\nwant\n\t%s", got, c.hex)
			}
			inputs := [][]byte{enc}
			if old, ok := oldPeerHex[c.name]; ok {
				b, err := hex.DecodeString(old)
				if err != nil {
					t.Fatal(err)
				}
				inputs = append(inputs, b)
			}
			for _, in := range inputs {
				got, err := c.dec(in)
				if err != nil {
					t.Fatalf("decode %x: %v", in, err)
				}
				if !reflect.DeepEqual(got, c.val) {
					t.Fatalf("%x decoded %+v, want %+v", in, got, c.val)
				}
			}
		})
	}
}

// TestQuerySpecStructuredRetired pins the refusal of the structured query
// form (table, filter, UDF ordinals, pushable predicate, projection) that
// older requesters sent in the five positions after Caps: each spec below is
// one an older requester encoded, and each is refused naming the retirement.
// A spec with no text at all is refused too.
func TestQuerySpecStructuredRetired(t *testing.T) {
	for name, h := range map[string]string{
		"table only":            "010000000000000000000000017400000000000000",
		"table and projection":  "0700000000000000010000000464696d730000000101000000",
		"every field, and text": "2a0000000000000005000000076f626a65637473020102010166010001030201000b3132372e302e302e313a3980804088270d71285829203a2d20742858292e0461636d65",
	} {
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		if q, err := DecodeQuerySpec(b); err == nil || !strings.Contains(err.Error(), "structured query specs are retired; send query text") {
			t.Errorf("%s: decoded as (%+v, %v), want the retirement refusal", name, q, err)
		}
	}
	noText, err := hex.DecodeString("0100000000000000000000000000000000000000")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeQuerySpec(noText); err == nil {
		t.Error("decoded a spec without query text")
	}
	if _, err := EncodeQuerySpec(&QuerySpec{QueryID: 1}); err == nil {
		t.Error("encoded a spec without query text")
	}
}
