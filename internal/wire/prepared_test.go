package wire

import (
	"reflect"
	"testing"
)

// TestExecPreparedRoundTrip checks the prepared-execution frame survives the
// wire with every field intact, including the zero-valued "inherit the
// statement's settings" form.
func TestExecPreparedRoundTrip(t *testing.T) {
	full := &ExecPrepared{
		StatementID:   7,
		QueryID:       901,
		MemBudget:     64 << 20,
		TimeoutMillis: 2500,
		Tenant:        "acme",
	}
	got, err := DecodeExecPrepared(EncodeExecPrepared(full))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, got) {
		t.Errorf("round trip = %+v, want %+v", got, full)
	}

	inherit := &ExecPrepared{StatementID: 1, QueryID: 2}
	got, err = DecodeExecPrepared(EncodeExecPrepared(inherit))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inherit, got) {
		t.Errorf("zero-override round trip = %+v, want %+v", got, inherit)
	}
}

// TestExecPreparedDecodeRejectsMalformed: truncations and trailing garbage
// must fail loudly, never decode to a plausible frame.
func TestExecPreparedDecodeRejectsMalformed(t *testing.T) {
	valid := EncodeExecPrepared(&ExecPrepared{StatementID: 3, QueryID: 4, Tenant: "t"})
	for i := 0; i < len(valid); i++ {
		if _, err := DecodeExecPrepared(valid[:i]); err == nil {
			t.Errorf("truncation to %d bytes decoded without error", i)
		}
	}
	if _, err := DecodeExecPrepared(append(append([]byte(nil), valid...), 0xFF)); err == nil {
		t.Error("trailing byte decoded without error")
	}
}

// TestQuerySpecTenantTrailer pins the optional tenant trailer: a spec without
// a tenant ends at its text (the layout old servers parse), and a tenant is
// appended after it as a pure extension that round-trips.
func TestQuerySpecTenantTrailer(t *testing.T) {
	base := &QuerySpec{QueryID: 11, Caps: CapCancel, ClientAddr: "127.0.0.1:9", Text: "q(X) :- trades(X, _, _, _)."}

	plain := mustEncodeSpec(t, base)
	got, err := DecodeQuerySpec(plain)
	if err != nil {
		t.Fatal(err)
	}
	if got.Text != base.Text || got.Tenant != "" {
		t.Fatalf("plain spec decoded as text=%q tenant=%q", got.Text, got.Tenant)
	}

	withTenant := *base
	withTenant.Tenant = "acme"
	enc := mustEncodeSpec(t, &withTenant)
	if len(enc) <= len(plain) {
		t.Fatal("tenant trailer did not extend the encoding")
	}
	if string(enc[:len(plain)]) != string(plain) {
		t.Fatal("tenant-bearing spec is not a pure extension of the plain encoding")
	}
	got, err = DecodeQuerySpec(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tenant != "acme" || got.Text != base.Text {
		t.Fatalf("tenant round trip = text %q tenant %q", got.Text, got.Tenant)
	}
}

func mustEncodeSpec(t *testing.T, q *QuerySpec) []byte {
	t.Helper()
	enc, err := EncodeQuerySpec(q)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestRegisterUDFPurityCompat pins the optional purity byte: pure
// announcements round-trip, impure ones encode without the byte (the
// pre-purity format), and a pre-purity announcement decodes as impure.
func TestRegisterUDFPurityCompat(t *testing.T) {
	pure := &RegisterUDF{Name: "det", ResultKind: 1, Pure: true}
	enc := EncodeRegisterUDF(pure)
	got, err := DecodeRegisterUDF(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Pure {
		t.Fatal("pure flag lost in round trip")
	}

	impure := &RegisterUDF{Name: "det", ResultKind: 1}
	oldEnc := EncodeRegisterUDF(impure)
	if len(oldEnc) != len(enc)-1 {
		t.Fatalf("impure encoding is %d bytes, want the pre-purity %d (no trailing byte)",
			len(oldEnc), len(enc)-1)
	}
	// The pure encoding minus its trailer IS the old format; it must decode
	// as impure, not fail.
	got, err = DecodeRegisterUDF(enc[:len(enc)-1])
	if err != nil {
		t.Fatal(err)
	}
	if got.Pure {
		t.Fatal("pre-purity announcement decoded as pure")
	}
}

// TestPreparedMsgTypeStrings: the new frame types must render distinct,
// non-empty names in logs.
func TestPreparedMsgTypeStrings(t *testing.T) {
	seen := map[string]MsgType{}
	for _, mt := range []MsgType{MsgPrepare, MsgPrepareAck, MsgExecPrepared, MsgQueryReject} {
		s := mt.String()
		if s == "" || s == "INVALID" {
			t.Errorf("MsgType(%d) renders %q", mt, s)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("MsgType %d and %d share the name %q", prev, mt, s)
		}
		seen[s] = mt
	}
}
