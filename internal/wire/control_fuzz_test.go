package wire

import (
	"reflect"
	"testing"
)

// roundTrip decodes data and, when dec accepts it, checks that the value
// encodes to bytes that decode to the same value.
func roundTrip[T any](t *testing.T, data []byte, dec func([]byte) (*T, error), enc func(*T) []byte) {
	v, err := dec(data)
	if err != nil {
		return
	}
	again, err := dec(enc(v))
	if err != nil {
		t.Fatalf("re-decode of %+v: %v", v, err)
	}
	if !reflect.DeepEqual(again, v) {
		t.Fatalf("%+v re-decoded as %+v", v, again)
	}
}

// FuzzDecodeControl feeds arbitrary bytes to the decoders of the control
// messages a peer sends outside a session's setup: a requester reads
// QueryAck, QueryReject, End and Error from the server, the server reads
// Cancel from a requester, and either end of a link reads Probe. None may
// panic, and a value one accepts must encode to bytes that decode to the same
// value. Seeds live in testdata/fuzz/FuzzDecodeControl.
func FuzzDecodeControl(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip(t, data, DecodeQueryAck, EncodeQueryAck)
		roundTrip(t, data, DecodeQueryReject, EncodeQueryReject)
		roundTrip(t, data, DecodeEnd, EncodeEnd)
		roundTrip(t, data, DecodeError, EncodeError)
		roundTrip(t, data, DecodeCancel, EncodeCancel)
		roundTrip(t, data, DecodeProbe, func(p *Probe) []byte { return AppendProbe(nil, p) })
	})
}
