package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeSetup feeds arbitrary bytes to both halves of the session
// handshake: DecodeSetup, which a client runtime runs on the server's
// MsgSetup, and DecodeSetupAck, which the server runs on the client's reply,
// with or without the trailing capability byte older clients sent. Neither may panic, and a value
// either accepts must encode to bytes that decode to the same value. Seeds live
// in testdata/fuzz/FuzzDecodeSetup.
func FuzzDecodeSetup(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := DecodeSetup(data); err == nil {
			enc, err := EncodeSetup(s)
			if err != nil {
				t.Fatalf("decoded a setup that does not encode: %v", err)
			}
			again, err := DecodeSetup(enc)
			if err != nil {
				t.Fatalf("re-decode of %x: %v", enc, err)
			}
			if !reflect.DeepEqual(again, s) {
				t.Fatalf("setup %+v re-decoded as %+v", s, again)
			}
		}
		if a, err := DecodeSetupAck(data); err == nil {
			again, err := DecodeSetupAck(EncodeSetupAck(a))
			if err != nil {
				t.Fatalf("re-decode of ack %+v: %v", a, err)
			}
			if !reflect.DeepEqual(again, a) {
				t.Fatalf("ack %+v re-decoded as %+v", a, again)
			}
		}
	})
}

// FuzzDecodeRegisterUDF does the same for DecodeRegisterUDF, which udfserverd
// runs on any requester's announcement, with or without the trailing purity
// byte. The encoding writes every field, the floats by their bits, so equal
// re-encodings are equal values, NaNs included (which DeepEqual would call
// unequal). Seeds live in testdata/fuzz/FuzzDecodeRegisterUDF.
func FuzzDecodeRegisterUDF(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRegisterUDF(data)
		if err != nil {
			return
		}
		enc := EncodeRegisterUDF(r)
		again, err := DecodeRegisterUDF(enc)
		if err != nil {
			t.Fatalf("re-decode of %x: %v", enc, err)
		}
		if !bytes.Equal(EncodeRegisterUDF(again), enc) {
			t.Fatalf("announcement %+v re-decoded as %+v", r, again)
		}
	})
}
