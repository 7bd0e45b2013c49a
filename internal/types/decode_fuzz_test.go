package types

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// checkDecoded holds one accepted value to the decoder's contract: it encodes
// again, the encoding decodes to itself, and it is the consumed bytes unless
// those were one of the two non-canonical forms the decoder tolerates (a BOOL
// byte above 1, a length prefix padded with continuation bytes). A payload is
// never longer than the bytes it was decoded from.
func checkDecoded(t *testing.T, v Value, consumed []byte) {
	t.Helper()
	enc, err := EncodeValue(nil, v)
	if err != nil {
		t.Fatalf("decoded a value that does not encode: %v", err)
	}
	if v.payloadMemSize() > len(consumed) {
		t.Fatalf("a payload of %d bytes from %d bytes of input", v.payloadMemSize(), len(consumed))
	}
	again, n, err := DecodeValue(enc)
	if err != nil || n != len(enc) {
		t.Fatalf("re-decode of %x: consumed %d, %v", enc, n, err)
	}
	if enc2, _ := EncodeValue(nil, again); !bytes.Equal(enc2, enc) {
		t.Fatalf("encoding is not a fixed point: %x then %x", enc, enc2)
	}
	tail := v.payloadMemSize() // the payload ends both encodings
	switch {
	case bytes.Equal(enc, consumed):
	case v.Kind() == KindBool && len(consumed) == 2 && consumed[1] > 1:
	case len(enc) < len(consumed) && bytes.Equal(enc[len(enc)-tail:], consumed[len(consumed)-tail:]):
	default:
		t.Fatalf("decoded %x, re-encoded %x", consumed, enc)
	}
}

// FuzzDecodeValue feeds arbitrary bytes to DecodeValue, as a peer or a damaged
// file would. It must never panic and must consume no more than it was given.
// Seeds live in testdata/fuzz/FuzzDecodeValue.
func FuzzDecodeValue(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		v, n, err := DecodeValue(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		checkDecoded(t, v, data[:n])
	})
}

// FuzzDecodeTuple does the same for DecodeTuple. Seeds live in
// testdata/fuzz/FuzzDecodeTuple.
func FuzzDecodeTuple(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tup, n, err := DecodeTuple(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) || len(tup) >= n {
			t.Fatalf("%d columns, consumed %d of %d bytes", len(tup), n, len(data))
		}
		enc, err := EncodeTuple(nil, tup)
		if err != nil {
			t.Fatalf("decoded a tuple that does not encode: %v", err)
		}
		if len(enc) > n {
			t.Fatalf("re-encoding is %d bytes, longer than the %d consumed", len(enc), n)
		}
		again, m, err := DecodeTuple(enc)
		if err != nil || m != len(enc) || len(again) != len(tup) {
			t.Fatalf("re-decode: %d columns, consumed %d of %d, %v", len(again), m, len(enc), err)
		}
		// Walk the columns of the input to hold each to the value contract.
		_, off := binary.Uvarint(data)
		for _, v := range tup {
			_, w, _ := DecodeValue(data[off:])
			checkDecoded(t, v, data[off:off+w])
			off += w
		}
	})
}
