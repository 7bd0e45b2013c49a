package wire

import (
	"encoding/binary"
	"reflect"
	"testing"
)

// hostileQuerySpec is a 20-byte structured query spec (ID, caps, a one-letter
// table, no filter, one UDF with an empty name) whose UDF claims 65 536
// argument ordinals, which once sized the ordinal list before one was read.
// The structured form is retired, so the decoder now refuses it at the first
// retired position, the table name.
func hostileQuerySpec() []byte {
	spec := make([]byte, 12)
	spec = append(spec, 1, 't', 0, 1, 0)
	return binary.AppendUvarint(spec, 1<<16)
}

// TestDecodeQuerySpecHostileCount pins the bound on what the hostile spec can
// make the decoder allocate: it fails, and it allocates less than 64 KiB
// doing so.
func TestDecodeQuerySpecHostileCount(t *testing.T) {
	spec := hostileQuerySpec()
	if len(spec) != 20 {
		t.Fatalf("hostile spec of %d bytes, want 20", len(spec))
	}
	var err error
	if n := bytesAllocated(func() { _, err = DecodeQuerySpec(spec) }); n >= 64<<10 {
		t.Fatalf("the hostile spec allocated %d bytes", n)
	}
	if err == nil {
		t.Fatal("decoded a UDF of 65 536 ordinals from 20 bytes")
	}
}

// FuzzDecodeQuerySpec feeds arbitrary bytes to DecodeQuerySpec, as a
// requester's MsgQuery or MsgPrepare frame. It must never panic, and a spec
// it accepts (one with query text) must encode to bytes that decode to the
// same spec. Seeds live in testdata/fuzz/FuzzDecodeQuerySpec.
func FuzzDecodeQuerySpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := DecodeQuerySpec(data)
		if err != nil {
			return
		}
		enc, err := EncodeQuerySpec(q)
		if err != nil {
			t.Fatalf("decoded a spec that does not encode: %v", err)
		}
		again, err := DecodeQuerySpec(enc)
		if err != nil {
			t.Fatalf("re-decode of %x: %v", enc, err)
		}
		if !reflect.DeepEqual(again, q) {
			t.Fatalf("spec %+v re-decoded as %+v", q, again)
		}
	})
}

// FuzzDecodeExecPrepared does the same for DecodeExecPrepared, the body of a
// MsgExecPrepared frame. Seeds live in testdata/fuzz/FuzzDecodeExecPrepared.
func FuzzDecodeExecPrepared(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeExecPrepared(data)
		if err != nil {
			return
		}
		again, err := DecodeExecPrepared(EncodeExecPrepared(e))
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reflect.DeepEqual(again, e) {
			t.Fatalf("exec %+v re-decoded as %+v", e, again)
		}
	})
}
