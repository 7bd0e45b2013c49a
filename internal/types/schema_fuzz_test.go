package types

import (
	"reflect"
	"runtime"
	"testing"
)

// hostileSchema is the 3-byte schema encoding whose column count (65 536)
// used to size the column slice before a single column was read.
var hostileSchema = []byte{0x80, 0x80, 0x04}

// TestDecodeSchemaHostileCount pins the bound on what a schema's column count
// can make the decoder allocate: the hostile encoding fails, and it allocates
// less than 64 KiB doing so.
func TestDecodeSchemaHostileCount(t *testing.T) {
	var before, after runtime.MemStats
	var err error
	runtime.ReadMemStats(&before)
	_, _, err = DecodeSchema(hostileSchema)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("decoded a schema of 65 536 columns from 3 bytes")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Fatalf("the hostile schema allocated %d bytes", n)
	}
}

// FuzzDecodeSchema feeds arbitrary bytes to DecodeSchema, as a peer's setup
// frame would. It must never panic or consume more than it was given, and a
// schema it accepts must encode to bytes that decode to the same schema.
// Seeds live in testdata/fuzz/FuzzDecodeSchema.
func FuzzDecodeSchema(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, n, err := DecodeSchema(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		enc := EncodeSchema(nil, s)
		again, m, err := DecodeSchema(enc)
		if err != nil || m != len(enc) {
			t.Fatalf("re-decode of %x: consumed %d, %v", enc, m, err)
		}
		if !reflect.DeepEqual(again.Columns, s.Columns) {
			t.Fatalf("schema %v re-decoded as %v", s.Columns, again.Columns)
		}
	})
}
