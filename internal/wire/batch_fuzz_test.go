package wire

import (
	"encoding/binary"
	"runtime"
	"testing"
)

// bytesAllocated returns how many heap bytes f allocates.
func bytesAllocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// hostileBatch is the smallest batch whose row count used to size the
// decoder's buffers: a 16-byte header and a claim of 1<<24 rows with nothing
// after it (20 bytes).
func hostileBatch() []byte {
	return binary.AppendUvarint(make([]byte, 16), 1<<24)
}

// TestDecodeHostileCounts pins the bound on what a batch's row count can
// make the decoder allocate: the hostile batch fails, and the call
// allocates less than 1 MB.
func TestDecodeHostileCounts(t *testing.T) {
	frame := hostileBatch()
	if len(frame) != 20 {
		t.Fatalf("a %d-byte frame, want 20", len(frame))
	}
	var err error
	n := bytesAllocated(func() { var b TupleBatch; err = DecodeTupleBatchInto(&b, frame) })
	if err == nil {
		t.Error("the decoder accepted the hostile batch")
	}
	if n >= 1<<20 {
		t.Errorf("the decoder allocated %d bytes", n)
	}
}

// FuzzDecodeTupleBatch feeds arbitrary bytes to the plain tuple-batch
// decoder, which a peer's UDF session frame meets. It may not panic or
// allocate more than a fixed multiple of the input, and what it accepts must
// encode again and decode to the same values. Batches decode into one reused
// batch, as the lane readers and the client decode frames. Seeds live in
// testdata/fuzz/FuzzDecodeTupleBatch.
func FuzzDecodeTupleBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var b, again TupleBatch
		var err error
		// A row and a cell each take at least one input byte and at most a
		// tuple header or a Value, plus payload copies and arena regrowth
		// on ragged rows.
		if n := bytesAllocated(func() { err = DecodeTupleBatchInto(&b, data) }); n > uint64(128*len(data)+64<<10) {
			t.Fatalf("%d input bytes made the decoder allocate %d", len(data), n)
		}
		if err != nil {
			return
		}
		enc, err := AppendTupleBatch(nil, &b)
		if err != nil {
			t.Fatalf("decoded a batch that does not encode: %v", err)
		}
		if err := DecodeTupleBatchInto(&again, enc); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		requireSameBatch(t, &b, &again)
	})
}

// requireSameBatch compares two batches value by value through their
// encodings.
func requireSameBatch(t *testing.T, want, got *TupleBatch) {
	t.Helper()
	if got.SessionID != want.SessionID || got.Seq != want.Seq || len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("batch (%d,%d) of %d rows, want (%d,%d) of %d", got.SessionID, got.Seq, len(got.Tuples),
			want.SessionID, want.Seq, len(want.Tuples))
	}
	for i := range want.Tuples {
		if !sameTuple(want.Tuples[i], got.Tuples[i]) {
			t.Fatalf("row %d = %v, want %v", i, got.Tuples[i], want.Tuples[i])
		}
	}
}
