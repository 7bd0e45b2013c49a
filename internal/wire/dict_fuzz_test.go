package wire

import (
	"encoding/binary"
	"runtime"
	"testing"

	"csq/internal/types"
)

// bytesAllocated returns how many heap bytes f allocates.
func bytesAllocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// hostileFrames are the two smallest frames whose counts used to size the
// decoders' buffers: a 16-byte header, an empty dictionary and a claim of
// 1<<24 rows (21 bytes), and a header with a claim of 1<<24 dictionary entries
// (or rows, to the plain decoder) and nothing after it (20 bytes).
func hostileFrames() map[string][]byte {
	header := make([]byte, 16)
	return map[string][]byte{
		"rows":    binary.AppendUvarint(append(header[:16:16], 0), 1<<24),
		"entries": binary.AppendUvarint(header[:16:16], 1<<24),
	}
}

// TestDecodeHostileCounts pins the bound on what a frame's counts can make a
// decoder allocate: each hostile frame fails in every decoder that reads it,
// and no call allocates as much as 1 MB.
func TestDecodeHostileCounts(t *testing.T) {
	frames := hostileFrames()
	if len(frames["rows"]) != 21 || len(frames["entries"]) != 20 {
		t.Fatalf("frames of %d and %d bytes, want 21 and 20", len(frames["rows"]), len(frames["entries"]))
	}
	decoders := map[string]func([]byte) error{
		"plain batch": func(f []byte) error { var b TupleBatch; return DecodeTupleBatchInto(&b, f) },
		"dict column": func(f []byte) error { return DecodeColumnInto(make([]types.Value, 1), 1, 1, f, true) },
	}
	for fname, frame := range frames {
		for dname, decode := range decoders {
			var err error
			n := bytesAllocated(func() { err = decode(frame) })
			if err == nil {
				t.Errorf("%s frame: %s decoder accepted it", fname, dname)
			}
			if n >= 1<<20 {
				t.Errorf("%s frame: %s decoder allocated %d bytes", fname, dname, n)
			}
		}
	}
}

// FuzzDecodeDictBatch feeds arbitrary bytes to the decoders of the batch
// encodings that remain: the plain tuple-batch decoder a peer's frame meets,
// and the plain and dictionary column decoders a colstore chunk meets, each
// asked for the row count the bytes claim. None may panic or allocate more
// than a fixed multiple of the input, and what one accepts must encode again
// and decode to the same values. Batch decodes go into one reused batch, as
// the lane readers and the client decode frames. Seeds live in
// testdata/fuzz/FuzzDecodeDictBatch.
func FuzzDecodeDictBatch(f *testing.F) {
	// A row, an entry and a cell each take at least one input byte and at
	// most a tuple header or a Value, plus payload copies and arena regrowth
	// on ragged rows.
	bound := func(t *testing.T, data []byte, decode func()) {
		if n := bytesAllocated(decode); n > uint64(128*len(data)+64<<10) {
			t.Fatalf("%d input bytes made the decoder allocate %d", len(data), n)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var b, again TupleBatch
		var err error
		if bound(t, data, func() { err = DecodeTupleBatchInto(&b, data) }); err == nil {
			enc, err := AppendTupleBatch(nil, &b)
			if err != nil {
				t.Fatalf("decoded a batch that does not encode: %v", err)
			}
			if err := DecodeTupleBatchInto(&again, enc); err != nil {
				t.Fatalf("re-decode: %v", err)
			}
			requireSameBatch(t, &b, &again)
		}
		for _, dict := range []bool{false, true} {
			rows := claimedRows(data, dict)
			col := make([]types.Value, rows)
			if bound(t, data, func() { err = DecodeColumnInto(col, 1, rows, data, dict) }); err != nil {
				continue
			}
			rowsOf := &TupleBatch{SessionID: binary.LittleEndian.Uint64(data), Seq: binary.LittleEndian.Uint64(data[8:])}
			for _, v := range col {
				rowsOf.Tuples = append(rowsOf.Tuples, types.Tuple{v})
			}
			enc, err := AppendTupleBatch(nil, rowsOf)
			if dict {
				enc, _, err = appendTupleBatchChoosing(nil, rowsOf, false)
			}
			if err != nil {
				t.Fatalf("decoded a column that does not encode: %v", err)
			}
			back := make([]types.Value, rows)
			if err := DecodeColumnInto(back, 1, rows, enc, dict); err != nil {
				t.Fatalf("re-decode (dict=%v): %v", dict, err)
			}
			for r := range col {
				if !sameTuple(types.Tuple{col[r]}, types.Tuple{back[r]}) {
					t.Fatalf("row %d = %v, re-decoded as %v", r, col[r], back[r])
				}
			}
		}
	})
}

// claimedRows returns the row count a column batch's bytes claim, past its
// header and, with dict, its dictionary; 0 when they claim none.
func claimedRows(data []byte, dict bool) int {
	if len(data) < 16 {
		return 0
	}
	off := 16
	if dict {
		_, used, err := readDict(data[off:])
		if err != nil {
			return 0
		}
		off += used
	}
	n, _, err := readRowCount(data[off:])
	if err != nil {
		return 0
	}
	return n
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
