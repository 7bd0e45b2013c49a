package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"csq/internal/types"
)

// dupBatch builds a batch of n rows whose column values cycle through a small
// pool, giving heavy per-batch value duplication.
func dupBatch(n, distinct int) *TupleBatch {
	b := &TupleBatch{SessionID: 5, Seq: 9}
	for i := 0; i < n; i++ {
		b.Tuples = append(b.Tuples, types.NewTuple(
			types.NewString(fmt.Sprintf("blob-%04d-%s", i%distinct, "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")),
			types.NewInt(int64(i%distinct)),
			types.NewFloat(float64(i%distinct)),
		))
	}
	return b
}

// dupColumn is the first column of dupBatch as one-value rows, the shape
// colstore encodes a column chunk in.
func dupColumn(n, distinct int) *TupleBatch {
	b := dupBatch(n, distinct)
	for i, t := range b.Tuples {
		b.Tuples[i] = t[:1]
	}
	return b
}

// decodeColumn decodes a column batch of b's length and checks it holds b's
// values.
func decodeColumn(t *testing.T, b *TupleBatch, payload []byte, dict bool) {
	t.Helper()
	got := make([]types.Value, len(b.Tuples))
	if err := DecodeColumnInto(got, 1, len(got), payload, dict); err != nil {
		t.Fatalf("decode (dict=%v): %v", dict, err)
	}
	for i, v := range got {
		if !sameTuple(b.Tuples[i], types.Tuple{v}) {
			t.Fatalf("row %d = %v, want %v", i, v, b.Tuples[i])
		}
	}
}

// TestDictBatchRoundTripProperty checks the auto encoder's choice on random
// batches of any width: it emits the forced dictionary encoding only when
// that is smaller than the plain one, and the exact plain encoding otherwise.
// Random one-value columns survive the forced dictionary encoding through
// DecodeColumnInto.
func TestDictBatchRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for round := 0; round < 200; round++ {
		want := randomBatch(rng)
		forced, _, err := appendTupleBatchChoosing(nil, want, false)
		if err != nil {
			t.Fatalf("round %d: encode: %v", round, err)
		}
		plain, err := AppendTupleBatch(nil, want)
		if err != nil {
			t.Fatal(err)
		}
		auto, usedDict, err := AppendTupleBatchAuto(nil, want)
		if err != nil {
			t.Fatalf("round %d: auto encode: %v", round, err)
		}
		if usedDict && (!bytes.Equal(auto, forced) || len(auto) >= len(plain)) {
			t.Fatalf("round %d: auto picked a dictionary frame of %d B over a plain one of %d B", round, len(auto), len(plain))
		}
		if !usedDict && (!bytes.Equal(auto, plain) || len(forced) < len(plain)) {
			t.Fatalf("round %d: auto fallback is not the smaller plain encoding", round)
		}

		next := randomColumn(rng)
		col := &TupleBatch{SessionID: rng.Uint64(), Seq: rng.Uint64()}
		for n := rng.Intn(40); len(col.Tuples) < n; {
			col.Tuples = append(col.Tuples, types.Tuple{next()})
		}
		payload, _, err := appendTupleBatchChoosing(nil, col, false)
		if err != nil {
			t.Fatalf("round %d: column encode: %v", round, err)
		}
		decodeColumn(t, col, payload, true)
	}
}

// TestDictBatchShrinksDuplicates pins the point of the encoding: a
// duplicate-heavy column must get substantially smaller, and the auto
// encoder must pick the dictionary form for it.
func TestDictBatchShrinksDuplicates(t *testing.T) {
	b := dupColumn(64, 4)
	plain, err := AppendTupleBatch(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	payload, usedDict, err := AppendTupleBatchAuto(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	if !usedDict {
		t.Fatal("auto encoder should pick the dictionary for a duplicate-heavy batch")
	}
	if len(payload)*2 > len(plain) {
		t.Errorf("dict batch = %d bytes, plain = %d; want at least 2x smaller", len(payload), len(plain))
	}
	decodeColumn(t, b, payload, true)
}

// TestDictBatchAutoFallsBack asserts the auto encoder never loses bytes: on
// an all-distinct batch it emits the plain encoding.
func TestDictBatchAutoFallsBack(t *testing.T) {
	b := dupBatch(32, 32)
	plain, err := AppendTupleBatch(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	payload, usedDict, err := AppendTupleBatchAuto(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	if usedDict {
		t.Fatal("auto encoder used the dictionary on an all-distinct batch")
	}
	// The fallback is assembled from the dictionary pass's encoded bytes; it
	// must be byte-identical to the direct plain encoding.
	if !bytes.Equal(payload, plain) {
		t.Errorf("fallback payload (%d bytes) differs from AppendTupleBatch output (%d bytes)", len(payload), len(plain))
	}
	var got TupleBatch
	if err := DecodeTupleBatchInto(&got, payload); err != nil {
		t.Errorf("fallback payload must be a valid plain batch: %v", err)
	}

	// Empty batches (a chunk of no rows) must work in both encodings.
	empty := &TupleBatch{SessionID: 1, Seq: 2}
	payload, _, err = AppendTupleBatchAuto(nil, empty)
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodeTupleBatchInto(&got, payload); err != nil {
		t.Fatal(err)
	}
	requireSameBatch(t, empty, &got)
	payload, _, err = appendTupleBatchChoosing(nil, empty, false)
	if err != nil {
		t.Fatal(err)
	}
	decodeColumn(t, empty, payload, true)
}

// TestDecodeDictBatchErrors asserts corrupt dictionary payloads are rejected
// by the dictionary column decoder.
func TestDecodeDictBatchErrors(t *testing.T) {
	b := dupColumn(8, 2)
	payload, _, err := appendTupleBatchChoosing(nil, b, false)
	if err != nil {
		t.Fatal(err)
	}
	decode := func(p []byte) error { return DecodeColumnInto(make([]types.Value, 8), 1, 8, p, true) }
	if err := decode(payload[:10]); err == nil {
		t.Error("short payload should fail")
	}
	if err := decode(append(append([]byte(nil), payload...), 0xaa)); err == nil {
		t.Error("trailing bytes should fail")
	}
	if err := decode(payload[:len(payload)-1]); err == nil {
		t.Error("truncated payload should fail")
	}
	// An out-of-range dictionary index must be caught, not read past the
	// dictionary: flip the last row's index to a large varint.
	bad := append([]byte(nil), payload...)
	bad[len(bad)-1] = 0x7f
	if err := decode(bad); err == nil {
		t.Error("out-of-range dictionary index should fail")
	}
}
