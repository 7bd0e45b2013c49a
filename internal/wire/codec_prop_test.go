package wire

import (
	"bytes"
	"math/rand"
	"testing"

	"csq/internal/types"
)

// randomValue draws one value of a random kind, including NULLs.
func randomValue(rng *rand.Rand) types.Value {
	switch rng.Intn(7) {
	case 0:
		return types.NewInt(rng.Int63() - rng.Int63())
	case 1:
		return types.NewFloat(rng.NormFloat64() * 1e6)
	case 2:
		return types.NewBool(rng.Intn(2) == 0)
	case 3:
		b := make([]byte, rng.Intn(24))
		rng.Read(b)
		return types.NewString(string(b))
	case 4:
		b := make([]byte, rng.Intn(24))
		rng.Read(b)
		return types.NewBytes(b)
	case 5:
		ts := make(types.TimeSeries, rng.Intn(8))
		for i := range ts {
			ts[i] = rng.Float64() * 1000
		}
		return types.NewTimeSeries(ts)
	default:
		kinds := []types.Kind{types.KindInt, types.KindFloat, types.KindBool, types.KindString, types.KindBytes, types.KindTimeSeries}
		return types.Null(kinds[rng.Intn(len(kinds))])
	}
}

func randomBatch(rng *rand.Rand) *TupleBatch {
	b := &TupleBatch{SessionID: rng.Uint64(), Seq: rng.Uint64()}
	n := rng.Intn(20)
	for i := 0; i < n; i++ {
		t := make(types.Tuple, rng.Intn(6))
		for j := range t {
			t[j] = randomValue(rng)
		}
		b.Tuples = append(b.Tuples, t)
	}
	return b
}

// sameTuple reports whether a and b encode to the same bytes, which tells
// apart NULL kinds and INT from FLOAT.
func sameTuple(a, b types.Tuple) bool {
	ea, errA := types.EncodeTuple(nil, a)
	eb, errB := types.EncodeTuple(nil, b)
	return errA == nil && errB == nil && bytes.Equal(ea, eb)
}

// TestTupleBatchRoundTripProperty encodes random batches and asserts that
// decoding into one reused batch, as the lane readers and the client do,
// reproduces them exactly.
func TestTupleBatchRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var reused TupleBatch
	var prev []types.Tuple // tuples of the previous round, re-checked below
	var prevBatch *TupleBatch
	for round := 0; round < 200; round++ {
		want := randomBatch(rng)
		payload, err := AppendTupleBatch(nil, want)
		if err != nil {
			t.Fatalf("round %d: encode: %v", round, err)
		}
		if err := DecodeTupleBatchInto(&reused, payload); err != nil {
			t.Fatalf("round %d: decode into: %v", round, err)
		}
		requireSameBatch(t, want, &reused)
		// Tuples handed out by the previous DecodeTupleBatchInto must stay
		// valid after the scratch batch is reused for this round.
		if prev != nil {
			for i := range prev {
				if !sameTuple(prev[i], prevBatch.Tuples[i]) {
					t.Fatalf("round %d: reuse clobbered tuple %d of previous frame", round, i)
				}
			}
		}
		prev = append(prev[:0], reused.Tuples...)
		prevBatch = want
	}
}

// TestTupleBatchAppendComposes asserts AppendTupleBatch really appends: a
// batch encoded after a prefix decodes identically from the offset.
func TestTupleBatchAppendComposes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	want := randomBatch(rng)
	prefix := []byte("prefix")
	payload, err := AppendTupleBatch(append([]byte(nil), prefix...), want)
	if err != nil {
		t.Fatal(err)
	}
	var got TupleBatch
	if err := DecodeTupleBatchInto(&got, payload[len(prefix):]); err != nil {
		t.Fatal(err)
	}
	requireSameBatch(t, want, &got)
}

// TestDecodeTupleBatchErrors asserts corrupt payloads are rejected, not
// silently truncated.
func TestDecodeTupleBatchErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	want := randomBatch(rng)
	payload, err := AppendTupleBatch(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	var got TupleBatch
	if err := DecodeTupleBatchInto(&got, payload[:10]); err == nil {
		t.Error("short payload should fail")
	}
	if err := DecodeTupleBatchInto(&got, append(payload, 0xaa)); err == nil {
		t.Error("trailing bytes should fail")
	}
	if len(want.Tuples) > 0 {
		if err := DecodeTupleBatchInto(&got, payload[:len(payload)-1]); err == nil {
			t.Error("truncated payload should fail")
		}
	}
}

// TestBufferPool exercises the Get/Put cycle and the oversized-buffer guard.
func TestBufferPool(t *testing.T) {
	b := GetBuffer()
	if len(*b) != 0 {
		t.Fatalf("pooled buffer should be zero length, got %d", len(*b))
	}
	*b = append(*b, 1, 2, 3)
	PutBuffer(b)
	again := GetBuffer()
	if len(*again) != 0 {
		t.Fatalf("reused buffer should be reset, got %d", len(*again))
	}
	PutBuffer(again)
	PutBuffer(nil) // must not panic
}
