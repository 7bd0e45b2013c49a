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

// TestDictBatchRoundTripProperty mirrors the plain-batch property test for
// the dictionary encoding: random batches survive decoding into one reused
// batch, and tuples from a previous frame stay valid after it is reused.
func TestDictBatchRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var reused TupleBatch
	var prev []types.Tuple
	var prevBatch *TupleBatch
	for round := 0; round < 200; round++ {
		want := randomBatch(rng)
		payload, _, err := appendTupleBatchChoosing(nil, want, false)
		if err != nil {
			t.Fatalf("round %d: encode: %v", round, err)
		}
		if err := DecodeDictBatchInto(&reused, payload); err != nil {
			t.Fatalf("round %d: decode into: %v", round, err)
		}
		requireSameBatch(t, want, &reused)
		// The auto encoder must emit either a valid dictionary frame or the
		// exact plain encoding, whichever is smaller.
		auto, usedDict, err := AppendTupleBatchAuto(nil, want)
		if err != nil {
			t.Fatalf("round %d: auto encode: %v", round, err)
		}
		if usedDict {
			if err := DecodeDictBatchInto(&reused, auto); err != nil {
				t.Fatalf("round %d: decode auto dict: %v", round, err)
			}
			requireSameBatch(t, want, &reused)
			if len(auto) > len(payload) {
				t.Fatalf("round %d: auto dict frame larger than direct dict encoding", round)
			}
		} else {
			plain, err := AppendTupleBatch(nil, want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(auto, plain) {
				t.Fatalf("round %d: auto fallback differs from plain encoding", round)
			}
		}
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

// TestDictBatchShrinksDuplicates pins the point of the encoding: a
// duplicate-heavy batch must get substantially smaller, and the auto encoder
// must pick the dictionary form for it.
func TestDictBatchShrinksDuplicates(t *testing.T) {
	b := dupBatch(64, 4)
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
	var got TupleBatch
	if err := DecodeDictBatchInto(&got, payload); err != nil {
		t.Fatal(err)
	}
	requireSameBatch(t, b, &got)
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

	// Empty batches (a reply whose rows the pushable predicate all dropped)
	// must work in both encodings.
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
	if err := DecodeDictBatchInto(&got, payload); err != nil {
		t.Fatal(err)
	}
	requireSameBatch(t, empty, &got)
}

// TestDecodeDictBatchErrors asserts corrupt dictionary payloads are rejected.
func TestDecodeDictBatchErrors(t *testing.T) {
	payload, _, err := appendTupleBatchChoosing(nil, dupBatch(8, 2), false)
	if err != nil {
		t.Fatal(err)
	}
	var got TupleBatch
	if err := DecodeDictBatchInto(&got, payload[:10]); err == nil {
		t.Error("short payload should fail")
	}
	if err := DecodeDictBatchInto(&got, append(append([]byte(nil), payload...), 0xaa)); err == nil {
		t.Error("trailing bytes should fail")
	}
	if err := DecodeDictBatchInto(&got, payload[:len(payload)-1]); err == nil {
		t.Error("truncated payload should fail")
	}
	// An out-of-range dictionary index must be caught, not read past the
	// dictionary: flip the last row's last index to a large varint.
	bad := append([]byte(nil), payload...)
	bad[len(bad)-1] = 0x7f
	if err := DecodeDictBatchInto(&got, bad); err == nil {
		t.Error("out-of-range dictionary index should fail")
	}
}

// TestSetupDictNegotiation pins the negotiation bits: the request flag and
// the ack capability byte round-trip, and an old-format ack (without the
// capability byte) reads as "no dictionary support".
func TestSetupDictNegotiation(t *testing.T) {
	req := &SetupRequest{SessionID: 2, Mode: ModeSemiJoin, InputSchema: shippedSchema(), DictBatches: true}
	data, err := EncodeSetup(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSetup(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.DictBatches {
		t.Error("DictBatches flag lost in setup round trip")
	}

	ack := &SetupAck{SessionID: 2, OK: true, DictBatches: true}
	back, err := DecodeSetupAck(EncodeSetupAck(ack))
	if err != nil {
		t.Fatal(err)
	}
	if !back.DictBatches {
		t.Error("DictBatches capability lost in ack round trip")
	}
	// Pre-dictionary ack: sessionID + ok + empty error string, no capability
	// byte. Must decode cleanly with DictBatches false.
	old := EncodeSetupAck(&SetupAck{SessionID: 2, OK: true})
	old = old[:len(old)-1]
	back, err = DecodeSetupAck(old)
	if err != nil {
		t.Fatal(err)
	}
	if back.DictBatches {
		t.Error("old-format ack must read as no dictionary support")
	}
}
