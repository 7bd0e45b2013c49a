package types

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func roundTripValue(t *testing.T, v Value) {
	t.Helper()
	enc, err := EncodeValue(nil, v)
	if err != nil {
		t.Fatalf("EncodeValue(%v): %v", v, err)
	}
	got, n, err := DecodeValue(enc)
	if err != nil {
		t.Fatalf("DecodeValue(%v): %v", v, err)
	}
	if n != len(enc) {
		t.Errorf("DecodeValue consumed %d of %d bytes", n, len(enc))
	}
	if v.IsNull() {
		if !got.IsNull() || got.Kind() != v.Kind() {
			t.Errorf("round trip of NULL %v produced %v", v.Kind(), got)
		}
		return
	}
	if c, err := Compare(v, got); err != nil || c != 0 {
		t.Errorf("round trip of %v produced %v (cmp=%d err=%v)", v, got, c, err)
	}
}

func TestValueEncodeRoundTrip(t *testing.T) {
	values := []Value{
		NewInt(0), NewInt(-1), NewInt(math.MaxInt64), NewInt(math.MinInt64),
		NewFloat(0), NewFloat(-2.75), NewFloat(math.MaxFloat64),
		NewBool(true), NewBool(false),
		NewString(""), NewString("hello world"), NewString("日本語"),
		NewBytes(nil), NewBytes([]byte{0, 1, 2, 255}),
		NewTimeSeries(nil), NewTimeSeries(TimeSeries{1.5, -2, 0}),
		Null(KindInt), Null(KindString), Null(KindTimeSeries),
	}
	for _, v := range values {
		roundTripValue(t, v)
	}
}

func TestValueEncodeErrors(t *testing.T) {
	if _, err := EncodeValue(nil, Value{kind: KindInvalid, valid: true}); err == nil {
		t.Error("encoding an invalid kind should error")
	}
	if _, _, err := DecodeValue(nil); err == nil {
		t.Error("decoding empty input should error")
	}
	if _, _, err := DecodeValue([]byte{byte(KindInt), 1, 2}); err == nil {
		t.Error("short INT payload should error")
	}
	if _, _, err := DecodeValue([]byte{0x7f}); err == nil {
		t.Error("unknown kind tag should error")
	}
	if _, _, err := DecodeValue([]byte{byte(KindString), 200}); err == nil {
		t.Error("truncated STRING should error")
	}
	if _, _, err := DecodeValue([]byte{byte(KindTimeSeries), 4, 0, 0}); err == nil {
		t.Error("truncated TIMESERIES should error")
	}
}

func TestTupleEncodeRoundTrip(t *testing.T) {
	tup := NewTuple(
		NewInt(7),
		NewString("acme"),
		NewTimeSeries(TimeSeries{10, 11, 12.5}),
		Null(KindFloat),
		NewBytes([]byte("payload")),
		NewBool(true),
	)
	enc, err := EncodeTuple(nil, tup)
	if err != nil {
		t.Fatalf("EncodeTuple: %v", err)
	}
	got, n, err := DecodeTuple(enc)
	if err != nil {
		t.Fatalf("DecodeTuple: %v", err)
	}
	if n != len(enc) {
		t.Errorf("DecodeTuple consumed %d of %d", n, len(enc))
	}
	if got.Len() != tup.Len() {
		t.Fatalf("arity %d != %d", got.Len(), tup.Len())
	}
	for i := range tup {
		if tup[i].IsNull() != got[i].IsNull() {
			t.Errorf("column %d null mismatch", i)
		}
		if c, err := Compare(tup[i], got[i]); err != nil || c != 0 {
			t.Errorf("column %d: %v != %v", i, tup[i], got[i])
		}
	}
	if _, _, err := DecodeTuple(nil); err == nil {
		t.Error("decoding empty tuple input should error")
	}
	if _, _, err := DecodeTuple([]byte{3, byte(KindInt)}); err == nil {
		t.Error("truncated tuple should error")
	}
}

func TestSchemaEncodeRoundTrip(t *testing.T) {
	s := NewSchema(
		Column{Qualifier: "S", Name: "Name", Kind: KindString},
		Column{Qualifier: "", Name: "Quotes", Kind: KindTimeSeries},
		Column{Qualifier: "E", Name: "Rating", Kind: KindInt},
	)
	enc := EncodeSchema(nil, s)
	got, n, err := DecodeSchema(enc)
	if err != nil {
		t.Fatalf("DecodeSchema: %v", err)
	}
	if n != len(enc) {
		t.Errorf("DecodeSchema consumed %d of %d", n, len(enc))
	}
	if !reflect.DeepEqual(s, got) {
		t.Errorf("schema round trip: %v != %v", got, s)
	}
	if _, _, err := DecodeSchema(nil); err == nil {
		t.Error("decoding empty schema should error")
	}
	if _, _, err := DecodeSchema([]byte{2, byte(KindInt), 5}); err == nil {
		t.Error("truncated schema should error")
	}
}

// randomValue builds an arbitrary value from quick-check generated raw data.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(8) {
	case 0:
		return NewInt(r.Int63() - r.Int63())
	case 1:
		return NewFloat(r.NormFloat64() * 1e6)
	case 2:
		b := make([]byte, r.Intn(64))
		r.Read(b)
		return NewString(string(b))
	case 3:
		return NewBool(r.Intn(2) == 0)
	case 4:
		b := make([]byte, r.Intn(64))
		r.Read(b)
		return NewBytes(b)
	case 5:
		ts := make(TimeSeries, r.Intn(16))
		for i := range ts {
			ts[i] = r.NormFloat64() * 100
		}
		return NewTimeSeries(ts)
	case 6:
		return Null(Kind(1 + r.Intn(6)))
	default:
		return NewInt(int64(r.Intn(10)))
	}
}

// TestQuickValueRoundTrip property: encode/decode is the identity for any
// generated value, and the encoded size matches what Size() predicts to
// within the small fixed header slack.
func TestQuickValueRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 20; i++ {
			v := randomValue(r)
			enc, err := EncodeValue(nil, v)
			if err != nil {
				return false
			}
			got, n, err := DecodeValue(enc)
			if err != nil || n != len(enc) {
				return false
			}
			if v.IsNull() {
				if !got.IsNull() || got.Kind() != v.Kind() {
					return false
				}
				continue
			}
			if c, err := Compare(v, got); err != nil || c != 0 {
				return false
			}
			if again, err := EncodeValue(nil, got); err != nil || string(again) != string(enc) {
				return false
			}
			// Size() is allowed to over-estimate slightly (fixed header) but
			// never by more than 8 bytes, and never under-estimates by more
			// than the varint savings (8 bytes).
			diff := v.Size() - len(enc)
			if diff < -8 || diff > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQuickTupleRoundTrip property: tuple encode/decode preserves arity and
// re-encodes to the same bytes for arbitrary tuples.
func TestQuickTupleRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 10; i++ {
			n := 1 + r.Intn(8)
			tup := make(Tuple, n)
			for j := range tup {
				tup[j] = randomValue(r)
			}
			enc, err := EncodeTuple(nil, tup)
			if err != nil {
				return false
			}
			got, used, err := DecodeTuple(enc)
			if err != nil || used != len(enc) || got.Len() != n {
				return false
			}
			if again, err := EncodeTuple(nil, got); err != nil || string(again) != string(enc) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQuickCompareTotalOrder property: Compare over same-kind values is a
// total order — antisymmetric and transitive on random triples, and zero only
// on identical keys. It runs over the whole int64 range and again over
// triples drawn around ±2^53 and the ends of the range, the INTs float64
// cannot tell apart.
func TestQuickCompareTotalOrder(t *testing.T) {
	f := func(a, b, c int64) bool {
		va, vb, vc := NewInt(a), NewInt(b), NewInt(c)
		ab, _ := Compare(va, vb)
		ba, _ := Compare(vb, va)
		if ab != -ba {
			return false
		}
		if (ab == 0) != (a == b) {
			return false
		}
		ac, _ := Compare(va, vc)
		bc, _ := Compare(vb, vc)
		if ab <= 0 && bc <= 0 && ac > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	anchors := []int64{1 << 53, -(1 << 53), 1 << 62, math.MaxInt64 - 4, math.MinInt64 + 4}
	nearAnchors := &quick.Config{MaxCount: 2000, Values: func(args []reflect.Value, r *rand.Rand) {
		for i := range args {
			args[i] = reflect.ValueOf(anchors[r.Intn(len(anchors))] + int64(r.Intn(9)) - 4)
		}
	}}
	if err := quick.Check(f, nearAnchors); err != nil {
		t.Error(err)
	}
}
