package types

import (
	"bytes"
	"math"
	"testing"
)

// TestVectorRoundTrip codes one column of each kind, NULLs among its cells,
// as a whole vector and back, and pins the INT column's bytes: deltas from
// the previous non-NULL cell, wrapping at the ends of int64.
func TestVectorRoundTrip(t *testing.T) {
	columns := [][]Value{
		{NewInt(math.MaxInt64), Null(KindInt), NewInt(math.MinInt64), NewInt(math.MinInt64 + 1), NewInt(0)},
		{NewFloat(math.Copysign(0, -1)), NewFloat(math.Float64frombits(0x7ff8_0000_0000_0001)), Null(KindFloat)},
		{NewBool(true), NewBool(false), Null(KindBool)},
		{NewString(""), NewString("héllo"), Null(KindString)},
		{NewBytes([]byte{}), Null(KindBytes), NewBytes([]byte{0, 255})},
		{NewTimeSeries(TimeSeries{}), NewTimeSeries(TimeSeries{1, math.Inf(1)}), Null(KindTimeSeries)},
		{Null(KindNull), Null(KindNull)},
	}
	for _, col := range columns {
		rows := make([]Tuple, len(col))
		for i, v := range col {
			rows[i] = Tuple{v}
		}
		if _, ok := MinVectorSize(rows, 0); !ok {
			t.Fatalf("%s column refused", col[0].Kind())
		}
		enc := AppendVector(nil, rows, 0)
		head, n, err := DecodeVectorHead(enc, len(rows))
		if err != nil {
			t.Fatalf("%s head: %v", col[0].Kind(), err)
		}
		var got Vec
		m, err := head.DecodeVec(enc[n:], len(rows), &got)
		if err != nil || n+m != len(enc) || got.Len() != len(rows) {
			t.Fatalf("%s payloads: consumed %d of %d, %v", col[0].Kind(), n+m, len(enc), err)
		}
		for i, v := range col {
			want, _ := EncodeValue(nil, v)
			have, _ := EncodeValue(nil, got.Value(i))
			if !bytes.Equal(want, have) {
				t.Fatalf("%s cell %d decoded as %v, want %v", col[0].Kind(), i, got.Value(i), v)
			}
		}
	}
	// MaxInt64, then MinInt64 one step on, then +1, then 0 (a delta of
	// 2⁶³-1), behind the kind, the flags and a bitmap marking cell 1.
	want := []byte{byte(KindInt), vectorNulls, 0b10, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x02, 0x02,
		0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	rows := []Tuple{{columns[0][0]}, {columns[0][1]}, {columns[0][2]}, {columns[0][3]}, {columns[0][4]}}
	if got := AppendVector(nil, rows, 0); !bytes.Equal(got, want) {
		t.Fatalf("INT vector = % x, want % x", got, want)
	}
}

// TestMinVectorSize: one kind per column, NULLs included, and the least
// bytes the vector can take.
func TestMinVectorSize(t *testing.T) {
	for _, tc := range []struct {
		rows []Tuple
		n    int
		ok   bool
	}{
		{[]Tuple{{NewInt(1)}, {NewInt(2)}}, 2 + 2, true},
		{[]Tuple{{NewInt(1)}, {Null(KindInt)}}, 2 + 1 + 1, true},
		{[]Tuple{{NewInt(1)}, {Null(KindString)}}, 0, false},
		{[]Tuple{{NewInt(1)}, {NewFloat(1)}}, 0, false},
		{[]Tuple{{Null(Kind(0x40))}}, 0, false},
	} {
		n, ok := MinVectorSize(tc.rows, 0)
		if n != tc.n || ok != tc.ok {
			t.Errorf("MinVectorSize(%v) = %d, %v; want %d, %v", tc.rows, n, ok, tc.n, tc.ok)
		}
	}
}

// TestDecodeVectorRejects: a malformed head or payload is an error.
func TestDecodeVectorRejects(t *testing.T) {
	for _, src := range [][]byte{nil, {byte(KindInt)}, {0x40, 0}, {byte(KindInt), 2}, {byte(KindInt), vectorNulls},
		{byte(KindInt), vectorNulls, 0, 0x02}} { // a NULL tenth cell of nine
		if _, _, err := DecodeVectorHead(src, 9); err == nil {
			t.Errorf("head % x decoded", src)
		}
	}
	for _, tc := range []struct {
		kind Kind
		src  []byte
	}{
		{KindInt, []byte{0x80}},
		{KindFloat, []byte{1, 2, 3}},
		{KindBool, nil},
		{KindString, []byte{5, 'a'}},
		{KindBytes, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x01}},
		{KindTimeSeries, []byte{2, 0, 0, 0, 0, 0, 0, 0, 0}},
		{KindNull, []byte{0}},
	} {
		var cur VectorCursor
		if v, _, err := cur.Decode(tc.src, tc.kind); err == nil {
			t.Errorf("%s payload % x decoded as %v", tc.kind, tc.src, v)
		}
	}
}

// TestVectorCursorSkip: a cell coded another way (a dictionary reference)
// still becomes the base of the next INT delta, on both sides.
func TestVectorCursorSkip(t *testing.T) {
	var enc, dec VectorCursor
	buf := enc.Append(nil, NewInt(1000))
	enc.Skip(NewInt(5000))
	buf = enc.Append(buf, NewInt(5001))
	if want := []byte{0xd0, 0x0f, 0x02}; !bytes.Equal(buf, want) {
		t.Fatalf("payloads % x, want % x", buf, want)
	}
	first, n, err := dec.Decode(buf, KindInt)
	if err != nil {
		t.Fatal(err)
	}
	dec.Skip(NewInt(5000))
	second, _, err := dec.Decode(buf[n:], KindInt)
	if err != nil {
		t.Fatal(err)
	}
	if a, _ := first.Int(); a != 1000 {
		t.Fatalf("first cell %v", first)
	}
	if b, _ := second.Int(); b != 5001 {
		t.Fatalf("cell after the skipped one %v, want 5001", second)
	}
}
