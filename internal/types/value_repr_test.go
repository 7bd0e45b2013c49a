package types

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestValueSize pins the representation: a Value is three words. The engine
// sizes arenas, segments and memory charges in Values, so growing it past 32
// bytes is a performance regression on every workload.
func TestValueSize(t *testing.T) {
	got := unsafe.Sizeof(Value{})
	if got > 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want <= 32", got)
	}
	if got != 24 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, expected 24", got)
	}
	if ValueMemSize != int(got) {
		t.Errorf("ValueMemSize = %d, Sizeof = %d", ValueMemSize, got)
	}
	if TupleHeaderMemSize != 24 {
		t.Errorf("TupleHeaderMemSize = %d, expected 24", TupleHeaderMemSize)
	}
}

// TestZeroAndNullValues: the zero Value is NULL of KindNull, a NULL of a kind
// keeps its kind, and neither yields a payload through any accessor.
func TestZeroAndNullValues(t *testing.T) {
	var zero Value
	if !zero.IsNull() || zero.Kind() != KindNull {
		t.Errorf("zero Value: IsNull=%v Kind=%s, want NULL of KindNull", zero.IsNull(), zero.Kind())
	}
	vals := []Value{zero}
	for k := KindInt; k <= KindNull; k++ {
		n := Null(k)
		if !n.IsNull() || n.Kind() != k {
			t.Errorf("Null(%s): IsNull=%v Kind=%s", k, n.IsNull(), n.Kind())
		}
		vals = append(vals, n)
	}
	for _, v := range vals {
		if _, err := v.Int(); err != ErrNull {
			t.Errorf("%s.Int() err = %v, want ErrNull", v.Kind(), err)
		}
		if _, err := v.Float(); err != ErrNull {
			t.Errorf("%s.Float() err = %v, want ErrNull", v.Kind(), err)
		}
		if _, err := v.Bool(); err != ErrNull {
			t.Errorf("%s.Bool() err = %v, want ErrNull", v.Kind(), err)
		}
		if s, err := v.Str(); err != ErrNull || s != "" {
			t.Errorf("%s.Str() = %q, %v, want ErrNull", v.Kind(), s, err)
		}
		if b, err := v.Bytes(); err != ErrNull || b != nil {
			t.Errorf("%s.Bytes() = %v, %v, want nil, ErrNull", v.Kind(), b, err)
		}
		if ts, err := v.Series(); err != ErrNull || ts != nil {
			t.Errorf("%s.Series() = %v, %v, want nil, ErrNull", v.Kind(), ts, err)
		}
		if v.Size() != 2 || v.String() != "NULL" {
			t.Errorf("%s: Size=%d String=%q", v.Kind(), v.Size(), v.String())
		}
	}
}

// TestQuickConstructorAccessorIdentity property: for every kind, what a
// constructor is given is what the accessor returns — bit for bit for the
// scalars, element for element for the payloads — and the other kinds'
// accessors refuse it.
func TestQuickConstructorAccessorIdentity(t *testing.T) {
	ints := func(i int64) bool {
		got, err := NewInt(i).Int()
		return err == nil && got == i
	}
	floats := func(bits uint64) bool {
		f := math.Float64frombits(bits) // every bit pattern, NaN payloads included
		got, err := NewFloat(f).Float()
		return err == nil && math.Float64bits(got) == bits
	}
	bools := func(b bool) bool {
		v := NewBool(b)
		got, err := v.Bool()
		i, ierr := v.Int()
		return err == nil && got == b && ierr == nil && (i == 1) == b
	}
	strs := func(s string) bool {
		v := NewString(s)
		got, err := v.Str()
		_, berr := v.Bytes()
		return err == nil && got == s && v.Size() == 6+len(s) && berr != nil
	}
	byteses := func(b []byte) bool {
		v := NewBytes(b)
		got, err := v.Bytes()
		_, serr := v.Str()
		return err == nil && bytes.Equal(got, b) && (got == nil) == (b == nil) &&
			cap(got) == len(got) && serr != nil
	}
	serieses := func(ts []float64) bool {
		v := NewTimeSeries(ts)
		got, err := v.Series()
		if err != nil || len(got) != len(ts) || cap(got) != len(got) || (got == nil) != (ts == nil) {
			return false
		}
		for i := range ts {
			if math.Float64bits(got[i]) != math.Float64bits(ts[i]) {
				return false
			}
		}
		_, ierr := v.Int()
		return ierr != nil
	}
	for name, f := range map[string]any{
		"int": ints, "float": floats, "bool": bools,
		"string": strs, "bytes": byteses, "series": serieses,
	} {
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestPayloadNilVersusEmpty: a nil payload reads back nil and an empty
// non-nil one reads back empty and non-nil, for both slice kinds.
func TestPayloadNilVersusEmpty(t *testing.T) {
	if b, _ := NewBytes(nil).Bytes(); b != nil {
		t.Errorf("NewBytes(nil).Bytes() = %v, want nil", b)
	}
	if b, _ := NewBytes([]byte{}).Bytes(); b == nil || len(b) != 0 {
		t.Errorf("NewBytes([]byte{}).Bytes() = %v (nil=%v), want empty non-nil", b, b == nil)
	}
	if ts, _ := NewTimeSeries(nil).Series(); ts != nil {
		t.Errorf("NewTimeSeries(nil).Series() = %v, want nil", ts)
	}
	if ts, _ := NewTimeSeries(TimeSeries{}).Series(); ts == nil || len(ts) != 0 {
		t.Errorf("NewTimeSeries(TimeSeries{}).Series() = %v (nil=%v), want empty non-nil", ts, ts == nil)
	}
	if s, err := NewString("").Str(); err != nil || s != "" {
		t.Errorf(`NewString("").Str() = %q, %v`, s, err)
	}
	// A zero-length slice of a longer buffer is empty, not nil, and keeps
	// nothing of the buffer reachable through the accessor.
	buf := []byte("neighbour")
	if b, _ := NewBytes(buf[:0]).Bytes(); b == nil || len(b) != 0 || cap(b) != 0 {
		t.Errorf("empty prefix: %v nil=%v cap=%d", b, b == nil, cap(b))
	}
}

// TestAccessorAppendDoesNotClobber: values built over adjacent parts of one
// buffer — what every batch decoder does — return slices with cap == len, so
// appending to one reallocates instead of overwriting the next value's bytes.
func TestAccessorAppendDoesNotClobber(t *testing.T) {
	buf := []byte("aaaabbbb")
	first, second := NewBytes(buf[:4]), NewBytes(buf[4:])
	got, _ := first.Bytes()
	_ = append(got, 'X', 'Y')
	if b, _ := second.Bytes(); string(b) != "bbbb" {
		t.Errorf("append on the first value's bytes clobbered the second: %q", b)
	}

	samples := []float64{1, 2, 3, 4}
	head, tail := NewTimeSeries(samples[:2]), NewTimeSeries(samples[2:])
	ts, _ := head.Series()
	_ = append(ts, 99)
	if got, _ := tail.Series(); got[0] != 3 || got[1] != 4 {
		t.Errorf("append on the first series clobbered the second: %v", got)
	}
}

// TestTupleMemSize checks the resident-size figure against hand-computed
// cases: 24 for the slice header, 24 per Value, plus payload bytes.
func TestTupleMemSize(t *testing.T) {
	cases := []struct {
		name string
		tup  Tuple
		want int
	}{
		{"nil tuple", nil, 24},
		{"empty tuple", Tuple{}, 24},
		{"three ints", Tuple{NewInt(1), NewInt(2), NewInt(3)}, 24 + 3*24},
		{"scalars", Tuple{NewInt(1), NewFloat(2), NewBool(true)}, 24 + 3*24},
		{"nulls and zero", Tuple{Null(KindString), Null(KindTimeSeries), {}}, 24 + 3*24},
		{"string", Tuple{NewString("hello")}, 24 + 24 + 5},
		{"empty string", Tuple{NewString("")}, 24 + 24},
		{"bytes", Tuple{NewBytes(make([]byte, 512))}, 24 + 24 + 512},
		{"series", Tuple{NewTimeSeries(TimeSeries{1, 2, 3})}, 24 + 24 + 3*8},
		{"mixed", Tuple{NewInt(7), NewString("ab"), NewBytes([]byte{1}), NewTimeSeries(TimeSeries{1})},
			24 + 4*24 + 2 + 1 + 8},
	}
	for _, c := range cases {
		if got := c.tup.MemSize(); got != c.want {
			t.Errorf("%s: MemSize = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestCompareIntExact is the regression test for INT keys that differ only
// below float64's 53-bit mantissa: they used to compare (and join, and group)
// as one key.
func TestCompareIntExact(t *testing.T) {
	const p53 = int64(1) << 53
	pairs := [][2]int64{
		{p53, p53 + 1}, {p53 - 1, p53}, {p53 + 1, p53 + 2},
		{-p53 - 1, -p53}, {-p53, -p53 + 1}, {-p53 - 2, -p53 - 1},
		{math.MaxInt64 - 1, math.MaxInt64}, {math.MinInt64, math.MinInt64 + 1},
		{math.MinInt64, math.MaxInt64},
	}
	for _, p := range pairs {
		lo, hi := NewInt(p[0]), NewInt(p[1])
		if c, err := Compare(lo, hi); err != nil || c != -1 {
			t.Errorf("Compare(%d, %d) = %d, %v, want -1", p[0], p[1], c, err)
		}
		if c, err := Compare(hi, lo); err != nil || c != 1 {
			t.Errorf("Compare(%d, %d) = %d, %v, want 1", p[1], p[0], c, err)
		}
		if c, err := Compare(lo, NewInt(p[0])); err != nil || c != 0 {
			t.Errorf("NewInt(%d) does not equal itself", p[0])
		}
	}
	// Mixed INT/FLOAT stays numeric by float64, so INT 2 meets FLOAT 2.0.
	if c, err := Compare(NewInt(2), NewFloat(2.0)); err != nil || c != 0 {
		t.Errorf("Compare(INT 2, FLOAT 2.0) = %d, %v, want 0", c, err)
	}
	if c, err := Compare(NewInt(p53+1), NewFloat(float64(p53))); err != nil || c != 0 {
		t.Errorf("Compare(INT 2^53+1, FLOAT 2^53) = %d, %v, want 0 (numeric by float64)", c, err)
	}
}
