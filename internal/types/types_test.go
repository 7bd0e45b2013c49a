package types

import (
	"math"
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindInt:        "INT",
		KindFloat:      "FLOAT",
		KindString:     "STRING",
		KindBool:       "BOOL",
		KindBytes:      "BYTES",
		KindTimeSeries: "TIMESERIES",
		KindNull:       "NULL",
		KindInvalid:    "INVALID",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestKindPredicates(t *testing.T) {
	if !KindInt.Numeric() || !KindFloat.Numeric() {
		t.Error("INT and FLOAT should be numeric")
	}
	if KindString.Numeric() || KindBytes.Numeric() {
		t.Error("STRING and BYTES should not be numeric")
	}
	if !KindString.Comparable() || !KindBytes.Comparable() {
		t.Error("STRING and BYTES should be comparable")
	}
	if KindNull.Comparable() {
		t.Error("NULL kind should not be comparable")
	}
}

func TestSchemaOrdinal(t *testing.T) {
	s := NewSchema(
		Column{Qualifier: "S", Name: "Name", Kind: KindString},
		Column{Qualifier: "S", Name: "Quotes", Kind: KindTimeSeries},
		Column{Qualifier: "E", Name: "Name", Kind: KindString},
	)
	if i, err := s.Ordinal("Quotes"); err != nil || i != 1 {
		t.Errorf("Ordinal(Quotes) = %d, %v; want 1, nil", i, err)
	}
	if i, err := s.Ordinal("quotes"); err != nil || i != 1 {
		t.Errorf("case-insensitive Ordinal = %d, %v; want 1, nil", i, err)
	}
	if _, err := s.Ordinal("Name"); err == nil {
		t.Error("ambiguous reference should error")
	}
	if _, err := s.Ordinal("Missing"); err == nil {
		t.Error("missing column should error")
	}
}

func TestSchemaProjectConcatClone(t *testing.T) {
	s := NewSchema(
		Column{Name: "a", Kind: KindInt},
		Column{Name: "b", Kind: KindString},
		Column{Name: "c", Kind: KindFloat},
	)
	p, err := s.Project([]int{2, 0})
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if p.Len() != 2 || p.Columns[0].Name != "c" || p.Columns[1].Name != "a" {
		t.Errorf("Project produced %v", p)
	}
	if _, err := s.Project([]int{5}); err == nil {
		t.Error("out-of-range projection should error")
	}
	other := NewSchema(Column{Name: "d", Kind: KindBool})
	cat := s.Concat(other)
	if cat.Len() != 4 || cat.Columns[3].Name != "d" {
		t.Errorf("Concat produced %v", cat)
	}
	clone := s.Clone()
	clone.Columns[0].Name = "zzz"
	if s.Columns[0].Name != "a" {
		t.Error("Clone should not alias the original")
	}
	q := s.WithQualifier("R")
	if q.Columns[0].Qualifier != "R" || s.Columns[0].Qualifier != "" {
		t.Error("WithQualifier should qualify a copy only")
	}
	if !strings.Contains(s.String(), "b STRING") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestValueConstructorsAndAccessors(t *testing.T) {
	iv := NewInt(42)
	if v, err := iv.Int(); err != nil || v != 42 {
		t.Errorf("Int() = %d, %v", v, err)
	}
	if f, err := iv.Float(); err != nil || f != 42 {
		t.Errorf("Float() of INT = %g, %v", f, err)
	}
	fv := NewFloat(2.5)
	if f, err := fv.Float(); err != nil || f != 2.5 {
		t.Errorf("Float() = %g, %v", f, err)
	}
	sv := NewString("hello")
	if s, err := sv.Str(); err != nil || s != "hello" {
		t.Errorf("Str() = %q, %v", s, err)
	}
	bv := NewBool(true)
	if b, err := bv.Bool(); err != nil || !b {
		t.Errorf("Bool() = %v, %v", b, err)
	}
	byv := NewBytes([]byte{1, 2, 3})
	if b, err := byv.Bytes(); err != nil || len(b) != 3 {
		t.Errorf("Bytes() = %v, %v", b, err)
	}
	tv := NewTimeSeries(TimeSeries{1, 2, 3})
	if ts, err := tv.Series(); err != nil || ts.Len() != 3 {
		t.Errorf("Series() = %v, %v", ts, err)
	}

	// Wrong-kind accessors must fail.
	if _, err := sv.Int(); err == nil {
		t.Error("Int() on STRING should error")
	}
	if _, err := iv.Str(); err == nil {
		t.Error("Str() on INT should error")
	}
	if _, err := iv.Bool(); err == nil {
		t.Error("Bool() on INT should error")
	}
	if _, err := iv.Bytes(); err == nil {
		t.Error("Bytes() on INT should error")
	}
	if _, err := iv.Series(); err == nil {
		t.Error("Series() on INT should error")
	}
}

func TestNullValues(t *testing.T) {
	var zero Value
	if !zero.IsNull() {
		t.Error("zero Value should be NULL")
	}
	if zero.Kind() != KindNull {
		t.Errorf("zero Value kind = %v", zero.Kind())
	}
	n := Null(KindInt)
	if !n.IsNull() || n.Kind() != KindInt {
		t.Errorf("Null(INT) = %v", n)
	}
	if _, err := n.Int(); err != ErrNull {
		t.Errorf("Int() on NULL = %v, want ErrNull", err)
	}
	if c, err := Compare(Null(KindInt), Null(KindString)); err != nil || c != 0 {
		t.Errorf("Compare(NULL, NULL) = %d, %v", c, err)
	}
	if c, _ := Compare(Null(KindInt), NewInt(0)); c != -1 {
		t.Errorf("NULL should sort before non-NULL, got %d", c)
	}
	if c, _ := Compare(NewInt(0), Null(KindInt)); c != 1 {
		t.Errorf("non-NULL should sort after NULL, got %d", c)
	}
	if n.String() != "NULL" {
		t.Errorf("NULL String() = %q", n.String())
	}
	if tr, err := n.Truth(); err != nil || tr {
		t.Errorf("NULL Truth() = %v, %v", tr, err)
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(2), NewFloat(2.0), 0},
		{NewFloat(1.5), NewInt(2), -1},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{NewBool(false), NewBool(true), -1},
		{NewBytes([]byte{1, 2}), NewBytes([]byte{1, 2, 3}), -1},
		{NewBytes([]byte{2}), NewBytes([]byte{1, 9}), 1},
		{NewTimeSeries(TimeSeries{1, 2}), NewTimeSeries(TimeSeries{1, 2}), 0},
	}
	for _, c := range cases {
		got, err := Compare(c.a, c.b)
		if err != nil {
			t.Errorf("Compare(%v, %v): %v", c.a, c.b, err)
			continue
		}
		if got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if _, err := Compare(NewString("a"), NewInt(1)); err == nil {
		t.Error("comparing STRING with INT should error")
	}
	// NaN ordering is total.
	if c, _ := Compare(NewFloat(math.NaN()), NewFloat(1)); c != -1 {
		t.Errorf("NaN should sort before numbers, got %d", c)
	}
	if c, _ := Compare(NewFloat(1), NewFloat(math.NaN())); c != 1 {
		t.Errorf("numbers should sort after NaN, got %d", c)
	}
}

// TestValueHashConsistency holds the key hash to its uses: equal values
// hash alike, and different ones normally do not.
func TestValueHashConsistency(t *testing.T) {
	if NewInt(2).keyHash() != NewFloat(2).keyHash() {
		t.Error("INT 2 and FLOAT 2.0 must hash identically (they compare equal)")
	}
	if NewString("x").keyHash() == NewString("y").keyHash() {
		t.Error("different strings should normally hash differently")
	}
	a := NewTimeSeries(TimeSeries{1, 2, 3})
	b := NewTimeSeries(TimeSeries{1, 2, 3})
	if a.keyHash() != b.keyHash() {
		t.Error("equal time series must hash identically")
	}
	if a.keyHash() == NewTimeSeries(TimeSeries{1, 2, 4}).keyHash() {
		t.Error("different time series should normally hash differently")
	}
	if NewBool(true).keyHash() == NewBool(false).keyHash() {
		t.Error("TRUE and FALSE should hash differently")
	}
}

// TestValueHashAgreesWithCompare holds the key hash to Compare on the values
// whose bit patterns differ although they compare equal: the signed zeros,
// NaN payloads, and the INT values beside them.
func TestValueHashAgreesWithCompare(t *testing.T) {
	values := []Value{
		NewInt(0), NewFloat(0), NewFloat(math.Copysign(0, -1)),
		NewFloat(math.NaN()),
		NewFloat(math.Float64frombits(0x7ff8_0000_dead_beef)), // another payload
		NewFloat(math.Float64frombits(0xfff8_0000_0000_0000)), // negative NaN
		NewFloat(math.Float64frombits(0x7ff0_0000_0000_0001)), // signalling NaN
		NewInt(1), NewFloat(1), NewInt(-1), NewFloat(-1),
		NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)),
		Null(KindInt), Null(KindFloat),
	}
	for _, a := range values {
		for _, b := range values {
			if c, err := Compare(a, b); err == nil && c == 0 && a.keyHash() != b.keyHash() {
				t.Errorf("%v (bits %#x) and %v (bits %#x) compare equal but hash differently",
					a, a.w, b, b.w)
			}
		}
	}
}

func TestValueTruth(t *testing.T) {
	cases := []struct {
		v    Value
		want bool
		ok   bool
	}{
		{NewBool(true), true, true},
		{NewBool(false), false, true},
		{NewInt(0), false, true},
		{NewInt(5), true, true},
		{NewFloat(0.0), false, true},
		{NewFloat(-1), true, true},
		{NewString("x"), false, false},
	}
	for _, c := range cases {
		got, err := c.v.Truth()
		if c.ok && err != nil {
			t.Errorf("Truth(%v): %v", c.v, err)
		}
		if !c.ok && err == nil {
			t.Errorf("Truth(%v): expected error", c.v)
		}
		if err == nil && got != c.want {
			t.Errorf("Truth(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestValueSizeAndString(t *testing.T) {
	if NewInt(1).Size() != 10 {
		t.Errorf("INT size = %d", NewInt(1).Size())
	}
	if NewString("abcd").Size() != 10 {
		t.Errorf("STRING size = %d", NewString("abcd").Size())
	}
	if NewTimeSeries(TimeSeries{1, 2}).Size() != 22 {
		t.Errorf("TIMESERIES size = %d", NewTimeSeries(TimeSeries{1, 2}).Size())
	}
	if Null(KindInt).Size() != 2 {
		t.Errorf("NULL size = %d", Null(KindInt).Size())
	}
	if NewBool(true).String() != "true" || NewBool(false).String() != "false" {
		t.Error("BOOL String() wrong")
	}
	if !strings.Contains(NewBytes(make([]byte, 9)).String(), "9") {
		t.Error("BYTES String() should include length")
	}
}

func TestTimeSeriesStats(t *testing.T) {
	ts := TimeSeries{100, 110, 121}
	if ts.Len() != 3 || ts[1] != 110 {
		t.Errorf("Len wrong: %v", ts)
	}
	if ts.First() != 100 || ts.Last() != 121 {
		t.Errorf("First/Last wrong: %v", ts)
	}
	if m := ts.Mean(); math.Abs(m-110.333) > 0.01 {
		t.Errorf("Mean = %g", m)
	}
	if ts.Min() != 100 || ts.Max() != 121 {
		t.Errorf("Min/Max wrong")
	}
	r := ts.Returns()
	if r.Len() != 2 || math.Abs(r[0]-0.1) > 1e-9 || math.Abs(r[1]-0.1) > 1e-9 {
		t.Errorf("Returns = %v", r)
	}
	if v := ts.Volatility(); math.Abs(v) > 1e-9 {
		t.Errorf("constant-return series should have ~0 volatility, got %g", v)
	}
	var empty TimeSeries
	if empty.Mean() != 0 || empty.First() != 0 || empty.Last() != 0 {
		t.Error("empty series stats should be zero")
	}
	if !math.IsInf(empty.Min(), 1) || !math.IsInf(empty.Max(), -1) {
		t.Error("empty Min/Max should be infinities")
	}
	if empty.Returns().Len() != 0 {
		t.Error("empty Returns should be empty")
	}
	if empty.StdDev() != 0 {
		t.Error("StdDev of short series should be 0")
	}
	zeroStart := TimeSeries{0, 5}
	if zeroStart.Returns()[0] != 0 {
		t.Error("return after a zero sample should be 0")
	}
	long := TimeSeries{1, 2, 3, 4, 5, 6, 7}
	if !strings.Contains(long.String(), "...") {
		t.Errorf("long series String should be abbreviated: %q", long.String())
	}
}

func TestTupleBasics(t *testing.T) {
	tp := NewTuple(NewInt(1), NewString("a"), NewFloat(2.5))
	if tp.Len() != 3 {
		t.Fatalf("Len = %d", tp.Len())
	}
	clone := tp.Clone()
	clone[0] = NewInt(99)
	if v, _ := tp[0].Int(); v != 1 {
		t.Error("Clone should not alias")
	}
	if tp.Size() <= 0 {
		t.Error("Size should be positive")
	}
	if !strings.Contains(tp.String(), "2.5") {
		t.Errorf("String() = %q", tp.String())
	}
}

func TestTupleCompareAndKeys(t *testing.T) {
	a := NewTuple(NewInt(1), NewString("x"), NewFloat(9))
	b := NewTuple(NewInt(1), NewString("x"), NewFloat(10))
	c := NewTuple(NewInt(2), NewString("x"), NewFloat(9))

	if !equalOn(a, b, []int{0, 1}) {
		t.Error("a and b agree on columns 0,1")
	}
	if equalOn(a, c, []int{0}) {
		t.Error("a and c differ on column 0")
	}
	if cmp, err := CompareOn(a, c, []int{0}); err != nil || cmp != -1 {
		t.Errorf("CompareOn = %d, %v", cmp, err)
	}
	if cmp, err := CompareOn(a, b, []int{2}); err != nil || cmp != -1 {
		t.Errorf("CompareOn col2 = %d, %v", cmp, err)
	}
	if _, err := CompareOn(a, b, []int{7}); err == nil {
		t.Error("out-of-range CompareOn should error")
	}
	if cmp, err := CompareOn(a, b, []int{0, 1}); err != nil || cmp != 0 {
		t.Errorf("CompareOn over equal columns = %d, %v", cmp, err)
	}
	// NULLs group together for duplicate elimination.
	n1 := NewTuple(Null(KindInt))
	n2 := NewTuple(Null(KindInt))
	if !equalOn(n1, n2, []int{0}) {
		t.Error("NULL keys should group together")
	}
}

// equalOn reports whether two tuples agree on the given key ordinals.
func equalOn(a, b Tuple, ordinals []int) bool {
	c, err := CompareOn(a, b, ordinals)
	return err == nil && c == 0
}
