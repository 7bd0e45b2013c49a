package types

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// ErrNull is returned by accessors when the value is NULL.
var ErrNull = errors.New("types: value is NULL")

// ErrKindMismatch is returned when a value is accessed as the wrong kind.
var ErrKindMismatch = errors.New("types: kind mismatch")

// Value is a single, immutable SQL value. The zero Value is NULL of KindNull.
//
// A Value is three words (24 bytes) passed by value. INT and BOOL keep their
// payload in w, FLOAT keeps its IEEE-754 bits there, and the three
// variable-width kinds keep a pointer to the first element of their payload
// in p and its length (bytes for STRING and BYTES, samples for TIMESERIES) in
// w. Scalars box nothing; a STRING, BYTES or TIMESERIES value shares its
// constructor argument's backing array exactly as a string or slice header
// would, so copying a Value never copies a payload.
//
// p is an unsafe.Pointer, never a uintptr, so the garbage collector sees it
// and keeps the payload alive. It is written only from unsafe.StringData and
// unsafe.SliceData and read only through unsafe.String and unsafe.Slice with
// the length in w, after the kind has been checked; that is what keeps every
// accessor memory-safe. This file is the only one outside tests that imports
// unsafe (CI checks it).
//
// Two Values holding equal payloads generally hold different addresses, so
// == and reflect.DeepEqual on Values would compare the wrong thing; the
// zero-width array of funcs makes == a compile error. Use Compare or Equal,
// or compare encodings.
type Value struct {
	_     [0]func()
	p     unsafe.Pointer // payload of STRING, BYTES, TIMESERIES; nil otherwise
	w     uint64         // INT/BOOL word, FLOAT bits, or the length of p's payload
	kind  Kind
	null  bool
	valid bool // distinguishes the zero Value (NULL of KindNull) from constructed values
}

// ValueMemSize is the resident size of one Value in bytes, excluding the
// variable-width payload it may point to; TupleHeaderMemSize is that of a
// Tuple's slice header. Tuple.MemSize adds them up.
const (
	ValueMemSize       = int(unsafe.Sizeof(Value{}))
	TupleHeaderMemSize = int(unsafe.Sizeof(Tuple(nil)))
)

// Null returns a NULL value of the given kind.
func Null(kind Kind) Value {
	return Value{kind: kind, null: true, valid: true}
}

// NewInt returns an INT value.
func NewInt(v int64) Value { return Value{kind: KindInt, w: uint64(v), valid: true} }

// NewFloat returns a FLOAT value.
func NewFloat(v float64) Value {
	return Value{kind: KindFloat, w: math.Float64bits(v), valid: true}
}

// NewString returns a STRING value.
func NewString(v string) Value {
	return Value{kind: KindString, p: unsafe.Pointer(unsafe.StringData(v)), w: uint64(len(v)), valid: true}
}

// NewBool returns a BOOL value.
func NewBool(v bool) Value {
	w := uint64(0)
	if v {
		w = 1
	}
	return Value{kind: KindBool, w: w, valid: true}
}

// NewBytes returns a BYTES value. The slice is not copied; callers must not
// mutate it afterwards.
func NewBytes(v []byte) Value {
	return Value{kind: KindBytes, p: unsafe.Pointer(unsafe.SliceData(v)), w: uint64(len(v)), valid: true}
}

// NewTimeSeries returns a TIMESERIES value. The series is not copied.
func NewTimeSeries(ts TimeSeries) Value {
	return Value{kind: KindTimeSeries, p: unsafe.Pointer(unsafe.SliceData(ts)), w: uint64(len(ts)), valid: true}
}

// The payload readers below trust kind: each is called only after the kind
// has been checked, so p points at w elements of the type it is read as. The
// slices they return have cap == len, so an append on one reallocates instead
// of writing past the payload; a nil payload reads back nil and an empty
// non-nil one non-nil.

func (v Value) int() int64     { return int64(v.w) }
func (v Value) float() float64 { return math.Float64frombits(v.w) }
func (v Value) str() string    { return unsafe.String((*byte)(v.p), int(v.w)) }
func (v Value) bytes() []byte  { return unsafe.Slice((*byte)(v.p), int(v.w)) }
func (v Value) series() TimeSeries {
	return unsafe.Slice((*float64)(v.p), int(v.w))
}

// Kind returns the value's declared kind. The zero Value reports KindNull.
func (v Value) Kind() Kind {
	if !v.valid {
		return KindNull
	}
	return v.kind
}

// IsNull reports whether the value is NULL. The zero Value is NULL.
func (v Value) IsNull() bool { return !v.valid || v.null }

// Int returns the int64 payload of an INT or BOOL value.
func (v Value) Int() (int64, error) {
	if v.IsNull() {
		return 0, ErrNull
	}
	if v.kind != KindInt && v.kind != KindBool {
		return 0, fmt.Errorf("%w: have %s, want INT", ErrKindMismatch, v.kind)
	}
	return v.int(), nil
}

// Float returns the float64 payload. INT values are widened.
func (v Value) Float() (float64, error) {
	if v.IsNull() {
		return 0, ErrNull
	}
	switch v.kind {
	case KindFloat:
		return v.float(), nil
	case KindInt:
		return float64(v.int()), nil
	default:
		return 0, fmt.Errorf("%w: have %s, want FLOAT", ErrKindMismatch, v.kind)
	}
}

// Str returns the string payload of a STRING value.
func (v Value) Str() (string, error) {
	if v.IsNull() {
		return "", ErrNull
	}
	if v.kind != KindString {
		return "", fmt.Errorf("%w: have %s, want STRING", ErrKindMismatch, v.kind)
	}
	return v.str(), nil
}

// Bool returns the boolean payload of a BOOL value.
func (v Value) Bool() (bool, error) {
	if v.IsNull() {
		return false, ErrNull
	}
	if v.kind != KindBool {
		return false, fmt.Errorf("%w: have %s, want BOOL", ErrKindMismatch, v.kind)
	}
	return v.w != 0, nil
}

// Bytes returns the byte payload of a BYTES value. Callers must not mutate the
// returned slice.
func (v Value) Bytes() ([]byte, error) {
	if v.IsNull() {
		return nil, ErrNull
	}
	if v.kind != KindBytes {
		return nil, fmt.Errorf("%w: have %s, want BYTES", ErrKindMismatch, v.kind)
	}
	return v.bytes(), nil
}

// Series returns the time-series payload of a TIMESERIES value.
func (v Value) Series() (TimeSeries, error) {
	if v.IsNull() {
		return nil, ErrNull
	}
	if v.kind != KindTimeSeries {
		return nil, fmt.Errorf("%w: have %s, want TIMESERIES", ErrKindMismatch, v.kind)
	}
	return v.series(), nil
}

// Size returns the approximate encoded size of the value in bytes. The cost
// model and the wire protocol both use this figure, so it must agree with the
// encoding in encode.go.
func (v Value) Size() int {
	if v.IsNull() {
		return 2
	}
	switch v.kind {
	case KindInt, KindFloat:
		return 10
	case KindBool:
		return 3
	case KindString, KindBytes:
		return 6 + int(v.w)
	case KindTimeSeries:
		return 6 + 8*int(v.w)
	default:
		return 2
	}
}

// payloadMemSize returns the bytes of variable-width payload v points to: what
// the value keeps resident beyond its own ValueMemSize.
func (v Value) payloadMemSize() int {
	switch v.kind {
	case KindString, KindBytes:
		return int(v.w)
	case KindTimeSeries:
		return 8 * int(v.w)
	default:
		return 0
	}
}

// String renders the value for display and for the shell.
func (v Value) String() string {
	if v.IsNull() {
		return "NULL"
	}
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(v.int(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindBool:
		if v.w != 0 {
			return "true"
		}
		return "false"
	case KindString:
		return v.str()
	case KindBytes:
		return fmt.Sprintf("<bytes %d>", v.w)
	case KindTimeSeries:
		return v.series().String()
	default:
		return "<invalid>"
	}
}

// Compare orders two values. NULL sorts before every non-NULL value and equal
// to another NULL (total order for sorting, unlike Equal). Values of different
// numeric kinds are compared numerically; other kind mismatches are an error.
func Compare(a, b Value) (int, error) {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0, nil
	case an:
		return -1, nil
	case bn:
		return 1, nil
	}
	ak, bk := a.kind, b.kind
	if ak == bk {
		switch ak {
		case KindInt, KindBool:
			return compareInt(a.int(), b.int()), nil
		case KindFloat:
			return compareFloat(a.float(), b.float()), nil
		case KindString:
			return strings.Compare(a.str(), b.str()), nil
		case KindBytes:
			return bytes.Compare(a.bytes(), b.bytes()), nil
		case KindTimeSeries:
			return a.series().compare(b.series()), nil
		}
		return 0, fmt.Errorf("types: cannot compare values of kind %s", ak)
	}
	if ak.Numeric() && bk.Numeric() {
		af, _ := a.Float()
		bf, _ := b.Float()
		return compareFloat(af, bf), nil
	}
	return 0, fmt.Errorf("%w: cannot compare %s with %s", ErrKindMismatch, ak, bk)
}

func compareInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case math.IsNaN(a) && !math.IsNaN(b):
		return -1
	case !math.IsNaN(a) && math.IsNaN(b):
		return 1
	default:
		return 0
	}
}

// numericBits is the bit pattern a numeric value hashes by: that of f, but
// +0 for -0 and one NaN for every NaN payload.
func numericBits(f float64) uint64 {
	switch {
	case f == 0:
		return 0
	case math.IsNaN(f):
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(f)
}

// Truth evaluates the value in a boolean context: BOOL values are themselves,
// NULL is false, and non-zero numerics are true. Other kinds are an error.
func (v Value) Truth() (bool, error) {
	if v.IsNull() {
		return false, nil
	}
	switch v.kind {
	case KindBool, KindInt:
		return v.w != 0, nil
	case KindFloat:
		return v.float() != 0, nil
	default:
		return false, fmt.Errorf("%w: %s used in boolean context", ErrKindMismatch, v.kind)
	}
}
