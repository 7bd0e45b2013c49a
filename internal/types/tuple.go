package types

import (
	"fmt"
	"strings"
)

// Tuple is an ordered list of values, positionally matching a Schema.
// Tuples are treated as immutable once produced by an operator; operators
// that need to change a tuple build a new one.
type Tuple []Value

// NewTuple builds a tuple from the given values.
func NewTuple(vals ...Value) Tuple {
	t := make(Tuple, len(vals))
	copy(t, vals)
	return t
}

// Len returns the number of values in the tuple.
func (t Tuple) Len() int { return len(t) }

// Clone returns a shallow copy of the tuple. Values are immutable so a
// shallow copy is sufficient for independence.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Size returns the approximate encoded size of the tuple in bytes. It is the
// sum of the value sizes plus a small per-tuple header, matching the binary
// encoding in encode.go.
func (t Tuple) Size() int {
	n := 4
	for _, v := range t {
		n += v.Size()
	}
	return n
}

// MemSize returns the bytes the tuple keeps resident: its slice header, its
// Values, and the variable-width payloads they point to. It is what a memory
// budget is charged for retaining t; Size is what the cost model and the wire
// are charged for shipping it. A payload shared between values (a dictionary
// entry, a sub-slice of one buffer) is counted once per value pointing to it.
func (t Tuple) MemSize() int {
	n := TupleHeaderMemSize + len(t)*ValueMemSize
	for _, v := range t {
		n += v.payloadMemSize()
	}
	return n
}

// CompareOn orders two tuples on the given key ordinals, comparing column by
// column. Tuples compare equal when all key columns compare equal.
func CompareOn(a, b Tuple, ordinals []int) (int, error) {
	for _, i := range ordinals {
		if i >= len(a) || i >= len(b) {
			return 0, fmt.Errorf("types: compare ordinal %d out of range", i)
		}
		c, err := Compare(a[i], b[i])
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return c, nil
		}
	}
	return 0, nil
}

// String renders the tuple for display.
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
