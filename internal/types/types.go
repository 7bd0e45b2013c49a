// Package types implements the value system used throughout the engine:
// scalar and composite data types, schemas, tuples, comparison, hashing and a
// compact binary encoding used both by the storage layer and the wire
// protocol.
//
// The design follows the PREDATOR model described in the paper: every column
// has a declared Kind, tuples are positional, and "enhanced" types such as
// time series are first-class values so that they can be passed as arguments
// to client-site UDFs.
package types

import (
	"fmt"
	"strings"
)

// Kind enumerates the data types supported by the engine.
type Kind uint8

const (
	// KindInvalid is the zero Kind; it never appears in a valid schema.
	KindInvalid Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE-754 floating point number.
	KindFloat
	// KindString is a variable-length UTF-8 string.
	KindString
	// KindBool is a boolean.
	KindBool
	// KindBytes is an uninterpreted byte string (the paper's "DataObject").
	KindBytes
	// KindTimeSeries is an ordered sequence of float64 samples; it models the
	// S.Quotes column used by the ClientAnalysis UDF in the paper.
	KindTimeSeries
	// KindNull is the type of an untyped NULL literal before binding.
	KindNull
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOL"
	case KindBytes:
		return "BYTES"
	case KindTimeSeries:
		return "TIMESERIES"
	case KindNull:
		return "NULL"
	default:
		return "INVALID"
	}
}

// Numeric reports whether the kind is an arithmetic type.
func (k Kind) Numeric() bool {
	return k == KindInt || k == KindFloat
}

// Comparable reports whether values of this kind can be ordered with Compare.
func (k Kind) Comparable() bool {
	switch k {
	case KindInt, KindFloat, KindString, KindBool, KindBytes:
		return true
	default:
		return false
	}
}

// Column describes a single attribute of a relation: its name, type, and an
// optional qualifier (the table or alias the column came from).
type Column struct {
	Qualifier string
	Name      string
	Kind      Kind
}

// QualifiedName returns "qualifier.name" or just the name when the column has
// no qualifier.
func (c Column) QualifiedName() string {
	if c.Qualifier == "" {
		return c.Name
	}
	return c.Qualifier + "." + c.Name
}

// String implements fmt.Stringer.
func (c Column) String() string {
	return fmt.Sprintf("%s %s", c.QualifiedName(), c.Kind)
}

// Schema is an ordered list of columns describing the shape of a tuple.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema from the given columns.
func NewSchema(cols ...Column) *Schema {
	return &Schema{Columns: cols}
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	cols := make([]Column, len(s.Columns))
	copy(cols, s.Columns)
	return &Schema{Columns: cols}
}

// Project returns a new schema containing only the columns at the given
// ordinals, in the given order.
func (s *Schema) Project(ordinals []int) (*Schema, error) {
	cols := make([]Column, 0, len(ordinals))
	for _, i := range ordinals {
		if i < 0 || i >= len(s.Columns) {
			return nil, fmt.Errorf("types: projection ordinal %d out of range [0,%d)", i, len(s.Columns))
		}
		cols = append(cols, s.Columns[i])
	}
	return &Schema{Columns: cols}, nil
}

// Concat returns the schema obtained by appending other's columns to s.
func (s *Schema) Concat(other *Schema) *Schema {
	cols := make([]Column, 0, len(s.Columns)+len(other.Columns))
	cols = append(cols, s.Columns...)
	cols = append(cols, other.Columns...)
	return &Schema{Columns: cols}
}

// Ordinal resolves a column name to its position. Matching is
// case-insensitive. It returns an error when the name is ambiguous or not
// found.
func (s *Schema) Ordinal(name string) (int, error) {
	found := -1
	for i, c := range s.Columns {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("types: ambiguous column reference %q", name)
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("types: column %q not found in schema %s", name, s)
	}
	return found, nil
}

// String implements fmt.Stringer.
func (s *Schema) String() string {
	parts := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		parts[i] = c.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// WithQualifier returns a copy of the schema in which every column's qualifier
// has been replaced by q. It is used when a table is aliased in a query.
func (s *Schema) WithQualifier(q string) *Schema {
	out := s.Clone()
	for i := range out.Columns {
		out.Columns[i].Qualifier = q
	}
	return out
}
