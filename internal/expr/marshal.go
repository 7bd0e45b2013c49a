package expr

import (
	"encoding/binary"
	"fmt"

	"csq/internal/catalog"
	"csq/internal/types"
)

// Expression serialisation.
//
// Pushable predicates and projections have to cross the wire so that the
// client runtime can apply them before returning records (Section 5.1.1,
// option (c) of the paper). The encoding is positional: column references are
// serialised by ordinal into the shipped record schema, so the client can
// evaluate them directly without name resolution; function calls are
// serialised by name and rebound by the client against its own function
// registry with ResolveFunctions.

// MaxDepth bounds the nesting depth of an expression that a decoder of
// untrusted input accepts: Unmarshal here, and the query-language parser.
// Nothing the compiler or the rewriter emits comes near it (a left-deep
// conjunction takes one level per conjunct), while recursion over a tree
// millions of levels deep exhausts the goroutine stack, a fatal error no
// recover can catch.
const MaxDepth = 10000

const (
	tagConst byte = iota + 1
	tagColumn
	tagBinary
	tagUnary
	tagCall
)

// NewBoundColumnRef constructs a column reference already resolved to an
// ordinal, used by plan construction and by the wire decoder.
func NewBoundColumnRef(ordinal int, kind types.Kind) *ColumnRef {
	return &ColumnRef{Name: fmt.Sprintf("$%d", ordinal), Ordinal: ordinal, Kind: kind, bound: true}
}

// Marshal serialises a bound expression to bytes.
func Marshal(e Expr) ([]byte, error) {
	return marshalInto(nil, e)
}

func marshalInto(dst []byte, e Expr) ([]byte, error) {
	switch n := e.(type) {
	case *Const:
		dst = append(dst, tagConst)
		return types.EncodeValue(dst, n.Value)
	case *ColumnRef:
		if !n.Bound() {
			return nil, fmt.Errorf("expr: cannot marshal unbound column %s", n)
		}
		dst = append(dst, tagColumn)
		dst = binary.AppendUvarint(dst, uint64(n.Ordinal))
		dst = append(dst, byte(n.Kind))
		return dst, nil
	case *Binary:
		dst = append(dst, tagBinary, byte(n.Op), byte(n.kind))
		var err error
		if dst, err = marshalInto(dst, n.Left); err != nil {
			return nil, err
		}
		return marshalInto(dst, n.Right)
	case *Unary:
		dst = append(dst, tagUnary, byte(n.Op), byte(n.kind))
		return marshalInto(dst, n.Input)
	case *FuncCall:
		dst = append(dst, tagCall, byte(n.kind))
		dst = binary.AppendUvarint(dst, uint64(len(n.Name)))
		dst = append(dst, n.Name...)
		dst = binary.AppendUvarint(dst, uint64(len(n.Args)))
		var err error
		for _, a := range n.Args {
			if dst, err = marshalInto(dst, a); err != nil {
				return nil, err
			}
		}
		return dst, nil
	default:
		return nil, fmt.Errorf("expr: cannot marshal node %T", e)
	}
}

// Unmarshal deserialises an expression produced by Marshal. Column references
// come back bound to their ordinals; function calls come back unresolved and
// must be passed through ResolveFunctions before evaluation (or be evaluated
// with an Evaluator whose Invoke handles them).
func Unmarshal(src []byte) (Expr, error) {
	e, n, err := unmarshalFrom(src, 1)
	if err != nil {
		return nil, err
	}
	if n != len(src) {
		return nil, fmt.Errorf("expr: %d trailing bytes after expression", len(src)-n)
	}
	return e, nil
}

// unmarshalFrom decodes the expression at the head of src, which sits depth
// levels below the root (the root is level 1).
func unmarshalFrom(src []byte, depth int) (Expr, int, error) {
	if len(src) == 0 {
		return nil, 0, fmt.Errorf("expr: unmarshal: empty input")
	}
	if depth > MaxDepth {
		return nil, 0, fmt.Errorf("expr: unmarshal: expression nested deeper than %d levels", MaxDepth)
	}
	switch src[0] {
	case tagConst:
		v, n, err := types.DecodeValue(src[1:])
		if err != nil {
			return nil, 0, err
		}
		return NewConst(v), 1 + n, nil
	case tagColumn:
		ord, n := binary.Uvarint(src[1:])
		if n <= 0 || 1+n >= len(src) {
			return nil, 0, fmt.Errorf("expr: unmarshal column: truncated")
		}
		kind := types.Kind(src[1+n])
		return NewBoundColumnRef(int(ord), kind), 2 + n, nil
	case tagBinary:
		if len(src) < 3 {
			return nil, 0, fmt.Errorf("expr: unmarshal binary: truncated")
		}
		op, kind := Op(src[1]), types.Kind(src[2])
		left, ln, err := unmarshalFrom(src[3:], depth+1)
		if err != nil {
			return nil, 0, err
		}
		right, rn, err := unmarshalFrom(src[3+ln:], depth+1)
		if err != nil {
			return nil, 0, err
		}
		return &Binary{Op: op, Left: left, Right: right, kind: kind}, 3 + ln + rn, nil
	case tagUnary:
		if len(src) < 3 {
			return nil, 0, fmt.Errorf("expr: unmarshal unary: truncated")
		}
		op, kind := Op(src[1]), types.Kind(src[2])
		in, n, err := unmarshalFrom(src[3:], depth+1)
		if err != nil {
			return nil, 0, err
		}
		return &Unary{Op: op, Input: in, kind: kind}, 3 + n, nil
	case tagCall:
		if len(src) < 2 {
			return nil, 0, fmt.Errorf("expr: unmarshal call: truncated")
		}
		kind := types.Kind(src[1])
		off := 2
		nameLen, n := binary.Uvarint(src[off:])
		if n <= 0 || nameLen > uint64(len(src)-off-n) {
			return nil, 0, fmt.Errorf("expr: unmarshal call: bad name")
		}
		off += n
		name := string(src[off : off+int(nameLen)])
		off += int(nameLen)
		argc, n := binary.Uvarint(src[off:])
		if n <= 0 || argc > 64 {
			return nil, 0, fmt.Errorf("expr: unmarshal call: bad arg count")
		}
		off += n
		args := make([]Expr, 0, argc)
		for i := uint64(0); i < argc; i++ {
			a, an, err := unmarshalFrom(src[off:], depth+1)
			if err != nil {
				return nil, 0, err
			}
			args = append(args, a)
			off += an
		}
		return &FuncCall{Name: name, Args: args, kind: kind}, off, nil
	default:
		return nil, 0, fmt.Errorf("expr: unmarshal: unknown tag %#x", src[0])
	}
}

// ResolveFunctions walks the expression and resolves every FuncCall against
// the given catalog (and the built-in registry), so that a deserialised
// expression becomes evaluable. Columns are left untouched.
func ResolveFunctions(e Expr, cat *catalog.Catalog) error {
	var firstErr error
	Walk(e, func(n Expr) bool {
		f, ok := n.(*FuncCall)
		if !ok || f.Builtin != nil || f.UDF != nil {
			return true
		}
		if cat != nil {
			if udf, err := cat.UDF(f.Name); err == nil {
				f.UDF = udf
				if f.kind == types.KindInvalid {
					f.kind = udf.ResultKind
				}
				return true
			}
		}
		if bi, ok := LookupBuiltin(f.Name); ok {
			f.Builtin = bi
			return true
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("expr: unresolved function %q", f.Name)
		}
		return true
	})
	return firstErr
}
