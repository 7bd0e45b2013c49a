package expr

import (
	"fmt"

	"csq/internal/catalog"
	"csq/internal/types"
)

// Binder resolves names in expressions: column references against a schema,
// function calls against the catalog's UDFs and the built-in registry.
type Binder struct {
	// Schema is the input schema expressions are evaluated against.
	Schema *types.Schema
	// Catalog resolves UDF names; it may be nil when only built-ins and
	// columns are expected.
	Catalog *catalog.Catalog
}

// NewBinder returns a binder for the given schema and catalog.
func NewBinder(schema *types.Schema, cat *catalog.Catalog) *Binder {
	return &Binder{Schema: schema, Catalog: cat}
}

// Bind resolves all names in the expression in place and computes result
// kinds. It returns the expression for convenience.
func (b *Binder) Bind(e Expr) (Expr, error) {
	if e == nil {
		return nil, fmt.Errorf("expr: cannot bind nil expression")
	}
	switch n := e.(type) {
	case *Const:
		return n, nil
	case *ColumnRef:
		if n.bound {
			return n, nil
		}
		ord, err := b.Schema.Ordinal(n.Name)
		if err != nil {
			return nil, err
		}
		n.Ordinal = ord
		n.Kind = b.Schema.Columns[ord].Kind
		n.bound = true
		return n, nil
	case *Unary:
		if _, err := b.Bind(n.Input); err != nil {
			return nil, err
		}
		switch n.Op {
		case OpNot:
			n.kind = types.KindBool
		case OpNeg:
			k := n.Input.ResultKind()
			if !k.Numeric() && k != types.KindNull {
				return nil, fmt.Errorf("expr: cannot negate %s", k)
			}
			n.kind = k
		default:
			return nil, fmt.Errorf("expr: invalid unary operator %s", n.Op)
		}
		return n, nil
	case *Binary:
		if _, err := b.Bind(n.Left); err != nil {
			return nil, err
		}
		if _, err := b.Bind(n.Right); err != nil {
			return nil, err
		}
		lk, rk := n.Left.ResultKind(), n.Right.ResultKind()
		switch {
		case n.Op.IsComparison():
			if err := checkComparable(lk, rk); err != nil {
				return nil, err
			}
			n.kind = types.KindBool
		case n.Op == OpAnd || n.Op == OpOr:
			n.kind = types.KindBool
		case n.Op == OpAdd || n.Op == OpSub || n.Op == OpMul || n.Op == OpDiv:
			k, err := arithmeticKind(lk, rk)
			if err != nil {
				return nil, fmt.Errorf("expr: %s: %w", n.Op, err)
			}
			n.kind = k
		default:
			return nil, fmt.Errorf("expr: invalid binary operator %s", n.Op)
		}
		return n, nil
	case *FuncCall:
		for _, a := range n.Args {
			if _, err := b.Bind(a); err != nil {
				return nil, err
			}
		}
		// UDFs take priority over built-ins so that users can shadow them.
		if b.Catalog != nil {
			if udf, err := b.Catalog.UDF(n.Name); err == nil {
				if len(udf.ArgKinds) > 0 && len(udf.ArgKinds) != len(n.Args) {
					return nil, fmt.Errorf("expr: %s expects %d arguments, got %d", udf.Name, len(udf.ArgKinds), len(n.Args))
				}
				n.UDF = udf
				n.kind = udf.ResultKind
				return n, nil
			}
		}
		if bi, ok := LookupBuiltin(n.Name); ok {
			if len(n.Args) < bi.MinArgs || len(n.Args) > bi.MaxArgs {
				return nil, fmt.Errorf("expr: %s expects between %d and %d arguments, got %d",
					bi.Name, bi.MinArgs, bi.MaxArgs, len(n.Args))
			}
			kinds := make([]types.Kind, len(n.Args))
			for i, a := range n.Args {
				kinds[i] = a.ResultKind()
			}
			rk, err := bi.ResultKind(kinds)
			if err != nil {
				return nil, fmt.Errorf("expr: %s: %w", bi.Name, err)
			}
			n.Builtin = bi
			n.kind = rk
			return n, nil
		}
		return nil, fmt.Errorf("expr: unknown function %q", n.Name)
	default:
		return nil, fmt.Errorf("expr: unknown expression node %T", e)
	}
}

// CheckComparable reports whether values of the two kinds may appear on the
// two sides of a comparison operator. Front ends use it to type-check
// comparisons before binding.
func CheckComparable(a, b types.Kind) error { return checkComparable(a, b) }

// ArithmeticKind returns the result kind of an arithmetic operator over
// operands of the two kinds. Front ends use it to type-check arithmetic
// before binding.
func ArithmeticKind(a, b types.Kind) (types.Kind, error) { return arithmeticKind(a, b) }

func checkComparable(a, bK types.Kind) error {
	if a == types.KindNull || bK == types.KindNull {
		return nil
	}
	if a.Numeric() && bK.Numeric() {
		return nil
	}
	if a != bK {
		return fmt.Errorf("expr: cannot compare %s with %s", a, bK)
	}
	if !a.Comparable() && a != types.KindTimeSeries {
		return fmt.Errorf("expr: %s is not comparable", a)
	}
	return nil
}

func arithmeticKind(a, bK types.Kind) (types.Kind, error) {
	if a == types.KindNull {
		a = bK
	}
	if bK == types.KindNull {
		bK = a
	}
	if !a.Numeric() || !bK.Numeric() {
		return types.KindInvalid, fmt.Errorf("operands %s and %s are not numeric", a, bK)
	}
	if a == types.KindFloat || bK == types.KindFloat {
		return types.KindFloat, nil
	}
	return types.KindInt, nil
}
