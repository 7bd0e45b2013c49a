package expr

import (
	"csq/internal/types"
)

// Analysis helpers used by the planner and by the client-site execution
// operators. The paper's notions are:
//
//   - "pushable predicates": simple predicates that rely on the values of the
//     UDF result columns (or on other columns shipped to the client) and can
//     therefore be applied on the client before anything is returned to the
//     server (Section 2, terminology; Section 5.1.1 option (c)).
//   - "pushable projections": projections that can be applied immediately
//     after the UDF on the client, reducing the returned record width.

// Conjuncts splits a predicate into its top-level AND-ed conjuncts.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		return append(Conjuncts(b.Left), Conjuncts(b.Right)...)
	}
	return []Expr{e}
}

// Conjoin combines expressions with AND, returning nil for an empty slice and
// the sole element for a singleton.
func Conjoin(es []Expr) Expr {
	var out Expr
	for _, e := range es {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
			continue
		}
		b := &Binary{Op: OpAnd, Left: out, Right: e, kind: types.KindBool}
		out = b
	}
	return out
}

// SplitColConstComparison recognizes a comparison between a bound column
// reference and a constant, in either operand order. It returns the column
// ordinal, the constant, and the operator normalized so the column sits on the
// left (`5 < col` becomes `col > 5`). Such conjuncts are the ones a zone map
// can evaluate against segment min/max bounds.
func SplitColConstComparison(b *Binary) (col int, val types.Value, op Op, ok bool) {
	if b == nil || !b.Op.IsComparison() {
		return 0, types.Value{}, 0, false
	}
	if c, isCol := b.Left.(*ColumnRef); isCol && c.Bound() {
		if k, isConst := b.Right.(*Const); isConst {
			return c.Ordinal, k.Value, b.Op, true
		}
	}
	if c, isCol := b.Right.(*ColumnRef); isCol && c.Bound() {
		if k, isConst := b.Left.(*Const); isConst {
			return c.Ordinal, k.Value, mirrorComparison(b.Op), true
		}
	}
	return 0, types.Value{}, 0, false
}

// mirrorComparison flips a comparison operator across its operands.
func mirrorComparison(op Op) Op {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default: // OpEq, OpNe are symmetric
		return op
	}
}

// PushableToClient reports whether the bound expression can be evaluated at
// the client given the set of input-column ordinals that will be present at
// the client (availableCols) and the names of the client-site UDFs whose
// results will be available there (availableUDFResults).
//
// An expression is pushable when every column it reads is available, every
// client-site UDF it calls is in availableUDFResults (or will be evaluated as
// part of the same client round trip), and every other function it calls is
// a built-in.
func PushableToClient(e Expr, availableCols map[int]bool, availableUDFResults map[string]bool) bool {
	ok := true
	Walk(e, func(n Expr) bool {
		switch c := n.(type) {
		case *ColumnRef:
			if !c.Bound() || !availableCols[c.Ordinal] {
				ok = false
			}
		case *FuncCall:
			if c.Builtin != nil {
				return true
			}
			if c.UDF == nil {
				ok = false
				return false
			}
			if availableUDFResults != nil && !availableUDFResults[lower(c.Name)] {
				ok = false
			}
			return true
		}
		return true
	})
	return ok
}

// ServerOnly reports whether the expression can be evaluated entirely at the
// server, i.e. it contains no client-site UDF call.
func ServerOnly(e Expr) bool { return !HasClientCall(e) }

// EstimateSelectivity returns a heuristic selectivity for a bound predicate,
// mirroring the classic System-R defaults. Client-site UDF predicates use the
// selectivity declared in the catalog when present.
func EstimateSelectivity(e Expr) float64 {
	if e == nil {
		return 1
	}
	switch n := e.(type) {
	case *Const:
		if b, err := n.Value.Truth(); err == nil {
			if b {
				return 1
			}
			return 0
		}
		return 1
	case *ColumnRef:
		// A bare boolean column used as a predicate (typically the returned
		// result of a boolean client-site UDF): no information, assume half.
		if n.ResultKind() == types.KindBool {
			return 0.5
		}
		return 1
	case *Binary:
		switch {
		case n.Op == OpAnd:
			return clamp01(EstimateSelectivity(n.Left) * EstimateSelectivity(n.Right))
		case n.Op == OpOr:
			l, r := EstimateSelectivity(n.Left), EstimateSelectivity(n.Right)
			return clamp01(l + r - l*r)
		case n.Op == OpEq:
			if s, ok := udfPredicateSelectivity(n.Left); ok {
				return s
			}
			if s, ok := udfPredicateSelectivity(n.Right); ok {
				return s
			}
			return 0.1
		case n.Op == OpNe:
			return 0.9
		case n.Op.IsComparison():
			if s, ok := udfPredicateSelectivity(n.Left); ok {
				return s
			}
			if s, ok := udfPredicateSelectivity(n.Right); ok {
				return s
			}
			return 1.0 / 3.0
		default:
			return 1
		}
	case *Unary:
		if n.Op == OpNot {
			return clamp01(1 - EstimateSelectivity(n.Input))
		}
		return 1
	case *FuncCall:
		if n.UDF != nil && n.UDF.ResultKind == types.KindBool && n.UDF.Selectivity > 0 {
			return n.UDF.Selectivity
		}
		if n.ResultKind() == types.KindBool {
			return 0.5
		}
		return 1
	default:
		return 1
	}
}

// udfPredicateSelectivity returns the declared selectivity when the operand is
// a direct UDF call with catalog selectivity metadata.
func udfPredicateSelectivity(e Expr) (float64, bool) {
	f, ok := e.(*FuncCall)
	if !ok || f.UDF == nil || f.UDF.Selectivity <= 0 {
		return 0, false
	}
	return f.UDF.Selectivity, true
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// KindSize returns the default encoded-size estimate for a value of the given
// kind, used when no catalog metadata or sampled sizes are available.
func KindSize(k types.Kind) int { return kindSize(k) }

func kindSize(k types.Kind) int {
	switch k {
	case types.KindInt, types.KindFloat:
		return 10
	case types.KindBool:
		return 3
	case types.KindString:
		return 24
	case types.KindBytes, types.KindTimeSeries:
		return 256
	default:
		return 8
	}
}
