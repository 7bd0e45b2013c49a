package expr

import (
	"fmt"
)

// Column-reference rewriting helpers used by the logical-plan rewriter: when a
// predicate moves through a projection, into one side of a join, or across a
// pruned UDF application, its bound ordinals must be re-expressed against the
// schema of its new position. Expressions are treated as immutable here —
// every helper returns a fresh tree and leaves its input untouched, matching
// the logical layer's copy-on-write ownership rules.

// Clone returns a deep copy of the expression. Bound state (ordinals, result
// kinds, resolved UDFs and built-ins) is preserved; resolved catalog pointers
// are shared, not copied, since catalog entries are immutable metadata.
func Clone(e Expr) Expr {
	if e == nil {
		return nil
	}
	switch n := e.(type) {
	case *Const:
		c := *n
		return &c
	case *ColumnRef:
		c := *n
		return &c
	case *Binary:
		c := *n
		c.Left = Clone(n.Left)
		c.Right = Clone(n.Right)
		return &c
	case *Unary:
		c := *n
		c.Input = Clone(n.Input)
		return &c
	case *FuncCall:
		c := *n
		c.Args = make([]Expr, len(n.Args))
		for i, a := range n.Args {
			c.Args[i] = Clone(a)
		}
		return &c
	default:
		// Unknown node types cannot be cloned safely; returning the original
		// keeps evaluation correct at the price of shared structure.
		return e
	}
}

// RemapColumns returns a copy of e with every bound column ordinal rewritten
// through the mapping. An ordinal absent from the mapping is an error: the
// caller asked to move the expression somewhere one of its inputs does not
// exist.
func RemapColumns(e Expr, mapping map[int]int) (Expr, error) {
	if e == nil {
		return nil, nil
	}
	out := Clone(e)
	var missing int
	ok := true
	Walk(out, func(n Expr) bool {
		c, isRef := n.(*ColumnRef)
		if !isRef || !c.Bound() {
			return true
		}
		to, have := mapping[c.Ordinal]
		if !have {
			if ok {
				ok = false
				missing = c.Ordinal
			}
			return false
		}
		setOrdinal(c, to)
		return true
	})
	if !ok {
		return nil, fmt.Errorf("expr: cannot remap %s: ordinal %d has no image", e, missing)
	}
	return out, nil
}

// ShiftColumns returns a copy of e with every bound ordinal in [lo, ∞)
// shifted by delta. It is the common remapping when columns are inserted or
// removed before a block of references (e.g. UDF result columns after the
// input block shrinks).
func ShiftColumns(e Expr, lo, delta int) Expr {
	if e == nil {
		return nil
	}
	out := Clone(e)
	Walk(out, func(n Expr) bool {
		if c, ok := n.(*ColumnRef); ok && c.Bound() && c.Ordinal >= lo {
			setOrdinal(c, c.Ordinal+delta)
		}
		return true
	})
	return out
}

// setOrdinal rewrites a reference's ordinal, refreshing the synthetic
// "$<ordinal>" display name NewBoundColumnRef gives nameless references so
// that EXPLAIN renderings show the reference's actual position.
func setOrdinal(c *ColumnRef, to int) {
	if c.Name == fmt.Sprintf("$%d", c.Ordinal) {
		c.Name = fmt.Sprintf("$%d", to)
	}
	c.Ordinal = to
}

// MaxColumn returns the largest bound column ordinal referenced by the
// expression, or -1 when it references none.
func MaxColumn(e Expr) int {
	max := -1
	Walk(e, func(n Expr) bool {
		if c, ok := n.(*ColumnRef); ok && c.Bound() && c.Ordinal > max {
			max = c.Ordinal
		}
		return true
	})
	return max
}

// ReferencesOnly reports whether every bound column the expression reads is
// inside [0, width).
func ReferencesOnly(e Expr, width int) bool {
	ok := true
	Walk(e, func(n Expr) bool {
		if c, isRef := n.(*ColumnRef); isRef && c.Bound() && (c.Ordinal < 0 || c.Ordinal >= width) {
			ok = false
			return false
		}
		return true
	})
	return ok
}
