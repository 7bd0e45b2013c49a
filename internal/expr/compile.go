package expr

import "csq/internal/types"

// Predicate is a bound predicate compiled for repeated evaluation: it returns
// what Evaluator.EvalBool returns for the expression it was compiled from.
type Predicate func(types.Tuple) (bool, error)

// CompilePredicate compiles a bound predicate once into a closure tree with
// the same results as ev.EvalBool(e, t): the same bool, and an error exactly
// when EvalBool fails. AND and OR short-circuit in the closures, and a
// comparison of a column with a non-NULL constant, in either order, reads the
// column and compares it directly. Every other node is evaluated by ev, which
// stays the reference implementation. A nil expression accepts every tuple.
func CompilePredicate(ev *Evaluator, e Expr) Predicate {
	if e == nil {
		return func(types.Tuple) (bool, error) { return true, nil }
	}
	return compilePredicate(ev, e)
}

func compilePredicate(ev *Evaluator, e Expr) Predicate {
	b, ok := e.(*Binary)
	if !ok {
		return func(t types.Tuple) (bool, error) { return ev.EvalBool(e, t) }
	}
	switch {
	case b.Op == OpAnd:
		l, r := compilePredicate(ev, b.Left), compilePredicate(ev, b.Right)
		return func(t types.Tuple) (bool, error) {
			if ok, err := l(t); !ok || err != nil {
				return false, err
			}
			return r(t)
		}
	case b.Op == OpOr:
		l, r := compilePredicate(ev, b.Left), compilePredicate(ev, b.Right)
		return func(t types.Tuple) (bool, error) {
			ok, err := l(t)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
			return r(t)
		}
	case b.Op.IsComparison():
		if p := compileColConst(ev, b); p != nil {
			return p
		}
	}
	return func(t types.Tuple) (bool, error) { return ev.EvalBool(b, t) }
}

// compileColConst compiles a comparison of a bound column with a non-NULL
// constant, or returns nil when b is not one. The operands are compared in
// their written order, so even the error a kind mismatch reports is the
// Evaluator's.
func compileColConst(ev *Evaluator, b *Binary) Predicate {
	col, k, constLeft := b.Left, b.Right, false
	if _, ok := col.(*ColumnRef); !ok {
		col, k, constLeft = b.Right, b.Left, true
	}
	c, ok := col.(*ColumnRef)
	if !ok || !c.Bound() || c.Ordinal < 0 {
		return nil
	}
	kc, ok := k.(*Const)
	if !ok || kc.Value.IsNull() {
		return nil
	}
	ord, konst, op := c.Ordinal, kc.Value, b.Op
	return func(t types.Tuple) (bool, error) {
		if ord >= len(t) {
			return ev.EvalBool(b, t) // reports the ordinal as the Evaluator does
		}
		v := t[ord]
		if v.IsNull() {
			return false, nil
		}
		var cmp int
		var err error
		if constLeft {
			cmp, err = types.Compare(konst, v)
		} else {
			cmp, err = types.Compare(v, konst)
		}
		return err == nil && op.Holds(cmp), err
	}
}
