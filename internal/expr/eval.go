package expr

import (
	"fmt"

	"csq/internal/types"
)

// UDFInvoker evaluates a UDF call when the evaluator reaches a FuncCall whose
// body is not locally available. The client runtime installs one that calls
// its registered Go bodies; without one, a UDF call fails loudly (a
// client-site UDF reached by a server-side evaluator is a planning bug).
type UDFInvoker func(name string, args []types.Value) (types.Value, error)

// Evaluator evaluates bound expressions against tuples.
type Evaluator struct {
	// Invoke handles UDF calls that have no locally registered body. When nil,
	// such calls produce an error.
	Invoke UDFInvoker
}

// Eval evaluates a bound expression against the tuple.
func (ev *Evaluator) Eval(e Expr, t types.Tuple) (types.Value, error) {
	switch n := e.(type) {
	case *Const:
		return n.Value, nil
	case *ColumnRef:
		if !n.Bound() {
			return types.Value{}, fmt.Errorf("expr: evaluating unbound column %s", n)
		}
		if n.Ordinal < 0 || n.Ordinal >= len(t) {
			return types.Value{}, fmt.Errorf("expr: column ordinal %d out of range for tuple of %d", n.Ordinal, len(t))
		}
		return t[n.Ordinal], nil
	case *Unary:
		return ev.evalUnary(n, t)
	case *Binary:
		return ev.evalBinary(n, t)
	case *FuncCall:
		return ev.evalCall(n, t)
	default:
		return types.Value{}, fmt.Errorf("expr: cannot evaluate node %T", e)
	}
}

// EvalBool evaluates a predicate expression to a boolean (SQL three-valued
// logic collapses NULL to false).
func (ev *Evaluator) EvalBool(e Expr, t types.Tuple) (bool, error) {
	v, err := ev.Eval(e, t)
	if err != nil {
		return false, err
	}
	return v.Truth()
}

func (ev *Evaluator) evalUnary(n *Unary, t types.Tuple) (types.Value, error) {
	v, err := ev.Eval(n.Input, t)
	if err != nil {
		return types.Value{}, err
	}
	switch n.Op {
	case OpNot:
		if v.IsNull() {
			return types.Null(types.KindBool), nil
		}
		b, err := v.Truth()
		if err != nil {
			return types.Value{}, err
		}
		return types.NewBool(!b), nil
	case OpNeg:
		if v.IsNull() {
			return v, nil
		}
		switch v.Kind() {
		case types.KindInt:
			i, _ := v.Int()
			return types.NewInt(-i), nil
		case types.KindFloat:
			f, _ := v.Float()
			return types.NewFloat(-f), nil
		default:
			return types.Value{}, fmt.Errorf("expr: cannot negate %s", v.Kind())
		}
	default:
		return types.Value{}, fmt.Errorf("expr: bad unary op %s", n.Op)
	}
}

func (ev *Evaluator) evalBinary(n *Binary, t types.Tuple) (types.Value, error) {
	// AND/OR get short-circuit evaluation; this matters because the right
	// operand may contain an expensive (or client-site) UDF.
	if n.Op == OpAnd || n.Op == OpOr {
		l, err := ev.Eval(n.Left, t)
		if err != nil {
			return types.Value{}, err
		}
		lb, err := l.Truth()
		if err != nil {
			return types.Value{}, err
		}
		if n.Op == OpAnd && !lb {
			return types.NewBool(false), nil
		}
		if n.Op == OpOr && lb {
			return types.NewBool(true), nil
		}
		r, err := ev.Eval(n.Right, t)
		if err != nil {
			return types.Value{}, err
		}
		rb, err := r.Truth()
		if err != nil {
			return types.Value{}, err
		}
		return types.NewBool(rb), nil
	}

	l, err := ev.Eval(n.Left, t)
	if err != nil {
		return types.Value{}, err
	}
	r, err := ev.Eval(n.Right, t)
	if err != nil {
		return types.Value{}, err
	}
	if n.Op.IsComparison() {
		if l.IsNull() || r.IsNull() {
			return types.Null(types.KindBool), nil
		}
		c, err := types.Compare(l, r)
		if err != nil {
			return types.Value{}, err
		}
		return types.NewBool(n.Op.Holds(c)), nil
	}
	return evalArithmetic(n.Op, l, r)
}

func evalArithmetic(op Op, l, r types.Value) (types.Value, error) {
	if l.IsNull() || r.IsNull() {
		return types.Null(types.KindFloat), nil
	}
	if l.Kind() == types.KindInt && r.Kind() == types.KindInt {
		a, _ := l.Int()
		b, _ := r.Int()
		switch op {
		case OpAdd:
			return types.NewInt(a + b), nil
		case OpSub:
			return types.NewInt(a - b), nil
		case OpMul:
			return types.NewInt(a * b), nil
		case OpDiv:
			if b == 0 {
				return types.Value{}, fmt.Errorf("expr: integer division by zero")
			}
			return types.NewInt(a / b), nil
		}
	}
	a, err := l.Float()
	if err != nil {
		return types.Value{}, fmt.Errorf("expr: %s: %w", op, err)
	}
	b, err := r.Float()
	if err != nil {
		return types.Value{}, fmt.Errorf("expr: %s: %w", op, err)
	}
	switch op {
	case OpAdd:
		return types.NewFloat(a + b), nil
	case OpSub:
		return types.NewFloat(a - b), nil
	case OpMul:
		return types.NewFloat(a * b), nil
	case OpDiv:
		if b == 0 {
			return types.Value{}, fmt.Errorf("expr: division by zero")
		}
		return types.NewFloat(a / b), nil
	default:
		return types.Value{}, fmt.Errorf("expr: bad arithmetic op %s", op)
	}
}

func (ev *Evaluator) evalCall(n *FuncCall, t types.Tuple) (types.Value, error) {
	args := make([]types.Value, len(n.Args))
	for i, a := range n.Args {
		v, err := ev.Eval(a, t)
		if err != nil {
			return types.Value{}, err
		}
		args[i] = v
	}
	switch {
	case n.Builtin != nil:
		return n.Builtin.Eval(args)
	case ev.Invoke != nil:
		return ev.Invoke(n.Name, args)
	default:
		return types.Value{}, fmt.Errorf("expr: no implementation available for function %q at this site", n.Name)
	}
}
