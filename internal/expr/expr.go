// Package expr implements scalar expressions: the AST produced by the SQL
// front end, name binding against a schema and catalog, evaluation against
// tuples, and the analyses the optimizer and the client-site execution
// operators need (which columns an expression touches, which client-site UDFs
// it calls, and whether a predicate or projection is pushable to the client).
package expr

import (
	"fmt"
	"strings"

	"csq/internal/catalog"
	"csq/internal/types"
)

// Op identifies a unary or binary operator.
type Op uint8

// Binary and unary operators.
const (
	OpInvalid Op = iota
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpNot
	OpNeg
)

// String returns the SQL spelling of the operator.
func (o Op) String() string {
	switch o {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	case OpNot:
		return "NOT"
	case OpNeg:
		return "-"
	default:
		return "?"
	}
}

// IsComparison reports whether the operator is a comparison.
func (o Op) IsComparison() bool {
	switch o {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return true
	}
	return false
}

// Holds reports whether a comparison that came out as c (as types.Compare
// returns it) satisfies the comparison operator o.
func (o Op) Holds(c int) bool {
	switch o {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	default: // OpGe
		return c >= 0
	}
}

// Expr is a scalar expression node. Expressions are built unbound (column
// references hold names) and must be bound against a schema before evaluation.
type Expr interface {
	fmt.Stringer
	// ResultKind returns the kind the expression evaluates to. It is only
	// meaningful after Bind.
	ResultKind() types.Kind
	// children returns the direct sub-expressions; used by the tree walkers.
	children() []Expr
}

// Const is a literal value.
type Const struct {
	Value types.Value
}

// NewConst returns a literal expression.
func NewConst(v types.Value) *Const { return &Const{Value: v} }

// ResultKind implements Expr.
func (c *Const) ResultKind() types.Kind { return c.Value.Kind() }

// String implements fmt.Stringer.
func (c *Const) String() string {
	if c.Value.Kind() == types.KindString && !c.Value.IsNull() {
		return "'" + c.Value.String() + "'"
	}
	return c.Value.String()
}

func (c *Const) children() []Expr { return nil }

// ColumnRef references a column by name; Bind resolves it to an ordinal.
type ColumnRef struct {
	Name string

	// Ordinal is the resolved position in the input schema; -1 before Bind.
	Ordinal int
	// Kind is the resolved column kind.
	Kind  types.Kind
	bound bool
}

// BindColumnRef returns a pre-bound column reference carrying a display
// name; front ends that resolve ordinals themselves use it so plans render
// source-level names instead of "$N".
func BindColumnRef(name string, ordinal int, kind types.Kind) *ColumnRef {
	return &ColumnRef{Name: name, Ordinal: ordinal, Kind: kind, bound: true}
}

// ResultKind implements Expr.
func (c *ColumnRef) ResultKind() types.Kind { return c.Kind }

// Bound reports whether the reference has been resolved to an ordinal.
func (c *ColumnRef) Bound() bool { return c.bound }

// String implements fmt.Stringer.
func (c *ColumnRef) String() string { return c.Name }

func (c *ColumnRef) children() []Expr { return nil }

// Binary is a binary operation.
type Binary struct {
	Op          Op
	Left, Right Expr
	kind        types.Kind
}

// NewBinary returns a binary operation node.
func NewBinary(op Op, left, right Expr) *Binary {
	return &Binary{Op: op, Left: left, Right: right}
}

// ResultKind implements Expr.
func (b *Binary) ResultKind() types.Kind { return b.kind }

// String implements fmt.Stringer.
func (b *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.Left, b.Op, b.Right)
}

func (b *Binary) children() []Expr { return []Expr{b.Left, b.Right} }

// Unary is a unary operation (NOT, negation).
type Unary struct {
	Op    Op
	Input Expr
	kind  types.Kind
}

// NewUnary returns a unary operation node.
func NewUnary(op Op, input Expr) *Unary { return &Unary{Op: op, Input: input} }

// ResultKind implements Expr.
func (u *Unary) ResultKind() types.Kind { return u.kind }

// String implements fmt.Stringer.
func (u *Unary) String() string {
	if u.Op == OpNot {
		return fmt.Sprintf("(NOT %s)", u.Input)
	}
	return fmt.Sprintf("(-%s)", u.Input)
}

func (u *Unary) children() []Expr { return []Expr{u.Input} }

// FuncCall is a call to a built-in function or a UDF. After Bind, UDF points
// at the catalog entry when the function is a UDF; Builtin holds the
// implementation when it is a built-in.
type FuncCall struct {
	Name string
	Args []Expr

	// UDF is the resolved catalog UDF, nil for built-ins.
	UDF *catalog.UDF
	// Builtin is the resolved built-in implementation, nil for UDFs.
	Builtin *BuiltinFunc
	kind    types.Kind
}

// NewFuncCall returns an unbound function-call node.
func NewFuncCall(name string, args ...Expr) *FuncCall {
	return &FuncCall{Name: name, Args: args}
}

// ResultKind implements Expr.
func (f *FuncCall) ResultKind() types.Kind { return f.kind }

// IsClientSite reports whether the call resolves to a catalog UDF, all of
// which run at the client, rather than to a built-in.
func (f *FuncCall) IsClientSite() bool { return f.UDF != nil }

// String implements fmt.Stringer.
func (f *FuncCall) String() string {
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", f.Name, strings.Join(args, ", "))
}

func (f *FuncCall) children() []Expr { return f.Args }

// Walk visits every node of the expression tree in pre-order. The visitor may
// return false to skip a node's children.
func Walk(e Expr, visit func(Expr) bool) {
	if e == nil {
		return
	}
	if !visit(e) {
		return
	}
	for _, c := range e.children() {
		Walk(c, visit)
	}
}

// Columns returns the distinct ordinals of all bound column references in the
// expression, in ascending order.
func Columns(e Expr) []int {
	seen := map[int]bool{}
	Walk(e, func(n Expr) bool {
		if c, ok := n.(*ColumnRef); ok && c.Bound() {
			seen[c.Ordinal] = true
		}
		return true
	})
	out := make([]int, 0, len(seen))
	for i := range seen {
		out = append(out, i)
	}
	sortInts(out)
	return out
}

// ClientCalls returns every client-site UDF call in the expression, in
// pre-order.
func ClientCalls(e Expr) []*FuncCall {
	var out []*FuncCall
	Walk(e, func(n Expr) bool {
		if f, ok := n.(*FuncCall); ok && f.IsClientSite() {
			out = append(out, f)
		}
		return true
	})
	return out
}

// HasClientCall reports whether the expression contains a client-site UDF.
func HasClientCall(e Expr) bool { return len(ClientCalls(e)) > 0 }

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
