package expr

import (
	"strings"
	"testing"

	"csq/internal/catalog"
	"csq/internal/types"
	"csq/internal/wire"
)

// testSchema mirrors the paper's StockQuotes relation.
func testSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Qualifier: "S", Name: "Name", Kind: types.KindString},
		types.Column{Qualifier: "S", Name: "Change", Kind: types.KindFloat},
		types.Column{Qualifier: "S", Name: "Close", Kind: types.KindFloat},
		types.Column{Qualifier: "S", Name: "Quotes", Kind: types.KindTimeSeries},
		types.Column{Qualifier: "S", Name: "Report", Kind: types.KindBytes},
	)
}

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	_, err := cat.RegisterClientUDF(&wire.RegisterUDF{
		Name:        "ClientAnalysis",
		ArgKinds:    []types.Kind{types.KindTimeSeries},
		ResultKind:  types.KindInt,
		ResultSize:  100,
		Selectivity: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// colRef returns an unbound column reference.
func colRef(name string) *ColumnRef {
	return &ColumnRef{Name: name, Ordinal: -1}
}

// MustBind binds e and panics on error.
func (b *Binder) MustBind(e Expr) Expr {
	out, err := b.Bind(e)
	if err != nil {
		panic(err)
	}
	return out
}

func testTuple() types.Tuple {
	return types.NewTuple(
		types.NewString("ACME"),
		types.NewFloat(5),
		types.NewFloat(20),
		types.NewTimeSeries(types.TimeSeries{10, 11, 12}),
		types.NewBytes([]byte("report")),
	)
}

func bindOK(t *testing.T, e Expr) Expr {
	t.Helper()
	b := NewBinder(testSchema(), testCatalog(t))
	out, err := b.Bind(e)
	if err != nil {
		t.Fatalf("Bind(%s): %v", e, err)
	}
	return out
}

func TestBindColumnRef(t *testing.T) {
	c := colRef("Quotes")
	bindOK(t, c)
	if !c.Bound() || c.Ordinal != 3 || c.Kind != types.KindTimeSeries {
		t.Errorf("bound column = %+v", c)
	}
	bad := colRef("Nope")
	b := NewBinder(testSchema(), nil)
	if _, err := b.Bind(bad); err == nil {
		t.Error("binding unknown column should fail")
	}
}

func TestBindArithmeticAndComparison(t *testing.T) {
	// S.Change / S.Close > 0.2  — the paper's uptick predicate.
	e := NewBinary(OpGt,
		NewBinary(OpDiv, colRef("Change"), colRef("Close")),
		NewConst(types.NewFloat(0.2)))
	bindOK(t, e)
	if e.ResultKind() != types.KindBool {
		t.Errorf("comparison kind = %v", e.ResultKind())
	}
	ev := &Evaluator{}
	got, err := ev.EvalBool(e, testTuple())
	if err != nil || !got {
		t.Errorf("uptick predicate = %v, %v (want true)", got, err)
	}

	// Mixing string with float in arithmetic must fail to bind.
	bad := NewBinary(OpAdd, colRef("Name"), NewConst(types.NewFloat(1)))
	b := NewBinder(testSchema(), nil)
	if _, err := b.Bind(bad); err == nil {
		t.Error("string+float should fail to bind")
	}
	// Comparing string with float must fail to bind.
	bad2 := NewBinary(OpLt, colRef("Name"), NewConst(types.NewFloat(1)))
	if _, err := b.Bind(bad2); err == nil {
		t.Error("string<float should fail to bind")
	}
}

func TestBindFunctions(t *testing.T) {
	udfCall := NewFuncCall("ClientAnalysis", colRef("Quotes"))
	bindOK(t, udfCall)
	if udfCall.UDF == nil || !udfCall.IsClientSite() || udfCall.ResultKind() != types.KindInt {
		t.Errorf("UDF call not resolved: %+v", udfCall)
	}
	builtinCall := NewFuncCall("ts_last", colRef("Quotes"))
	bindOK(t, builtinCall)
	if builtinCall.Builtin == nil || builtinCall.ResultKind() != types.KindFloat {
		t.Errorf("builtin call not resolved: %+v", builtinCall)
	}
	unknown := NewFuncCall("NoSuchFunc")
	b := NewBinder(testSchema(), testCatalog(t))
	if _, err := b.Bind(unknown); err == nil {
		t.Error("unknown function should fail to bind")
	}
	wrongArity := NewFuncCall("ClientAnalysis")
	if _, err := b.Bind(wrongArity); err == nil {
		t.Error("wrong UDF arity should fail to bind")
	}
	wrongBuiltinArity := NewFuncCall("abs")
	if _, err := b.Bind(wrongBuiltinArity); err == nil {
		t.Error("wrong builtin arity should fail to bind")
	}
}

func TestEvalOperators(t *testing.T) {
	ev := &Evaluator{}
	tup := testTuple()
	cases := []struct {
		name string
		e    Expr
		want types.Value
	}{
		{"add", NewBinary(OpAdd, NewConst(types.NewInt(2)), NewConst(types.NewInt(3))), types.NewInt(5)},
		{"sub", NewBinary(OpSub, NewConst(types.NewInt(2)), NewConst(types.NewInt(3))), types.NewInt(-1)},
		{"mul float", NewBinary(OpMul, NewConst(types.NewFloat(2.5)), NewConst(types.NewInt(2))), types.NewFloat(5)},
		{"div int", NewBinary(OpDiv, NewConst(types.NewInt(7)), NewConst(types.NewInt(2))), types.NewInt(3)},
		{"eq", NewBinary(OpEq, NewConst(types.NewInt(2)), NewConst(types.NewFloat(2))), types.NewBool(true)},
		{"ne", NewBinary(OpNe, NewConst(types.NewInt(2)), NewConst(types.NewInt(2))), types.NewBool(false)},
		{"le", NewBinary(OpLe, NewConst(types.NewInt(2)), NewConst(types.NewInt(2))), types.NewBool(true)},
		{"ge", NewBinary(OpGe, NewConst(types.NewInt(1)), NewConst(types.NewInt(2))), types.NewBool(false)},
		{"and", NewBinary(OpAnd, NewConst(types.NewBool(true)), NewConst(types.NewBool(false))), types.NewBool(false)},
		{"or", NewBinary(OpOr, NewConst(types.NewBool(false)), NewConst(types.NewBool(true))), types.NewBool(true)},
		{"not", NewUnary(OpNot, NewConst(types.NewBool(false))), types.NewBool(true)},
		{"neg int", NewUnary(OpNeg, NewConst(types.NewInt(4))), types.NewInt(-4)},
		{"neg float", NewUnary(OpNeg, NewConst(types.NewFloat(1.5))), types.NewFloat(-1.5)},
	}
	b := NewBinder(testSchema(), nil)
	for _, c := range cases {
		if _, err := b.Bind(c.e); err != nil {
			t.Errorf("%s: bind: %v", c.name, err)
			continue
		}
		got, err := ev.Eval(c.e, tup)
		if err != nil {
			t.Errorf("%s: eval: %v", c.name, err)
			continue
		}
		if cmp, err := types.Compare(got, c.want); err != nil || cmp != 0 || got.IsNull() {
			t.Errorf("%s = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestEvalErrorsAndNulls(t *testing.T) {
	ev := &Evaluator{}
	b := NewBinder(testSchema(), nil)
	div0 := b.MustBind(NewBinary(OpDiv, NewConst(types.NewInt(1)), NewConst(types.NewInt(0))))
	if _, err := ev.Eval(div0, testTuple()); err == nil {
		t.Error("integer division by zero should error")
	}
	fdiv0 := b.MustBind(NewBinary(OpDiv, NewConst(types.NewFloat(1)), NewConst(types.NewFloat(0))))
	if _, err := ev.Eval(fdiv0, testTuple()); err == nil {
		t.Error("float division by zero should error")
	}
	// NULL propagation through comparison and arithmetic.
	nullCmp := b.MustBind(NewBinary(OpGt, NewConst(types.Null(types.KindFloat)), NewConst(types.NewFloat(1))))
	v, err := ev.Eval(nullCmp, testTuple())
	if err != nil || !v.IsNull() {
		t.Errorf("NULL comparison = %v, %v", v, err)
	}
	nullAdd := b.MustBind(NewBinary(OpAdd, NewConst(types.Null(types.KindFloat)), NewConst(types.NewFloat(1))))
	v, err = ev.Eval(nullAdd, testTuple())
	if err != nil || !v.IsNull() {
		t.Errorf("NULL arithmetic = %v, %v", v, err)
	}
	// Unbound column evaluation fails.
	if _, err := ev.Eval(colRef("Name"), testTuple()); err == nil {
		t.Error("evaluating unbound column should fail")
	}
	// EvalBool on NULL collapses to false.
	got, err := ev.EvalBool(nullCmp, testTuple())
	if err != nil || got {
		t.Errorf("EvalBool(NULL) = %v, %v", got, err)
	}
}

func TestShortCircuit(t *testing.T) {
	// The right operand calls an unresolvable function; short circuit must
	// avoid evaluating it.
	ev := &Evaluator{}
	b := NewBinder(testSchema(), testCatalog(t))
	rhs := b.MustBind(NewBinary(OpGt, NewFuncCall("ClientAnalysis", colRef("Quotes")), NewConst(types.NewInt(0))))
	e := &Binary{Op: OpAnd, Left: NewConst(types.NewBool(false)), Right: rhs, kind: types.KindBool}
	got, err := ev.EvalBool(e, testTuple())
	if err != nil || got {
		t.Errorf("short-circuit AND = %v, %v", got, err)
	}
	e2 := &Binary{Op: OpOr, Left: NewConst(types.NewBool(true)), Right: rhs, kind: types.KindBool}
	got, err = ev.EvalBool(e2, testTuple())
	if err != nil || !got {
		t.Errorf("short-circuit OR = %v, %v", got, err)
	}
	// Without short circuit the client UDF has no body: error.
	if _, err := ev.EvalBool(rhs, testTuple()); err == nil {
		t.Error("evaluating a client UDF without an invoker should fail")
	}
	// With an invoker installed it succeeds.
	ev.Invoke = func(name string, args []types.Value) (types.Value, error) {
		return types.NewInt(600), nil
	}
	got, err = ev.EvalBool(rhs, testTuple())
	if err != nil || !got {
		t.Errorf("invoker-backed eval = %v, %v", got, err)
	}
}

func TestBuiltins(t *testing.T) {
	ev := &Evaluator{}
	b := NewBinder(testSchema(), testCatalog(t))
	builtinCases := []struct {
		call Expr
		want float64
	}{
		{NewFuncCall("ts_first", colRef("Quotes")), 10},
		{NewFuncCall("ts_last", colRef("Quotes")), 12},
		{NewFuncCall("ts_min", colRef("Quotes")), 10},
		{NewFuncCall("ts_max", colRef("Quotes")), 12},
		{NewFuncCall("ts_change", colRef("Quotes")), 0.2},
		{NewFuncCall("abs", NewConst(types.NewFloat(-3))), 3},
		{NewFuncCall("sqrt", NewConst(types.NewFloat(9))), 3},
	}
	for _, c := range builtinCases {
		b.MustBind(c.call)
		v, err := ev.Eval(c.call, testTuple())
		if err != nil {
			t.Errorf("%s: %v", c.call, err)
			continue
		}
		if f, _ := v.Float(); f < c.want-1e-9 || f > c.want+1e-9 {
			t.Errorf("%s = %v, want %g", c.call, v, c.want)
		}
	}

	// String builtins.
	up := b.MustBind(NewFuncCall("upper", colRef("Name")))
	if v, err := ev.Eval(up, testTuple()); err != nil || v.String() != "ACME" {
		t.Errorf("upper = %v, %v", v, err)
	}
	lo := b.MustBind(NewFuncCall("lower", colRef("Name")))
	if v, err := ev.Eval(lo, testTuple()); err != nil || v.String() != "acme" {
		t.Errorf("lower = %v, %v", v, err)
	}
	ln := b.MustBind(NewFuncCall("length", colRef("Report")))
	if v, err := ev.Eval(ln, testTuple()); err != nil {
		t.Errorf("length: %v", err)
	} else if i, _ := v.Int(); i != 6 {
		t.Errorf("length = %v", v)
	}
	// sqrt of a negative errors.
	neg := b.MustBind(NewFuncCall("sqrt", NewConst(types.NewFloat(-1))))
	if _, err := ev.Eval(neg, testTuple()); err == nil {
		t.Error("sqrt(-1) should error")
	}
	// abs of int stays int.
	ai := b.MustBind(NewFuncCall("abs", NewConst(types.NewInt(-5))))
	if v, _ := ev.Eval(ai, testTuple()); v.Kind() != types.KindInt {
		t.Errorf("abs(INT) kind = %v", v.Kind())
	}
}

func TestStringRendering(t *testing.T) {
	e := NewBinary(OpAnd,
		NewBinary(OpGt, NewBinary(OpDiv, colRef("Change"), colRef("Close")), NewConst(types.NewFloat(0.2))),
		NewBinary(OpGt, NewFuncCall("ClientAnalysis", colRef("Quotes")), NewConst(types.NewInt(500))))
	s := e.String()
	for _, want := range []string{"Change", "Close", "ClientAnalysis(Quotes)", "AND", "500", "0.2"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	if NewConst(types.NewString("x")).String() != "'x'" {
		t.Error("string consts should be quoted")
	}
	if NewUnary(OpNot, NewConst(types.NewBool(true))).String() != "(NOT true)" {
		t.Errorf("NOT rendering = %q", NewUnary(OpNot, NewConst(types.NewBool(true))).String())
	}
}
