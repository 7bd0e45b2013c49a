package expr

import (
	"testing"

	"csq/internal/catalog"
	"csq/internal/types"
	"csq/internal/wire"
)

func TestMarshalRoundTrip(t *testing.T) {
	cat := testCatalog(t)
	b := NewBinder(testSchema(), cat)
	exprs := []Expr{
		b.MustBind(NewConst(types.NewInt(42))),
		b.MustBind(colRef("Quotes")),
		b.MustBind(NewBinary(OpGt,
			NewBinary(OpDiv, colRef("Change"), colRef("Close")),
			NewConst(types.NewFloat(0.2)))),
		b.MustBind(NewUnary(OpNot, NewConst(types.NewBool(false)))),
		b.MustBind(NewBinary(OpGt, NewFuncCall("ClientAnalysis", colRef("Quotes")), NewConst(types.NewInt(500)))),
		b.MustBind(NewFuncCall("ts_last", colRef("Quotes"))),
	}
	tup := testTuple()
	ev := &Evaluator{Invoke: func(name string, args []types.Value) (types.Value, error) {
		return types.NewInt(900), nil
	}}
	for _, e := range exprs {
		data, err := Marshal(e)
		if err != nil {
			t.Errorf("Marshal(%s): %v", e, err)
			continue
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Errorf("Unmarshal(%s): %v", e, err)
			continue
		}
		if got.ResultKind() != e.ResultKind() {
			t.Errorf("%s: kind %v != %v after round trip", e, got.ResultKind(), e.ResultKind())
		}
		// Resolve functions against a client-style catalog and evaluate both
		// sides; results must agree.
		if err := ResolveFunctions(got, cat); err != nil {
			t.Errorf("ResolveFunctions(%s): %v", e, err)
			continue
		}
		want, err1 := ev.Eval(e, tup)
		gotV, err2 := ev.Eval(got, tup)
		if (err1 == nil) != (err2 == nil) {
			t.Errorf("%s: eval error mismatch: %v vs %v", e, err1, err2)
			continue
		}
		if cmp, err := types.Compare(want, gotV); err1 == nil && !want.IsNull() && (err != nil || cmp != 0) {
			t.Errorf("%s: eval %v != %v after round trip", e, gotV, want)
		}
	}
}

func TestMarshalUnboundColumnFails(t *testing.T) {
	if _, err := Marshal(colRef("Name")); err == nil {
		t.Error("marshalling an unbound column should fail")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	bad := [][]byte{
		nil,
		{0xee},
		{tagColumn},
		{tagBinary, byte(OpAdd)},
		{tagUnary, byte(OpNot)},
		{tagCall},
		// A name length that overflows int once converted.
		{tagCall, byte(types.KindInt), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 'f', 0x00},
		{tagCall + 1}, // past the last tag: the retired cast's
		{tagConst},
	}
	for _, b := range bad {
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("Unmarshal(%v) should fail", b)
		}
	}
	// Trailing garbage is rejected.
	good, _ := Marshal(NewConst(types.NewInt(1)))
	if _, err := Unmarshal(append(good, 0x00)); err == nil {
		t.Error("trailing bytes should be rejected")
	}
}

func TestResolveFunctions(t *testing.T) {
	cat := testCatalog(t)
	// A call to an unknown function cannot be resolved.
	e := &FuncCall{Name: "NoSuchFn"}
	if err := ResolveFunctions(e, cat); err == nil {
		t.Error("unknown function should fail to resolve")
	}
	// Builtins resolve even with a nil catalog.
	bi := &FuncCall{Name: "ts_last", Args: []Expr{NewBoundColumnRef(0, types.KindTimeSeries)}}
	if err := ResolveFunctions(bi, nil); err != nil {
		t.Errorf("builtin resolve: %v", err)
	}
	if bi.Builtin == nil {
		t.Error("builtin should be attached")
	}
	// Client UDFs resolve against the catalog and pick up the result kind.
	c := &FuncCall{Name: "ClientAnalysis", Args: []Expr{NewBoundColumnRef(0, types.KindTimeSeries)}}
	if err := ResolveFunctions(c, cat); err != nil {
		t.Errorf("udf resolve: %v", err)
	}
	if c.UDF == nil || c.ResultKind() != types.KindInt {
		t.Errorf("udf resolution incomplete: %+v", c)
	}
}

func TestNewBoundColumnRef(t *testing.T) {
	c := NewBoundColumnRef(3, types.KindTimeSeries)
	if !c.Bound() || c.Ordinal != 3 || c.ResultKind() != types.KindTimeSeries {
		t.Errorf("bound ref = %+v", c)
	}
	ev := &Evaluator{}
	v, err := ev.Eval(c, testTuple())
	if err != nil {
		t.Fatalf("eval bound ref: %v", err)
	}
	if v.Kind() != types.KindTimeSeries {
		t.Errorf("eval kind = %v", v.Kind())
	}
}

func TestMarshalPreservesCatalogIndependence(t *testing.T) {
	// A predicate marshalled on the server must be resolvable against a
	// *different* catalog at the client as long as the UDF name exists there.
	serverCat := testCatalog(t)
	b := NewBinder(testSchema(), serverCat)
	pred := b.MustBind(NewBinary(OpGt, NewFuncCall("ClientAnalysis", colRef("Quotes")), NewConst(types.NewInt(500))))
	data, err := Marshal(pred)
	if err != nil {
		t.Fatal(err)
	}
	clientCat := catalog.New()
	_, err = clientCat.RegisterClientUDF(&wire.RegisterUDF{Name: "ClientAnalysis", ResultKind: types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := ResolveFunctions(decoded, clientCat); err != nil {
		t.Fatal(err)
	}
	calls := 0
	ev := &Evaluator{Invoke: func(string, []types.Value) (types.Value, error) {
		calls++
		return types.NewInt(1000), nil
	}}
	ok, err := ev.EvalBool(decoded, testTuple())
	if err != nil || !ok {
		t.Errorf("client-side evaluation = %v, %v", ok, err)
	}
	if calls != 1 {
		t.Errorf("client body invoked %d times", calls)
	}
}
