package expr

import (
	"math"
	"testing"
	"testing/quick"

	"csq/internal/types"
)

func TestConjunctsAndConjoin(t *testing.T) {
	a := NewBinary(OpGt, colRef("Change"), NewConst(types.NewFloat(0)))
	b := NewBinary(OpLt, colRef("Close"), NewConst(types.NewFloat(100)))
	c := NewBinary(OpEq, colRef("Name"), NewConst(types.NewString("ACME")))
	e := NewBinary(OpAnd, NewBinary(OpAnd, a, b), c)
	cs := Conjuncts(e)
	if len(cs) != 3 {
		t.Fatalf("Conjuncts = %d, want 3", len(cs))
	}
	joined := Conjoin(cs)
	if len(Conjuncts(joined)) != 3 {
		t.Error("Conjoin should round-trip the conjunct count")
	}
	if Conjoin(nil) != nil {
		t.Error("Conjoin(nil) should be nil")
	}
	if Conjoin([]Expr{a}) != a {
		t.Error("Conjoin of singleton should be the element itself")
	}
	if got := Conjuncts(nil); got != nil {
		t.Errorf("Conjuncts(nil) = %v", got)
	}
	// OR is not split.
	or := NewBinary(OpOr, a, b)
	if len(Conjuncts(or)) != 1 {
		t.Error("OR should not be split into conjuncts")
	}
}

func TestColumnsAndCalls(t *testing.T) {
	cat := testCatalog(t)
	b := NewBinder(testSchema(), cat)
	e := b.MustBind(NewBinary(OpAnd,
		NewBinary(OpGt, NewBinary(OpDiv, colRef("Change"), colRef("Close")), NewConst(types.NewFloat(0.2))),
		NewBinary(OpGt, NewFuncCall("ClientAnalysis", colRef("Quotes")), NewConst(types.NewInt(500)))))

	cols := Columns(e)
	if len(cols) != 3 || cols[0] != 1 || cols[1] != 2 || cols[2] != 3 {
		t.Errorf("Columns = %v", cols)
	}
	calls := ClientCalls(e)
	if len(calls) != 1 || calls[0].Name != "ClientAnalysis" {
		t.Errorf("ClientCalls = %v", calls)
	}
	if !HasClientCall(e) {
		t.Error("HasClientCall should be true")
	}
	builtin := b.MustBind(NewFuncCall("ts_last", colRef("Quotes")))
	if HasClientCall(builtin) || !ServerOnly(builtin) {
		t.Error("a built-in should not count as a client call")
	}
}

func TestPushableToClient(t *testing.T) {
	cat := testCatalog(t)
	b := NewBinder(testSchema(), cat)
	// Predicate on the UDF result: ClientAnalysis(S.Quotes) > 500
	p := b.MustBind(NewBinary(OpGt, NewFuncCall("ClientAnalysis", colRef("Quotes")), NewConst(types.NewInt(500))))
	avail := map[int]bool{3: true} // Quotes shipped to the client
	udfs := map[string]bool{"clientanalysis": true}
	if !PushableToClient(p, avail, udfs) {
		t.Error("UDF-result predicate should be pushable when Quotes is shipped")
	}
	if PushableToClient(p, map[int]bool{}, udfs) {
		t.Error("predicate should not be pushable when its argument column is missing")
	}
	if PushableToClient(p, avail, map[string]bool{}) {
		t.Error("predicate should not be pushable when the UDF result is not available")
	}
	// Plain column predicate is pushable when its columns are shipped.
	cp := b.MustBind(NewBinary(OpGt, colRef("Change"), NewConst(types.NewFloat(0))))
	if !PushableToClient(cp, map[int]bool{1: true}, nil) {
		t.Error("column predicate should be pushable when the column is shipped")
	}
	if PushableToClient(cp, map[int]bool{2: true}, nil) {
		t.Error("column predicate should not be pushable without its column")
	}
	// Builtin-only expressions are pushable given their columns.
	bp := b.MustBind(NewBinary(OpGt, NewFuncCall("ts_last", colRef("Quotes")), NewConst(types.NewFloat(1))))
	if !PushableToClient(bp, map[int]bool{3: true}, nil) {
		t.Error("builtin predicate should be pushable")
	}
}

func TestEstimateSelectivity(t *testing.T) {
	cat := testCatalog(t)
	b := NewBinder(testSchema(), cat)

	eq := b.MustBind(NewBinary(OpEq, colRef("Name"), NewConst(types.NewString("ACME"))))
	if s := EstimateSelectivity(eq); s != 0.1 {
		t.Errorf("equality selectivity = %g", s)
	}
	rng := b.MustBind(NewBinary(OpGt, colRef("Change"), NewConst(types.NewFloat(0))))
	if s := EstimateSelectivity(rng); math.Abs(s-1.0/3.0) > 1e-9 {
		t.Errorf("range selectivity = %g", s)
	}
	ne := b.MustBind(NewBinary(OpNe, colRef("Change"), NewConst(types.NewFloat(0))))
	if s := EstimateSelectivity(ne); s != 0.9 {
		t.Errorf("inequality selectivity = %g", s)
	}
	// UDF predicate takes catalog selectivity (0.4 for ClientAnalysis).
	udfPred := b.MustBind(NewBinary(OpGt, NewFuncCall("ClientAnalysis", colRef("Quotes")), NewConst(types.NewInt(500))))
	if s := EstimateSelectivity(udfPred); s != 0.4 {
		t.Errorf("UDF predicate selectivity = %g, want 0.4", s)
	}
	// AND multiplies; OR is inclusion-exclusion; NOT complements.
	and := b.MustBind(NewBinary(OpAnd, eq, rng))
	if s := EstimateSelectivity(and); math.Abs(s-0.1/3.0) > 1e-9 {
		t.Errorf("AND selectivity = %g", s)
	}
	or := b.MustBind(NewBinary(OpOr, eq, rng))
	want := 0.1 + 1.0/3.0 - 0.1/3.0
	if s := EstimateSelectivity(or); math.Abs(s-want) > 1e-9 {
		t.Errorf("OR selectivity = %g, want %g", s, want)
	}
	not := b.MustBind(NewUnary(OpNot, eq))
	if s := EstimateSelectivity(not); math.Abs(s-0.9) > 1e-9 {
		t.Errorf("NOT selectivity = %g", s)
	}
	if s := EstimateSelectivity(NewConst(types.NewBool(true))); s != 1 {
		t.Errorf("TRUE selectivity = %g", s)
	}
	if s := EstimateSelectivity(NewConst(types.NewBool(false))); s != 0 {
		t.Errorf("FALSE selectivity = %g", s)
	}
	if s := EstimateSelectivity(nil); s != 1 {
		t.Errorf("nil selectivity = %g", s)
	}
}

// TestQuickSelectivityBounds property: estimated selectivities always lie in
// [0,1] no matter how predicates are combined.
func TestQuickSelectivityBounds(t *testing.T) {
	b := NewBinder(testSchema(), nil)
	atoms := []Expr{
		b.MustBind(NewBinary(OpEq, colRef("Change"), NewConst(types.NewFloat(1)))),
		b.MustBind(NewBinary(OpGt, colRef("Close"), NewConst(types.NewFloat(1)))),
		b.MustBind(NewBinary(OpNe, colRef("Change"), NewConst(types.NewFloat(0)))),
		NewConst(types.NewBool(true)),
		NewConst(types.NewBool(false)),
	}
	f := func(ops []uint8) bool {
		cur := atoms[0]
		for i, op := range ops {
			if i >= 12 {
				break
			}
			next := atoms[int(op)%len(atoms)]
			switch op % 3 {
			case 0:
				cur = &Binary{Op: OpAnd, Left: cur, Right: next, kind: types.KindBool}
			case 1:
				cur = &Binary{Op: OpOr, Left: cur, Right: next, kind: types.KindBool}
			default:
				cur = &Unary{Op: OpNot, Input: cur, kind: types.KindBool}
			}
		}
		s := EstimateSelectivity(cur)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
