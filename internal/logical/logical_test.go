package logical

import (
	"strings"
	"testing"

	"csq/internal/catalog"
	"csq/internal/exec"
	"csq/internal/expr"
	"csq/internal/types"
)

func testSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "ID", Kind: types.KindString},
		types.Column{Name: "Payload", Kind: types.KindBytes},
		types.Column{Name: "Extra", Kind: types.KindBytes},
	)
}

// source is a scan over a table T of testSchema.
func source(t *testing.T) *Scan {
	t.Helper()
	s, err := NewScan(&catalog.Table{Name: "T", Schema: testSchema()}, "")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func bindings() []exec.UDFBinding {
	return []exec.UDFBinding{
		{Name: "Score", ArgOrdinals: []int{1}, ResultKind: types.KindBytes},
		{Name: "Qualify", ArgOrdinals: []int{1}, ResultKind: types.KindBool},
	}
}

func TestSchemaInference(t *testing.T) {
	v := source(t)

	f, err := NewFilter(v, expr.NewBoundColumnRef(0, types.KindString))
	if err != nil {
		t.Fatal(err)
	}
	if f.Schema().Len() != 3 {
		t.Errorf("filter schema width = %d, want 3", f.Schema().Len())
	}

	p, err := NewProject(v, []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Schema().Columns[0].Name; got != "Extra" {
		t.Errorf("projected column 0 = %s, want Extra", got)
	}

	u, err := NewUDFApply(v, bindings())
	if err != nil {
		t.Fatal(err)
	}
	if u.Schema().Len() != 5 {
		t.Errorf("extended schema width = %d, want 5", u.Schema().Len())
	}
	if got := u.Schema().Columns[3].Name; got != "Score" {
		t.Errorf("result column 0 = %s, want Score", got)
	}
	if ords := u.ArgOrdinals(); len(ords) != 1 || ords[0] != 1 {
		t.Errorf("arg ordinal union = %v, want [1]", ords)
	}

	j, err := NewJoin(v, source(t), []int{0}, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if j.Schema().Len() != 6 {
		t.Errorf("join schema width = %d, want 6", j.Schema().Len())
	}

	a, err := NewAggregate(v, []int{0}, []exec.Aggregate{{Func: exec.AggCount, Ordinal: -1, Name: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Schema().Len() != 2 || a.Schema().Columns[1].Kind != types.KindInt {
		t.Errorf("aggregate schema = %v", a.Schema().Columns)
	}
}

func TestConstructorValidation(t *testing.T) {
	v := source(t)
	if _, err := NewProject(v, []int{7}); err == nil {
		t.Error("out-of-range projection accepted")
	}
	if _, err := NewFilter(v, expr.NewBoundColumnRef(9, types.KindBool)); err == nil {
		t.Error("out-of-schema filter predicate accepted")
	}
	if _, err := NewUDFApply(v, []exec.UDFBinding{{Name: "X", ArgOrdinals: []int{9}, ResultKind: types.KindInt}}); err == nil {
		t.Error("out-of-range UDF argument accepted")
	}
	if _, err := NewUDFApply(v, nil); err == nil {
		t.Error("UDF application without UDFs accepted")
	}
	if _, err := NewJoin(v, source(t), nil, nil, nil); err == nil {
		t.Error("join without keys accepted")
	}
	if _, err := NewScan(&catalog.Table{Name: "t"}, ""); err == nil {
		t.Error("scan over schema-less table accepted")
	}
}

// rewriteTestTree builds Project{Filter{UDFApply{Scan}}} — the canonical
// single-application query shape.
func rewriteTestTree(t *testing.T, pushableOrd int, project []int) Node {
	t.Helper()
	u, err := NewUDFApply(source(t), bindings())
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFilter(u, expr.NewBoundColumnRef(pushableOrd, types.KindBool))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProject(f, project)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRewriteAbsorbsAndPrunes(t *testing.T) {
	// Extended ordinals: 0 ID, 1 Payload, 2 Extra, 3 Score, 4 Qualify.
	root := rewriteTestTree(t, 4, []int{0, 3})
	out, err := Rewrite(root)
	if err != nil {
		t.Fatal(err)
	}
	u, ok := out.(*UDFApply)
	if !ok {
		t.Fatalf("rewritten root is %T, want *UDFApply (filter and project absorbed)\n%s", out, Format(out))
	}
	// Pruning: only ID and Payload are needed, Extra is dropped.
	if w := u.InputWidth(); w != 2 {
		t.Fatalf("pruned input width = %d, want 2\n%s", w, Format(out))
	}
	proj, ok := u.Input.(*Project)
	if !ok || len(proj.Ordinals) != 2 || proj.Ordinals[0] != 0 || proj.Ordinals[1] != 1 {
		t.Fatalf("pruning projection = %v", proj)
	}
	// Remapped: Score result is ordinal 2, Qualify is 3.
	if len(u.Project) != 2 || u.Project[0] != 0 || u.Project[1] != 2 {
		t.Errorf("remapped projection = %v, want [0 2]", u.Project)
	}
	ref, ok := u.Pushable.(*expr.ColumnRef)
	if !ok || ref.Ordinal != 3 {
		t.Errorf("remapped pushable = %s, want column 3", u.Pushable)
	}
	if len(u.UDFs) != 2 || u.UDFs[0].ArgOrdinals[0] != 1 {
		t.Errorf("remapped UDF args = %v", u.UDFs)
	}
	// The output schema is unchanged by the rewrite.
	if got, want := u.Schema().Columns[0].Name, root.Schema().Columns[0].Name; got != want {
		t.Errorf("output column 0 = %s, want %s", got, want)
	}
}

func TestRewriteLeavesOriginalUntouched(t *testing.T) {
	root := rewriteTestTree(t, 4, []int{0, 3})
	before := Format(root)
	if _, err := Rewrite(root); err != nil {
		t.Fatal(err)
	}
	if after := Format(root); after != before {
		t.Errorf("rewrite mutated its input:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

func TestRewritePushesServerConjunctBelowApply(t *testing.T) {
	u, err := NewUDFApply(source(t), bindings())
	if err != nil {
		t.Fatal(err)
	}
	// (ID = 'x') AND Qualify-result: the first conjunct is server-evaluable
	// over input columns, the second depends on a UDF result.
	pred := expr.NewBinary(expr.OpAnd,
		expr.NewBinary(expr.OpEq,
			expr.NewBoundColumnRef(0, types.KindString),
			expr.NewConst(types.NewString("x"))),
		expr.NewBoundColumnRef(4, types.KindBool))
	f, err := NewFilter(u, pred)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Rewrite(f)
	if err != nil {
		t.Fatal(err)
	}
	apply, ok := out.(*UDFApply)
	if !ok {
		t.Fatalf("rewritten root is %T, want *UDFApply\n%s", out, Format(out))
	}
	if apply.Pushable == nil || strings.Contains(apply.Pushable.String(), "'x'") {
		t.Errorf("pushable = %v, want only the UDF-dependent conjunct", apply.Pushable)
	}
	inner, ok := apply.Input.(*Filter)
	if !ok || !strings.Contains(inner.Pred.String(), "'x'") {
		t.Fatalf("server conjunct was not pushed below the application\n%s", Format(out))
	}
}

func TestRewritePushesFilterThroughJoin(t *testing.T) {
	left := source(t)
	right := source(t)
	j, err := NewJoin(left, right, []int{0}, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// left-only (ord 0), right-only (ord 3 → right ord 0), mixed (0 vs 5).
	pred := expr.Conjoin([]expr.Expr{
		expr.NewBinary(expr.OpEq, expr.NewBoundColumnRef(0, types.KindString), expr.NewConst(types.NewString("a"))),
		expr.NewBinary(expr.OpEq, expr.NewBoundColumnRef(3, types.KindString), expr.NewConst(types.NewString("b"))),
		expr.NewBinary(expr.OpEq, expr.NewBoundColumnRef(0, types.KindString), expr.NewBoundColumnRef(5, types.KindString)),
	})
	f, err := NewFilter(j, pred)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Rewrite(f)
	if err != nil {
		t.Fatal(err)
	}
	residual, ok := out.(*Filter)
	if !ok {
		t.Fatalf("mixed conjunct should stay above the join, got %T\n%s", out, Format(out))
	}
	join, ok := residual.Input.(*Join)
	if !ok {
		t.Fatalf("expected join under the residual filter\n%s", Format(out))
	}
	lf, ok := join.Left.(*Filter)
	if !ok {
		t.Fatalf("left conjunct not pushed\n%s", Format(out))
	}
	if got := lf.Pred.String(); !strings.Contains(got, "'a'") {
		t.Errorf("left filter = %s", got)
	}
	rf, ok := join.Right.(*Filter)
	if !ok {
		t.Fatalf("right conjunct not pushed\n%s", Format(out))
	}
	// The right conjunct's ordinal must be remapped from 3 to 0.
	if cols := expr.Columns(rf.Pred); len(cols) != 1 || cols[0] != 0 {
		t.Errorf("right filter columns = %v, want [0]", cols)
	}
}

func TestRewriteComposesAndDropsProjects(t *testing.T) {
	p1, err := NewProject(source(t), []int{2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewProject(p1, []int{2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Rewrite(p2)
	if err != nil {
		t.Fatal(err)
	}
	// reverse ∘ reverse = identity → both projects vanish.
	if _, ok := out.(*Scan); !ok {
		t.Errorf("double reverse should collapse to the source, got %T\n%s", out, Format(out))
	}
}

func TestFormatRendersTree(t *testing.T) {
	root := rewriteTestTree(t, 4, []int{0, 3})
	s := Format(root)
	for _, want := range []string{"project [0 3]", "filter", "udf-apply [Score(1) Qualify(1)]", "scan T"} {
		if !strings.Contains(s, want) {
			t.Errorf("Format output missing %q:\n%s", want, s)
		}
	}
	if !strings.Contains(s, "\n  filter") || !strings.Contains(s, "\n      scan") {
		t.Errorf("Format output not indented by depth:\n%s", s)
	}
}

func TestAppliesPostOrder(t *testing.T) {
	u1, err := NewUDFApply(source(t), bindings())
	if err != nil {
		t.Fatal(err)
	}
	u2, err := NewUDFApply(u1, []exec.UDFBinding{{Name: "Qualify", ArgOrdinals: []int{1}, ResultKind: types.KindBool}})
	if err != nil {
		t.Fatal(err)
	}
	got := Applies(u2)
	if len(got) != 2 || got[0] != u1 || got[1] != u2 {
		t.Errorf("Applies order = %v, want inner then outer", got)
	}
}
