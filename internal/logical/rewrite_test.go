package logical

import (
	"context"
	"slices"
	"strings"
	"testing"

	"csq/internal/catalog"
	"csq/internal/exec"
	"csq/internal/expr"
	"csq/internal/storage/colstore"
	"csq/internal/types"
)

// scanTestTable builds a catalog entry for the scan-annotation tests.
func scanTestTable() *catalog.Table {
	return &catalog.Table{
		Name: "trades",
		Schema: types.NewSchema(
			types.Column{Name: "Sym", Kind: types.KindString},
			types.Column{Name: "Day", Kind: types.KindInt},
			types.Column{Name: "Price", Kind: types.KindFloat},
			types.Column{Name: "Qty", Kind: types.KindInt},
		),
	}
}

// findScan walks to the single Scan leaf of the tree.
func findScan(t *testing.T, n Node) *Scan {
	t.Helper()
	for {
		if sc, ok := n.(*Scan); ok {
			return sc
		}
		kids := n.Children()
		if len(kids) != 1 {
			t.Fatalf("no scan leaf under %T", n)
		}
		n = kids[0]
	}
}

// TestAnnotateScanPushdown checks the two annotation rules together on the
// canonical Project(Filter(Scan)) shape: the scan ends up carrying the union
// of projected and filtered ordinals as Required and the col-const conjuncts
// as Prunable, while the filter and projection stay in the tree.
func TestAnnotateScanPushdown(t *testing.T) {
	sc, err := NewScan(scanTestTable(), "")
	if err != nil {
		t.Fatal(err)
	}
	// (Price > 100) AND (Qty * 2 < 500): first conjunct prunable, second not.
	pred := expr.NewBinary(expr.OpAnd,
		expr.NewBinary(expr.OpGt,
			expr.NewBoundColumnRef(2, types.KindFloat),
			expr.NewConst(types.NewFloat(100))),
		expr.NewBinary(expr.OpLt,
			expr.NewBinary(expr.OpMul,
				expr.NewBoundColumnRef(3, types.KindInt),
				expr.NewConst(types.NewInt(2))),
			expr.NewConst(types.NewInt(500))))
	f, err := NewFilter(sc, pred)
	if err != nil {
		t.Fatal(err)
	}
	root, err := NewProject(f, []int{0})
	if err != nil {
		t.Fatal(err)
	}

	out, err := Rewrite(root)
	if err != nil {
		t.Fatal(err)
	}
	annotated := findScan(t, out)
	if want := []int{0, 2, 3}; !slices.Equal(annotated.Required, want) {
		t.Errorf("Required = %v, want %v", annotated.Required, want)
	}
	if len(annotated.Prunable) != 1 || !strings.Contains(annotated.Prunable[0].String(), "$2 > 100") {
		t.Errorf("Prunable = %v, want the single Price conjunct", annotated.Prunable)
	}
	if _, ok := out.(*Project); !ok {
		t.Errorf("projection disappeared: root is %T", out)
	}
	if _, ok := out.Children()[0].(*Filter); !ok {
		t.Errorf("filter disappeared: below root is %T", out.Children()[0])
	}
	// The original tree is untouched.
	if orig := findScan(t, root); orig.Required != nil || orig.Prunable != nil {
		t.Errorf("input tree mutated: Required=%v Prunable=%v", orig.Required, orig.Prunable)
	}
	// Rendering shows the annotations.
	if got := Format(out); !strings.Contains(got, "scan trades cols=[0 2 3] prune=[($2 > 100)]") {
		t.Errorf("format missing annotations:\n%s", got)
	}
}

// TestAnnotateScanFlippedConstant checks a constant-on-the-left comparison is
// still recognized as prunable.
func TestAnnotateScanFlippedConstant(t *testing.T) {
	sc, err := NewScan(scanTestTable(), "")
	if err != nil {
		t.Fatal(err)
	}
	pred := expr.NewBinary(expr.OpGe,
		expr.NewConst(types.NewInt(3)),
		expr.NewBoundColumnRef(1, types.KindInt)) // 3 >= Day
	f, err := NewFilter(sc, pred)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Rewrite(f)
	if err != nil {
		t.Fatal(err)
	}
	annotated := findScan(t, out)
	if len(annotated.Prunable) != 1 {
		t.Fatalf("Prunable = %v, want one conjunct", annotated.Prunable)
	}
	col, val, op, ok := expr.SplitColConstComparison(annotated.Prunable[0].(*expr.Binary))
	if !ok || col != 1 || op != expr.OpLe {
		t.Errorf("split = (%d, %v, %v, %v), want (1, 3, <=, true)", col, val, op, ok)
	}
	if v, _ := val.Int(); v != 3 {
		t.Errorf("split constant = %v, want 3", val)
	}
	// No projection above: Required stays nil (all columns).
	if annotated.Required != nil {
		t.Errorf("Required = %v, want nil", annotated.Required)
	}
}

// TestAnnotateScanFullWidthProject checks an identity-width projection leaves
// Required nil rather than installing a says-nothing annotation.
func TestAnnotateScanFullWidthProject(t *testing.T) {
	sc, err := NewScan(scanTestTable(), "")
	if err != nil {
		t.Fatal(err)
	}
	root, err := NewProject(sc, []int{3, 2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Rewrite(root)
	if err != nil {
		t.Fatal(err)
	}
	if annotated := findScan(t, out); annotated.Required != nil {
		t.Errorf("Required = %v, want nil for a full-width projection", annotated.Required)
	}
}

// TestCountStarRequiresNoColumns checks the column-demand pass under
// COUNT(*): the scan is told to read no column at all (Required is empty,
// not nil), and the columnar scan still yields every row — segments and the
// unflushed tail — to be counted.
func TestCountStarRequiresNoColumns(t *testing.T) {
	table := scanTestTable()
	ct, err := colstore.Create(t.TempDir(), table.Name, table.Schema, colstore.Options{SegmentRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	const rows = 30 // three segments and a six-row tail
	for i := 0; i < rows; i++ {
		row := types.NewTuple(types.NewString("S"), types.NewInt(int64(i)), types.NewFloat(1), types.NewInt(2))
		if err := ct.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	table.Data = ct
	sc, err := NewScan(table, "")
	if err != nil {
		t.Fatal(err)
	}
	count := []exec.Aggregate{{Func: exec.AggCount, Ordinal: -1, Name: "n"}}
	root, err := NewAggregate(sc, nil, count)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Rewrite(root)
	if err != nil {
		t.Fatal(err)
	}
	annotated := findScan(t, out)
	if annotated.Required == nil || len(annotated.Required) != 0 {
		t.Fatalf("Required = %#v, want an empty, non-nil list\n%s", annotated.Required, Format(out))
	}
	agg, err := exec.NewHashAggregate(exec.NewColumnarScan(ct, "", annotated.Required, annotated.Prunable), nil, count)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Collect(context.Background(), agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("COUNT(*) returned %d rows, want 1", len(got))
	}
	if n, err := got[0][0].Int(); err != nil || n != rows {
		t.Errorf("COUNT(*) = %v, want %d", got[0][0], rows)
	}
}
