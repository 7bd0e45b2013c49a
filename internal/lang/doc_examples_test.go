package lang

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"
	"time"

	"csq/internal/catalog"
	"csq/internal/demo"
	"csq/internal/exec"
	"csq/internal/expr"
	"csq/internal/logical"
	"csq/internal/netsim"
	"csq/internal/plan"
	"csq/internal/types"
	"csq/internal/wire"
)

// docExamplesPath is the language reference whose fenced ```datalog blocks
// this test executes.
const docExamplesPath = "../../docs/QUERYLANG.md"

// extractDatalogFences returns the contents of every ```datalog fence.
func extractDatalogFences(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile(docExamplesPath)
	if err != nil {
		t.Fatalf("read %s: %v", docExamplesPath, err)
	}
	var out []string
	lines := strings.Split(string(data), "\n")
	for i := 0; i < len(lines); i++ {
		if strings.TrimSpace(lines[i]) != "```datalog" {
			continue
		}
		var fence []string
		for i++; i < len(lines) && strings.TrimSpace(lines[i]) != "```"; i++ {
			fence = append(fence, lines[i])
		}
		out = append(out, strings.TrimSpace(strings.Join(fence, "\n")))
	}
	return out
}

// handBuilt returns the reference logical tree for a documented example —
// built with the programmatic constructors exactly as the compiler lowers the
// rule. Every ```datalog fence in the reference must have an entry here.
func handBuilt(t *testing.T, cat *catalog.Catalog, query string) logical.Node {
	t.Helper()
	scan := func(table string) logical.Node {
		tbl, err := cat.Table(table)
		if err != nil {
			t.Fatal(err)
		}
		n, err := logical.NewScan(tbl, "")
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	filter := func(in logical.Node, pred expr.Expr) logical.Node {
		bound, err := expr.NewBinder(in.Schema(), cat).Bind(pred)
		if err != nil {
			t.Fatalf("bind %s: %v", pred, err)
		}
		n, err := logical.NewFilter(in, bound)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	project := func(in logical.Node, ords ...int) logical.Node {
		n, err := logical.NewProject(in, ords)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	join := func(l, r logical.Node, lk, rk []int) logical.Node {
		n, err := logical.NewJoin(l, r, lk, rk, nil)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	apply := func(in logical.Node, bindings ...exec.UDFBinding) logical.Node {
		n, err := logical.NewUDFApply(in, bindings)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	aggregate := func(in logical.Node, groupBy []int, aggs ...exec.Aggregate) logical.Node {
		n, err := logical.NewAggregate(in, groupBy, aggs)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	col := expr.BindColumnRef
	lit := func(v types.Value) expr.Expr { return expr.NewConst(v) }
	bin := expr.NewBinary

	switch query {
	case "picks(Sym) :- stocks(Sym, _, Q), udf attractive(Q) as Keep, Keep = true.":
		return project(filter(
			apply(scan("stocks"), exec.UDFBinding{Name: "attractive", ArgOrdinals: []int{2}, ResultKind: types.KindBool, ResultName: "Keep"}),
			bin(expr.OpEq, col("Keep", 3, types.KindBool), lit(types.NewBool(true)))), 0)
	case "high(Sym, Price) :- trades(Sym, _, Price, _), Price > 102.5.":
		return project(filter(scan("trades"),
			bin(expr.OpGt, col("Price", 2, types.KindFloat), lit(types.NewFloat(102.5)))), 0, 2)
	case "aaa(Day, Price) :- trades('AAA', Day, Price, _).":
		return project(filter(scan("trades"),
			bin(expr.OpEq, col("Sym", 0, types.KindString), lit(types.NewString("AAA")))), 1, 2)
	case "value(Sym, Day) :- trades(Sym, Day, Price, Qty), Price * Qty > 50000.0.":
		return project(filter(scan("trades"),
			bin(expr.OpGt,
				bin(expr.OpMul, col("Price", 2, types.KindFloat), col("Qty", 3, types.KindInt)),
				lit(types.NewFloat(50000)))), 0, 1)
	case "detail(Sym, Sector, Price) :- trades(Sym, _, Price, _), stocks(Sym, Sector, _).":
		return project(join(scan("trades"), scan("stocks"), []int{0}, []int{0}), 0, 5, 2)
	case "volume(Sym, sum(Qty) as Total) :- trades(Sym, _, _, Qty).":
		return aggregate(scan("trades"), []int{0},
			exec.Aggregate{Func: exec.AggSum, Ordinal: 3, Name: "Total"})
	case "n(count(*) as N) :- trades(_, _, _, _).":
		return aggregate(scan("trades"), nil,
			exec.Aggregate{Func: exec.AggCount, Ordinal: -1, Name: "N"})
	case "sector_value(Sector, sum(Qty) as Total, avg(Price) as AvgPrice) :- trades(Sym, _, Price, Qty), stocks(Sym, Sector, _).":
		return aggregate(join(scan("trades"), scan("stocks"), []int{0}, []int{0}), []int{5},
			exec.Aggregate{Func: exec.AggSum, Ordinal: 3, Name: "Total"},
			exec.Aggregate{Func: exec.AggAvg, Ordinal: 2, Name: "AvgPrice"})
	case "scored(Sym, Score) :- stocks(Sym, _, Q), udf analyze(Q) as Score.":
		return project(
			apply(scan("stocks"), exec.UDFBinding{Name: "analyze", ArgOrdinals: []int{2}, ResultKind: types.KindFloat, ResultName: "Score"}),
			0, 3)
	case "report(Sym, Score, Chart) :- stocks(Sym, _, Q), udf analyze(Q) as Score, udf chart(Q) as Chart, Score > 100.":
		return project(filter(
			apply(scan("stocks"),
				exec.UDFBinding{Name: "analyze", ArgOrdinals: []int{2}, ResultKind: types.KindFloat, ResultName: "Score"},
				exec.UDFBinding{Name: "chart", ArgOrdinals: []int{2}, ResultKind: types.KindBytes, ResultName: "Chart"}),
			bin(expr.OpGt, col("Score", 3, types.KindFloat), lit(types.NewInt(100)))), 0, 3, 4)
	case "fresh(Id, Score) :- incoming(Id, Blob), udf score(Blob) as Score.":
		return project(
			apply(scan("incoming"), exec.UDFBinding{Name: "score", ArgOrdinals: []int{1}, ResultKind: types.KindFloat, ResultName: "Score"}),
			0, 2)
	}
	t.Fatalf("docs/QUERYLANG.md documents a query this test does not pin; add a hand-built tree for:\n%s", query)
	return nil
}

// docPlanner returns a planner over the demo runtime with the documentation's
// fixed link observation.
func docPlanner(link exec.ClientLink) *plan.Planner {
	p := plan.NewPlanner(link)
	p.Config.Link = &exec.LinkObservation{
		DownBytesPerSec: 3600,
		UpBytesPerSec:   3600,
		Asymmetry:       1,
		RTT:             200 * time.Millisecond,
	}
	return p
}

func encodeResult(t *testing.T, rows []types.Tuple) []byte {
	t.Helper()
	var out []byte
	for _, row := range rows {
		data, err := wire.AppendTupleBatch(nil, &wire.TupleBatch{Tuples: []types.Tuple{row}})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data...)
	}
	return out
}

// TestDocExamplesEquivalence compiles every ```datalog fence of the language
// reference and checks, per example, that (a) the compiled logical tree is
// identical to the hand-built reference tree, and (b) planning and executing
// both yields byte-identical results. Across the examples, the planner must
// exercise all three client-site strategies.
func TestDocExamplesEquivalence(t *testing.T) {
	queries := extractDatalogFences(t)
	if len(queries) < 10 {
		t.Fatalf("found %d ```datalog examples in %s, want at least 10", len(queries), docExamplesPath)
	}
	cat, rt, err := demo.New()
	if err != nil {
		t.Fatal(err)
	}
	link := exec.NewInProcessLink(rt, netsim.LinkConfig{})
	strategies := map[plan.Strategy]bool{}

	for _, query := range queries {
		t.Run(strings.SplitN(query, "(", 2)[0], func(t *testing.T) {
			compiled, err := Compile(cat, query)
			if err != nil {
				t.Fatalf("compile documented example: %v\n%s", err, query)
			}
			want := handBuilt(t, cat, query)
			if got, ref := logical.Format(compiled), logical.Format(want); got != ref {
				t.Fatalf("compiled tree differs from the hand-built reference\nquery: %s\ncompiled:\n%s\nhand-built:\n%s", query, got, ref)
			}

			run := func(root logical.Node) []types.Tuple {
				t.Helper()
				planner := docPlanner(link)
				tp, err := planner.PlanTree(context.Background(), root, cat)
				if err != nil {
					t.Fatalf("plan: %v", err)
				}
				for _, ap := range tp.Applies {
					strategies[ap.Decision.Strategy] = true
				}
				op, err := tp.NewOperator()
				if err != nil {
					t.Fatalf("lower: %v", err)
				}
				rows, err := exec.Collect(context.Background(), op)
				if err != nil {
					t.Fatalf("execute: %v", err)
				}
				return rows
			}
			got := run(compiled)
			ref := run(want)
			if !bytes.Equal(encodeResult(t, got), encodeResult(t, ref)) {
				t.Fatalf("compiled execution differs from the hand-built tree: %d rows vs %d\nquery: %s", len(got), len(ref), query)
			}
		})
	}

	for _, s := range []plan.Strategy{plan.StrategyNaive, plan.StrategySemiJoin, plan.StrategyClientJoin} {
		if !strategies[s] {
			t.Errorf("the documented examples never exercise the %s strategy", s)
		}
	}
}
