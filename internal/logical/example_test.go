package logical_test

import (
	"fmt"

	"csq/internal/demo"
	"csq/internal/exec"
	"csq/internal/expr"
	"csq/internal/logical"
	"csq/internal/types"
)

// ExampleRewrite builds the naive tree for a rule with a client-site UDF —
// filter and projection above the application, exactly as the textual front
// end compiles it — and shows the rewriter absorbing both into the UDFApply
// node as its pushable predicate and projection, then pruning the
// application's input to the columns actually consumed.
func ExampleRewrite() {
	cat, _, err := demo.New()
	if err != nil {
		panic(err)
	}
	stocks, err := cat.Table("stocks")
	if err != nil {
		panic(err)
	}
	scan, err := logical.NewScan(stocks, "")
	if err != nil {
		panic(err)
	}
	apply, err := logical.NewUDFApply(scan, []exec.UDFBinding{{
		Name: "attractive", ArgOrdinals: []int{2},
		ResultKind: types.KindBool, ResultName: "Keep",
	}})
	if err != nil {
		panic(err)
	}
	pred, err := expr.NewBinder(apply.Schema(), cat).Bind(expr.NewBinary(expr.OpEq,
		expr.BindColumnRef("Keep", 3, types.KindBool), expr.NewConst(types.NewBool(true))))
	if err != nil {
		panic(err)
	}
	filter, err := logical.NewFilter(apply, pred)
	if err != nil {
		panic(err)
	}
	root, err := logical.NewProject(filter, []int{0})
	if err != nil {
		panic(err)
	}

	rewritten, err := logical.Rewrite(root)
	if err != nil {
		panic(err)
	}
	fmt.Print(logical.Format(root))
	fmt.Println("rewrites to:")
	fmt.Print(logical.Format(rewritten))
	// Output:
	// project [0]
	//   filter (Keep = true)
	//     udf-apply [attractive(2)]
	//       scan stocks
	// rewrites to:
	// udf-apply [attractive(1)] pushable=(Keep = true) project=[0]
	//   project [0 2]
	//     scan stocks cols=[0 2]
}
