package lang

import (
	"fmt"

	"csq/internal/catalog"
	"csq/internal/exec"
	"csq/internal/expr"
	"csq/internal/logical"
	"csq/internal/types"
)

// Compile resolves the query's table and UDF names against the catalog and
// emits a logical plan tree:
//
//   - each data pattern becomes a Scan, with literal and repeated-variable
//     terms lowered to equality filters directly above it;
//   - patterns are equi-joined left to right on their shared variables
//     (a pattern sharing no variable with its predecessors is an error —
//     cross products are not supported);
//   - each run of udf clauses becomes one UDFApply, binding each result
//     column to the clause's fresh result variable;
//   - all predicates are conjoined into a single Filter above the applies
//     (the rewriter splits, pushes and absorbs them from there);
//   - the head becomes a Project, or an Aggregate when any term aggregates.
//
// Clause categories are compiled in that fixed order, so clause order never
// changes a query's meaning — except that a udf clause's arguments must be
// bound by data patterns or earlier udf clauses.
func (q *Query) Compile(cat *catalog.Catalog) (logical.Node, error) {
	if cat == nil {
		return nil, fmt.Errorf("lang: compile needs a catalog")
	}
	c := &compiler{q: q, src: q.Source, cat: cat, vars: map[string]*binding{}}
	return c.compile()
}

// binding records where a variable is bound in the current tree's schema.
type binding struct {
	ord  int
	kind types.Kind
	// what describes the binding site ("trades.Price", `udf "analyze"`) for
	// unification error messages.
	what string
}

type compiler struct {
	q   *Query
	src string
	cat *catalog.Catalog

	tree logical.Node
	vars map[string]*binding
}

func (c *compiler) errf(pos Pos, format string, args ...any) error {
	return errf(c.src, pos, format, args...)
}

func (c *compiler) compile() (logical.Node, error) {
	var patterns []*Pattern
	var udfs []*UDFClause
	var preds []*Predicate
	for _, cl := range c.q.Clauses {
		switch n := cl.(type) {
		case *Pattern:
			patterns = append(patterns, n)
		case *UDFClause:
			udfs = append(udfs, n)
		case *Predicate:
			preds = append(preds, n)
		default:
			return nil, c.errf(cl.clausePos(), "unsupported clause")
		}
	}
	if len(patterns) == 0 {
		return nil, c.errf(c.q.Head.Pos, "the query has no data pattern; every rule needs at least one table(...) clause")
	}
	if err := c.compilePatterns(patterns); err != nil {
		return nil, err
	}
	if err := c.compileUDFClauses(udfs); err != nil {
		return nil, err
	}
	if err := c.compilePredicates(preds); err != nil {
		return nil, err
	}
	return c.compileHead()
}

// compiledPattern is one pattern lowered to a (possibly filtered) scan plus
// its local variable bindings in term order.
type compiledPattern struct {
	src  *Pattern
	node logical.Node
	vars []localVar
}

type localVar struct {
	name string
	ord  int
	kind types.Kind
	pos  Pos
	what string
}

func (c *compiler) compilePatterns(patterns []*Pattern) error {
	compiled := make([]*compiledPattern, 0, len(patterns))
	for _, p := range patterns {
		cp, err := c.compilePattern(p)
		if err != nil {
			return err
		}
		compiled = append(compiled, cp)
	}

	c.tree = compiled[0].node
	for _, lv := range compiled[0].vars {
		c.vars[lv.name] = &binding{ord: lv.ord, kind: lv.kind, what: lv.what}
	}
	for _, cp := range compiled[1:] {
		leftWidth := c.tree.Schema().Len()
		var leftKeys, rightKeys []int
		for _, lv := range cp.vars {
			g, ok := c.vars[lv.name]
			if !ok {
				continue
			}
			if err := expr.CheckComparable(g.kind, lv.kind); err != nil {
				return c.errf(lv.pos, "variable %s cannot unify %s %s with %s %s",
					lv.name, g.what, g.kind, lv.what, lv.kind)
			}
			leftKeys = append(leftKeys, g.ord)
			rightKeys = append(rightKeys, lv.ord)
		}
		if len(leftKeys) == 0 {
			return c.errf(cp.src.Pos, "pattern %q shares no variable with the preceding patterns; cross products are not supported", cp.src.Name)
		}
		join, err := logical.NewJoin(c.tree, cp.node, leftKeys, rightKeys, nil)
		if err != nil {
			return c.errf(cp.src.Pos, "join: %v", err)
		}
		c.tree = join
		for _, lv := range cp.vars {
			if _, ok := c.vars[lv.name]; !ok {
				c.vars[lv.name] = &binding{ord: leftWidth + lv.ord, kind: lv.kind, what: lv.what}
			}
		}
	}
	return nil
}

func (c *compiler) compilePattern(p *Pattern) (*compiledPattern, error) {
	table, err := c.cat.Table(p.Name)
	if err != nil {
		msg := fmt.Sprintf("unknown table %q", p.Name)
		if _, uerr := c.cat.UDF(p.Name); uerr == nil {
			msg += fmt.Sprintf("; to call the function %q, compare its result in a predicate or use a 'udf %s(...) as Var' clause", p.Name, p.Name)
		}
		return nil, c.errf(p.Pos, "%s", msg)
	}
	if len(p.Terms) != table.Schema.Len() {
		return nil, c.errf(p.Pos, "table %q has %d columns, but the pattern has %d terms",
			table.Name, table.Schema.Len(), len(p.Terms))
	}
	scan, err := logical.NewScan(table, "")
	if err != nil {
		return nil, c.errf(p.Pos, "scan %q: %v", p.Name, err)
	}
	cp := &compiledPattern{src: p, node: scan}
	schema := scan.Schema()
	local := map[string]localVar{}
	var filters []expr.Expr
	for i, t := range p.Terms {
		col := schema.Columns[i]
		ref := func() expr.Expr { return expr.BindColumnRef(col.Name, i, col.Kind) }
		switch t.Kind {
		case termWildcard:
			// Anonymous: matches anything, binds nothing.
		case termLiteral:
			if err := expr.CheckComparable(col.Kind, t.Lit.Kind()); err != nil {
				return nil, c.errf(t.Pos, "cannot match %s column %s against a %s literal",
					col.Kind, col.QualifiedName(), t.Lit.Kind())
			}
			filters = append(filters, expr.NewBinary(expr.OpEq, ref(), expr.NewConst(t.Lit)))
		case termVar:
			if prev, ok := local[t.Var]; ok {
				// The variable repeats inside one pattern: the columns must be
				// equal (Datalog unification).
				if err := expr.CheckComparable(prev.kind, col.Kind); err != nil {
					return nil, c.errf(t.Pos, "variable %s cannot unify %s %s with %s %s",
						t.Var, prev.what, prev.kind, col.QualifiedName(), col.Kind)
				}
				filters = append(filters, expr.NewBinary(expr.OpEq,
					expr.BindColumnRef(prev.name, prev.ord, prev.kind), ref()))
				continue
			}
			lv := localVar{name: t.Var, ord: i, kind: col.Kind, pos: t.Pos, what: col.QualifiedName()}
			local[t.Var] = lv
			cp.vars = append(cp.vars, lv)
		}
	}
	if len(filters) > 0 {
		pred, err := expr.NewBinder(schema, c.cat).Bind(expr.Conjoin(filters))
		if err != nil {
			return nil, c.errf(p.Pos, "pattern %q: %v", p.Name, err)
		}
		f, err := logical.NewFilter(cp.node, pred)
		if err != nil {
			return nil, c.errf(p.Pos, "pattern %q: %v", p.Name, err)
		}
		cp.node = f
	}
	return cp, nil
}

// compileUDFClauses turns runs of udf clauses into UDFApply nodes. Adjacent
// clauses share one UDFApply (and therefore one strategy decision and one
// session pool) as long as none consumes a result produced within the run.
func (c *compiler) compileUDFClauses(clauses []*UDFClause) error {
	type pending struct {
		clause *UDFClause
		udf    *catalog.UDF
		args   []int
	}
	var group []pending
	groupResults := map[string]bool{}

	flush := func() error {
		if len(group) == 0 {
			return nil
		}
		inputWidth := c.tree.Schema().Len()
		bindings := make([]exec.UDFBinding, len(group))
		for i, g := range group {
			bindings[i] = exec.UDFBinding{
				Name:        g.udf.Name,
				ArgOrdinals: g.args,
				ResultKind:  g.udf.ResultKind,
				ResultName:  g.clause.Result.Name,
			}
		}
		apply, err := logical.NewUDFApply(c.tree, bindings)
		if err != nil {
			return c.errf(group[0].clause.Pos, "udf clause: %v", err)
		}
		c.tree = apply
		for i, g := range group {
			c.vars[g.clause.Result.Name] = &binding{
				ord:  inputWidth + i,
				kind: g.udf.ResultKind,
				what: fmt.Sprintf("udf %q", g.udf.Name),
			}
		}
		group = nil
		groupResults = map[string]bool{}
		return nil
	}

	for _, cl := range clauses {
		udf, err := c.cat.UDF(cl.Name)
		if err != nil {
			return c.errf(cl.NamePos, "unknown udf %q; the client runtime must announce it before it can be applied", cl.Name)
		}
		// An argument produced inside the current run forces a new UDFApply
		// below this clause.
		for _, a := range cl.Args {
			if groupResults[a.Name] {
				if err := flush(); err != nil {
					return err
				}
				break
			}
		}
		if len(udf.ArgKinds) > 0 && len(udf.ArgKinds) != len(cl.Args) {
			return c.errf(cl.NamePos, "udf %q expects %d arguments, got %d", udf.Name, len(udf.ArgKinds), len(cl.Args))
		}
		args := make([]int, len(cl.Args))
		for i, a := range cl.Args {
			b, ok := c.vars[a.Name]
			if !ok {
				return c.errf(a.Pos, "variable %s is not bound by a data pattern or an earlier udf clause", a.Name)
			}
			if len(udf.ArgKinds) > 0 && b.kind != udf.ArgKinds[i] {
				return c.errf(a.Pos, "udf %q argument %d wants %s, but %s is %s",
					udf.Name, i+1, udf.ArgKinds[i], a.Name, b.kind)
			}
			args[i] = b.ord
		}
		if _, bound := c.vars[cl.Result.Name]; bound || groupResults[cl.Result.Name] {
			return c.errf(cl.Result.Pos, "result variable %s is already bound; udf results must be fresh variables", cl.Result.Name)
		}
		group = append(group, pending{clause: cl, udf: udf, args: args})
		groupResults[cl.Result.Name] = true
	}
	return flush()
}

func (c *compiler) compilePredicates(preds []*Predicate) error {
	if len(preds) == 0 {
		return nil
	}
	schema := c.tree.Schema()
	binder := expr.NewBinder(schema, c.cat)
	var conjuncts []expr.Expr
	for _, p := range preds {
		e, kind, err := c.compileExpr(p.Expr)
		if err != nil {
			return err
		}
		if kind != types.KindBool {
			return c.errf(p.Expr.exprPos(), "predicate has type %s; a clause must be a BOOL expression", kind)
		}
		// Binding fills the expression engine's internal result kinds; the
		// compiler has already checked the operand kinds with positions.
		if _, err := binder.Bind(e); err != nil {
			return c.errf(p.Expr.exprPos(), "predicate: %v", err)
		}
		conjuncts = append(conjuncts, e)
	}
	f, err := logical.NewFilter(c.tree, expr.Conjoin(conjuncts))
	if err != nil {
		return c.errf(preds[0].Expr.exprPos(), "predicate: %v", err)
	}
	c.tree = f
	return nil
}

// compileExpr lowers a predicate expression to the expression engine's AST,
// computing its result kind with positioned type errors along the way.
func (c *compiler) compileExpr(n ExprNode) (expr.Expr, types.Kind, error) {
	switch e := n.(type) {
	case *LitNode:
		return expr.NewConst(e.Val), e.Val.Kind(), nil
	case *WildNode:
		return nil, 0, c.errf(e.Pos, "'_' may only appear inside a data pattern")
	case *VarNode:
		b, ok := c.vars[e.Name]
		if !ok {
			return nil, 0, c.errf(e.Pos, "variable %s is not bound by a data pattern or a udf clause", e.Name)
		}
		return expr.BindColumnRef(e.Name, b.ord, b.kind), b.kind, nil
	case *UnNode:
		in, kind, err := c.compileExpr(e.Input)
		if err != nil {
			return nil, 0, err
		}
		switch e.Op {
		case expr.OpNot:
			if kind != types.KindBool {
				return nil, 0, c.errf(e.Input.exprPos(), "'not' needs a BOOL operand, got %s", kind)
			}
			return expr.NewUnary(expr.OpNot, in), types.KindBool, nil
		case expr.OpNeg:
			if !kind.Numeric() {
				return nil, 0, c.errf(e.Input.exprPos(), "cannot negate %s", kind)
			}
			return expr.NewUnary(expr.OpNeg, in), kind, nil
		}
		return nil, 0, c.errf(e.Pos, "unsupported unary operator")
	case *BinNode:
		left, lk, err := c.compileExpr(e.Left)
		if err != nil {
			return nil, 0, err
		}
		right, rk, err := c.compileExpr(e.Right)
		if err != nil {
			return nil, 0, err
		}
		out := expr.NewBinary(e.Op, left, right)
		switch {
		case e.Op.IsComparison():
			if err := expr.CheckComparable(lk, rk); err != nil {
				return nil, 0, c.errf(e.Pos, "cannot compare %s with %s", lk, rk)
			}
			return out, types.KindBool, nil
		case e.Op == expr.OpAnd || e.Op == expr.OpOr:
			if lk != types.KindBool {
				return nil, 0, c.errf(e.Left.exprPos(), "'%s' needs BOOL operands, got %s", opWord(e.Op), lk)
			}
			if rk != types.KindBool {
				return nil, 0, c.errf(e.Right.exprPos(), "'%s' needs BOOL operands, got %s", opWord(e.Op), rk)
			}
			return out, types.KindBool, nil
		default:
			kind, err := expr.ArithmeticKind(lk, rk)
			if err != nil {
				return nil, 0, c.errf(e.Pos, "'%s' needs numeric operands, got %s and %s", e.Op, lk, rk)
			}
			return out, kind, nil
		}
	case *CallNode:
		args := make([]expr.Expr, len(e.Args))
		kinds := make([]types.Kind, len(e.Args))
		for i, a := range e.Args {
			arg, kind, err := c.compileExpr(a)
			if err != nil {
				return nil, 0, err
			}
			args[i] = arg
			kinds[i] = kind
		}
		// UDFs shadow built-ins, mirroring expr.Binder's resolution order.
		if _, err := c.cat.UDF(e.Name); err == nil {
			return nil, 0, c.errf(e.Pos, "%q is a client-site UDF; apply it with a 'udf %s(...) as Var' clause, then use the result variable", e.Name, e.Name)
		}
		bi, ok := expr.LookupBuiltin(e.Name)
		if !ok {
			return nil, 0, c.errf(e.Pos, "unknown function %q", e.Name)
		}
		if len(e.Args) < bi.MinArgs || len(e.Args) > bi.MaxArgs {
			return nil, 0, c.errf(e.Pos, "%q expects between %d and %d arguments, got %d", bi.Name, bi.MinArgs, bi.MaxArgs, len(e.Args))
		}
		kind, err := bi.ResultKind(kinds)
		if err != nil {
			return nil, 0, c.errf(e.Pos, "%q: %v", bi.Name, err)
		}
		return expr.NewFuncCall(e.Name, args...), kind, nil
	default:
		return nil, 0, c.errf(n.exprPos(), "unsupported expression")
	}
}

func opWord(op expr.Op) string {
	if op == expr.OpAnd {
		return "and"
	}
	return "or"
}

var aggByName = map[string]exec.AggFunc{
	"count": exec.AggCount,
	"sum":   exec.AggSum,
	"min":   exec.AggMin,
	"max":   exec.AggMax,
	"avg":   exec.AggAvg,
}

func (c *compiler) compileHead() (logical.Node, error) {
	h := c.q.Head
	hasAgg := false
	for _, t := range h.Terms {
		if t.Agg != "" {
			hasAgg = true
			break
		}
	}
	if !hasAgg {
		ordinals := make([]int, len(h.Terms))
		for i, t := range h.Terms {
			b, ok := c.vars[t.Var]
			if !ok {
				return nil, c.errf(t.Pos, "variable %s is not bound by a data pattern or a udf clause", t.Var)
			}
			ordinals[i] = b.ord
		}
		proj, err := logical.NewProject(c.tree, ordinals)
		if err != nil {
			return nil, c.errf(h.Pos, "head: %v", err)
		}
		return proj, nil
	}

	// The Aggregate node emits group-by columns first, then aggregates; a
	// projection on top restores the head's term order when they interleave.
	var groupBy []int
	var aggs []exec.Aggregate
	perm := make([]int, len(h.Terms))
	nGroups := 0
	for _, t := range h.Terms {
		if t.Agg == "" {
			nGroups++
		}
	}
	gi, ai := 0, 0
	for i, t := range h.Terms {
		if t.Agg == "" {
			b, ok := c.vars[t.Var]
			if !ok {
				return nil, c.errf(t.Pos, "variable %s is not bound by a data pattern or a udf clause", t.Var)
			}
			groupBy = append(groupBy, b.ord)
			perm[i] = gi
			gi++
			continue
		}
		fn := aggByName[t.Agg]
		spec := exec.Aggregate{Func: fn, Ordinal: -1, Name: t.Alias}
		if !t.Star {
			b, ok := c.vars[t.Var]
			if !ok {
				return nil, c.errf(t.Pos, "variable %s is not bound by a data pattern or a udf clause", t.Var)
			}
			switch fn {
			case exec.AggSum, exec.AggAvg:
				if !b.kind.Numeric() {
					return nil, c.errf(t.Pos, "%s() needs a numeric argument; %s is %s", t.Agg, t.Var, b.kind)
				}
			case exec.AggMin, exec.AggMax:
				if !b.kind.Comparable() {
					return nil, c.errf(t.Pos, "%s() needs a comparable argument; %s is %s", t.Agg, t.Var, b.kind)
				}
			}
			spec.Ordinal = b.ord
		}
		aggs = append(aggs, spec)
		perm[i] = nGroups + ai
		ai++
	}
	agg, err := logical.NewAggregate(c.tree, groupBy, aggs)
	if err != nil {
		return nil, c.errf(h.Pos, "head: %v", err)
	}
	identity := true
	for i, p := range perm {
		if i != p {
			identity = false
			break
		}
	}
	if identity {
		return agg, nil
	}
	proj, err := logical.NewProject(agg, perm)
	if err != nil {
		return nil, c.errf(h.Pos, "head: %v", err)
	}
	return proj, nil
}
