// Package logical implements the logical plan IR: an algebraic tree of
// relational operators (Scan, Filter, Project, Join, Aggregate,
// Distinct, Limit, UDFApply) that describes *what* a query computes,
// independent of the physical strategy used to compute it. The planner
// pipeline is
//
//	construct (thin builders) → rewrite (rule engine, this package) →
//	lower (internal/plan, choosing physical operators per UDFApply)
//
// # Tree ownership
//
// Nodes are built through constructors and are immutable afterwards: neither
// the rewriter nor the lowering layer mutates a node in place. Rewrite rules
// are copy-on-write — a rule that changes a node returns a fresh node (and
// fresh ancestors up the spine), sharing the untouched subtrees of the
// original. Callers may therefore hold on to a pre-rewrite tree and the
// rewritten tree at the same time; predicates moved by the rewriter are
// cloned, never aliased, before their column references are rewritten.
//
// # Schema inference
//
// Every node's output schema is inferred eagerly at construction from its
// children, bottom-up, and cached on the node:
//
//   - Scan produces the catalog table's columns qualified by the alias (or
//     the table name);
//   - Filter, Distinct and Limit pass their input schema through unchanged;
//   - Project produces the input columns selected by its ordinals, in
//     ordinal-list order;
//   - Join produces the left schema followed by the right schema;
//   - Aggregate produces the group-by columns followed by one column per
//     aggregate (typed by the aggregate function as in the execution engine);
//   - UDFApply produces the input schema extended with one result column per
//     UDF, narrowed by its pushable projection when one is set.
//
// Constructors validate ordinals against their child schemas, so a
// successfully built tree can always answer Schema() without error.
package logical

import (
	"fmt"
	"strings"

	"csq/internal/catalog"
	"csq/internal/exec"
	"csq/internal/expr"
	"csq/internal/types"
)

// Node is one logical plan operator. A Node describes the relation it
// produces (Schema) and its inputs (Children); it carries no execution state.
type Node interface {
	// Schema is the node's output schema, inferred at construction.
	Schema() *types.Schema
	// Children returns the direct inputs, left to right.
	Children() []Node
	// String is a one-line description of the node without its children; use
	// Format for the whole tree.
	String() string
}

// Scan reads a stored relation registered in the catalog. The schema is
// looked up from the catalog entry at construction; the lowering layer
// resolves the entry's storage handle when it instantiates the scan, so a
// Scan can be planned (and its schema inferred) without touching storage.
type Scan struct {
	// Table is the catalog entry: schema, statistics, and the storage handle
	// the lowering layer instantiates.
	Table *catalog.Table
	// Alias optionally re-qualifies the produced columns (FROM t AS a).
	Alias string

	// Required is the scan-pushdown annotation the rewriter's column-demand
	// pass installs: the table ordinals the plan above the scan reads ([] for
	// none, as under COUNT(*)), or nil for all of them. The schema is
	// unaffected — a columnar scan still produces full-width tuples, but
	// materializes only these positions (the rest stay NULL placeholders
	// nothing above reads). Row-store scans ignore it.
	Required []int
	// Prunable is the scan-pushdown annotation installed by the rewriter's
	// annotate-scan-prunable rule: the conjuncts of the filter directly above
	// the scan of the form <column> <cmp> <constant>. They are advisory — the
	// filter itself stays in the tree and still runs row by row — but a
	// zone-mapped storage backend may use them to skip whole segments.
	Prunable []expr.Expr

	schema *types.Schema
}

// NewScan builds a scan over a catalog table.
func NewScan(t *catalog.Table, alias string) (*Scan, error) {
	if t == nil || t.Schema == nil {
		return nil, fmt.Errorf("logical: scan over nil table")
	}
	schema := t.Schema.Clone()
	if alias != "" {
		schema = schema.WithQualifier(alias)
	} else {
		schema = schema.WithQualifier(t.Name)
	}
	return &Scan{Table: t, Alias: alias, schema: schema}, nil
}

// Schema implements Node.
func (s *Scan) Schema() *types.Schema { return s.schema }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// String implements Node.
func (s *Scan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scan %s", s.Table.Name)
	if s.Alias != "" {
		fmt.Fprintf(&b, " as %s", s.Alias)
	}
	if s.Required != nil {
		fmt.Fprintf(&b, " cols=%v", s.Required)
	}
	if len(s.Prunable) > 0 {
		parts := make([]string, len(s.Prunable))
		for i, p := range s.Prunable {
			parts[i] = p.String()
		}
		fmt.Fprintf(&b, " prune=[%s]", strings.Join(parts, " "))
	}
	return b.String()
}

// Filter keeps the input rows satisfying a predicate bound against the input
// schema.
type Filter struct {
	Input Node
	Pred  expr.Expr
}

// NewFilter wraps the input with a predicate. A nil predicate is rejected —
// an unconditional filter is just its input.
func NewFilter(input Node, pred expr.Expr) (*Filter, error) {
	if input == nil {
		return nil, fmt.Errorf("logical: filter over nil input")
	}
	if pred == nil {
		return nil, fmt.Errorf("logical: filter needs a predicate")
	}
	if !expr.ReferencesOnly(pred, input.Schema().Len()) {
		return nil, fmt.Errorf("logical: filter predicate %s references columns outside its %d-column input", pred, input.Schema().Len())
	}
	return &Filter{Input: input, Pred: pred}, nil
}

// Schema implements Node.
func (f *Filter) Schema() *types.Schema { return f.Input.Schema() }

// Children implements Node.
func (f *Filter) Children() []Node { return []Node{f.Input} }

// String implements Node.
func (f *Filter) String() string { return fmt.Sprintf("filter %s", f.Pred) }

// Project narrows (and/or reorders) the input to the columns at the given
// ordinals. It is a positional projection — the shape pushable projections
// and pruning produce; expression projections are a Project over computed
// columns at the physical layer and are not represented here.
type Project struct {
	Input    Node
	Ordinals []int

	schema *types.Schema
}

// NewProject builds a positional projection.
func NewProject(input Node, ordinals []int) (*Project, error) {
	if input == nil {
		return nil, fmt.Errorf("logical: project over nil input")
	}
	if len(ordinals) == 0 {
		return nil, fmt.Errorf("logical: project needs at least one ordinal")
	}
	schema, err := input.Schema().Project(ordinals)
	if err != nil {
		return nil, fmt.Errorf("logical: project: %w", err)
	}
	return &Project{Input: input, Ordinals: append([]int(nil), ordinals...), schema: schema}, nil
}

// Schema implements Node.
func (p *Project) Schema() *types.Schema { return p.schema }

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Input} }

// String implements Node.
func (p *Project) String() string { return fmt.Sprintf("project %v", p.Ordinals) }

// Join is an equi-join of two inputs on pairwise-matching key ordinals, with
// an optional residual predicate over the concatenated schema.
type Join struct {
	Left, Right Node
	LeftKeys    []int
	RightKeys   []int
	Residual    expr.Expr

	schema *types.Schema
}

// NewJoin builds an equi-join node.
func NewJoin(left, right Node, leftKeys, rightKeys []int, residual expr.Expr) (*Join, error) {
	if left == nil || right == nil {
		return nil, fmt.Errorf("logical: join over nil input")
	}
	if len(leftKeys) == 0 || len(leftKeys) != len(rightKeys) {
		return nil, fmt.Errorf("logical: join needs matching, non-empty key lists")
	}
	for _, k := range leftKeys {
		if k < 0 || k >= left.Schema().Len() {
			return nil, fmt.Errorf("logical: join left key %d out of range", k)
		}
	}
	for _, k := range rightKeys {
		if k < 0 || k >= right.Schema().Len() {
			return nil, fmt.Errorf("logical: join right key %d out of range", k)
		}
	}
	schema := left.Schema().Concat(right.Schema())
	if residual != nil && !expr.ReferencesOnly(residual, schema.Len()) {
		return nil, fmt.Errorf("logical: join residual %s references columns outside the concatenated schema", residual)
	}
	return &Join{
		Left: left, Right: right,
		LeftKeys:  append([]int(nil), leftKeys...),
		RightKeys: append([]int(nil), rightKeys...),
		Residual:  residual,
		schema:    schema,
	}, nil
}

// Schema implements Node.
func (j *Join) Schema() *types.Schema { return j.schema }

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }

// String implements Node.
func (j *Join) String() string {
	s := fmt.Sprintf("join left%v=right%v", j.LeftKeys, j.RightKeys)
	if j.Residual != nil {
		s += fmt.Sprintf(" residual %s", j.Residual)
	}
	return s
}

// Aggregate groups the input on the group-by ordinals and computes one output
// column per aggregate, after the group-by columns. Aggregate specs reuse the
// execution engine's descriptor type; the schema inference mirrors
// exec.NewHashAggregate exactly.
type Aggregate struct {
	Input   Node
	GroupBy []int
	Aggs    []exec.Aggregate

	schema *types.Schema
}

// NewAggregate builds an aggregation node.
func NewAggregate(input Node, groupBy []int, aggs []exec.Aggregate) (*Aggregate, error) {
	if input == nil {
		return nil, fmt.Errorf("logical: aggregate over nil input")
	}
	if len(aggs) == 0 {
		return nil, fmt.Errorf("logical: aggregate needs at least one aggregate column")
	}
	in := input.Schema()
	cols := make([]types.Column, 0, len(groupBy)+len(aggs))
	for _, g := range groupBy {
		if g < 0 || g >= in.Len() {
			return nil, fmt.Errorf("logical: group-by ordinal %d out of range", g)
		}
		cols = append(cols, in.Columns[g])
	}
	for _, a := range aggs {
		if a.Func != exec.AggCount && (a.Ordinal < 0 || a.Ordinal >= in.Len()) {
			return nil, fmt.Errorf("logical: aggregate ordinal %d out of range", a.Ordinal)
		}
		kind := types.KindFloat
		switch a.Func {
		case exec.AggCount:
			kind = types.KindInt
		case exec.AggMin, exec.AggMax:
			kind = in.Columns[a.Ordinal].Kind
		case exec.AggSum:
			if a.Ordinal >= 0 && in.Columns[a.Ordinal].Kind == types.KindInt {
				kind = types.KindInt
			}
		}
		name := a.Name
		if name == "" {
			name = a.Func.String()
		}
		cols = append(cols, types.Column{Name: name, Kind: kind})
	}
	return &Aggregate{
		Input:   input,
		GroupBy: append([]int(nil), groupBy...),
		Aggs:    append([]exec.Aggregate(nil), aggs...),
		schema:  types.NewSchema(cols...),
	}, nil
}

// Schema implements Node.
func (a *Aggregate) Schema() *types.Schema { return a.schema }

// Children implements Node.
func (a *Aggregate) Children() []Node { return []Node{a.Input} }

// String implements Node.
func (a *Aggregate) String() string {
	specs := make([]string, len(a.Aggs))
	for i, g := range a.Aggs {
		if g.Func == exec.AggCount && g.Ordinal < 0 {
			specs[i] = "COUNT(*)"
		} else {
			specs[i] = fmt.Sprintf("%s(%d)", g.Func, g.Ordinal)
		}
	}
	return fmt.Sprintf("aggregate group=%v aggs=[%s]", a.GroupBy, strings.Join(specs, " "))
}

// Distinct eliminates duplicates on the key ordinals (all columns when nil).
type Distinct struct {
	Input    Node
	Ordinals []int
}

// NewDistinct builds a duplicate-elimination node.
func NewDistinct(input Node, ordinals []int) (*Distinct, error) {
	if input == nil {
		return nil, fmt.Errorf("logical: distinct over nil input")
	}
	for _, o := range ordinals {
		if o < 0 || o >= input.Schema().Len() {
			return nil, fmt.Errorf("logical: distinct ordinal %d out of range", o)
		}
	}
	return &Distinct{Input: input, Ordinals: append([]int(nil), ordinals...)}, nil
}

// Schema implements Node.
func (d *Distinct) Schema() *types.Schema { return d.Input.Schema() }

// Children implements Node.
func (d *Distinct) Children() []Node { return []Node{d.Input} }

// String implements Node.
func (d *Distinct) String() string {
	if len(d.Ordinals) == 0 {
		return "distinct (all columns)"
	}
	return fmt.Sprintf("distinct %v", d.Ordinals)
}

// Limit caps the input at N rows.
type Limit struct {
	Input Node
	N     int
}

// NewLimit builds a limit node.
func NewLimit(input Node, n int) (*Limit, error) {
	if input == nil {
		return nil, fmt.Errorf("logical: limit over nil input")
	}
	if n < 0 {
		return nil, fmt.Errorf("logical: negative limit %d", n)
	}
	return &Limit{Input: input, N: n}, nil
}

// Schema implements Node.
func (l *Limit) Schema() *types.Schema { return l.Input.Schema() }

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.Input} }

// String implements Node.
func (l *Limit) String() string { return fmt.Sprintf("limit %d", l.N) }

// UDFApply applies one or more client-site UDFs to its input: each UDF
// contributes one result column appended to the input schema. It is the
// logical placement of the paper's client-site work; the lowering layer
// chooses the physical strategy (naive, semi-join, client-site join) per
// UDFApply node from measured statistics.
//
// Pushable and Project are the node's absorbed client-side work: a predicate
// over the extended schema and a positional projection of it. They are
// normally installed by the rewriter (absorbing adjacent Filter and Project
// nodes), which is what lets the physical layer evaluate them at the client
// for the client-site join or at the server above the join-back for the
// other strategies.
type UDFApply struct {
	Input Node
	// UDFs are the client-site UDFs to apply; argument ordinals reference the
	// input schema.
	UDFs []exec.UDFBinding
	// Pushable is an optional predicate over the extended schema (input
	// columns followed by one result column per UDF).
	Pushable expr.Expr
	// Project optionally narrows the output to these extended-schema
	// ordinals.
	Project []int

	schema *types.Schema
}

// NewUDFApply builds a UDF application with no absorbed predicate or
// projection.
func NewUDFApply(input Node, udfs []exec.UDFBinding) (*UDFApply, error) {
	return newUDFApply(input, udfs, nil, nil)
}

// newUDFApply is the full constructor the rewriter uses when absorbing
// pushable work or pruning the input.
func newUDFApply(input Node, udfs []exec.UDFBinding, pushable expr.Expr, project []int) (*UDFApply, error) {
	if input == nil {
		return nil, fmt.Errorf("logical: udf-apply over nil input")
	}
	if len(udfs) == 0 {
		return nil, fmt.Errorf("logical: udf-apply needs at least one UDF")
	}
	width := input.Schema().Len()
	for _, u := range udfs {
		if strings.TrimSpace(u.Name) == "" {
			return nil, fmt.Errorf("logical: udf-apply with unnamed UDF")
		}
		if len(u.ArgOrdinals) == 0 {
			return nil, fmt.Errorf("logical: UDF %s has no argument columns", u.Name)
		}
		for _, o := range u.ArgOrdinals {
			if o < 0 || o >= width {
				return nil, fmt.Errorf("logical: UDF %s argument ordinal %d out of range", u.Name, o)
			}
		}
	}
	ext := exec.ExtendedSchema(input.Schema(), udfs)
	schema := ext
	if pushable != nil && !expr.ReferencesOnly(pushable, ext.Len()) {
		return nil, fmt.Errorf("logical: pushable predicate %s references columns outside the extended schema", pushable)
	}
	if len(project) > 0 {
		var err error
		schema, err = ext.Project(project)
		if err != nil {
			return nil, fmt.Errorf("logical: pushable projection: %w", err)
		}
	}
	return &UDFApply{
		Input:    input,
		UDFs:     append([]exec.UDFBinding(nil), udfs...),
		Pushable: pushable,
		Project:  append([]int(nil), project...),
		schema:   schema,
	}, nil
}

// Schema implements Node.
func (u *UDFApply) Schema() *types.Schema { return u.schema }

// Children implements Node.
func (u *UDFApply) Children() []Node { return []Node{u.Input} }

// InputWidth is the number of input columns below the UDF result block.
func (u *UDFApply) InputWidth() int { return u.Input.Schema().Len() }

// ExtendedSchema is the input schema extended with the UDF result columns,
// before the pushable projection narrows it.
func (u *UDFApply) ExtendedSchema() *types.Schema {
	return exec.ExtendedSchema(u.Input.Schema(), u.UDFs)
}

// ArgOrdinals returns the sorted union of all UDF argument ordinals.
func (u *UDFApply) ArgOrdinals() []int {
	args := make([]bool, u.InputWidth())
	for _, b := range u.UDFs {
		args = demand(args, b.ArgOrdinals...)
	}
	return marked(args)
}

// String implements Node.
func (u *UDFApply) String() string {
	names := make([]string, len(u.UDFs))
	for i, b := range u.UDFs {
		args := make([]string, len(b.ArgOrdinals))
		for j, o := range b.ArgOrdinals {
			args[j] = fmt.Sprint(o)
		}
		names[i] = fmt.Sprintf("%s(%s)", b.Name, strings.Join(args, ","))
	}
	s := fmt.Sprintf("udf-apply [%s]", strings.Join(names, " "))
	if u.Pushable != nil {
		s += fmt.Sprintf(" pushable=%s", u.Pushable)
	}
	if len(u.Project) > 0 {
		s += fmt.Sprintf(" project=%v", u.Project)
	}
	return s
}

// Walk visits the tree in pre-order; the visitor may return false to skip a
// node's children.
func Walk(n Node, visit func(Node) bool) {
	if n == nil {
		return
	}
	if !visit(n) {
		return
	}
	for _, c := range n.Children() {
		Walk(c, visit)
	}
}

// Applies returns every UDFApply node of the tree in post-order (inputs
// before the nodes above them) — the order the lowering layer plans them in,
// so an outer application can instantiate its already-planned inputs for
// sampling.
func Applies(root Node) []*UDFApply {
	var out []*UDFApply
	var rec func(Node)
	rec = func(n Node) {
		if n == nil {
			return
		}
		for _, c := range n.Children() {
			rec(c)
		}
		if u, ok := n.(*UDFApply); ok {
			out = append(out, u)
		}
	}
	rec(root)
	return out
}

// Format renders the tree as an indented multi-line string, one node per
// line, children indented below their parent — the EXPLAIN rendering of the
// logical plan.
func Format(root Node) string {
	var b strings.Builder
	formatInto(&b, root, 0)
	return b.String()
}

func formatInto(b *strings.Builder, n Node, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	if n == nil {
		b.WriteString("<nil>\n")
		return
	}
	b.WriteString(n.String())
	b.WriteByte('\n')
	for _, c := range n.Children() {
		formatInto(b, c, depth+1)
	}
}
