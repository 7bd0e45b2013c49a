package logical

import (
	"fmt"
	"strings"

	"csq/internal/exec"
	"csq/internal/expr"
)

// The rule-based rewriter. Rules are semantics-preserving tree transforms
// applied bottom-up until a fixpoint:
//
//   - merge-filters collapses stacked filters into one conjunction;
//   - push-filter-through-project moves a filter below a positional
//     projection, remapping its column references;
//   - push-filter-through-join sends single-side conjuncts below the join
//     (predicate pushdown), keeping mixed conjuncts above as a residual;
//   - absorb-pushable-into-udf-apply splits a filter above a UDF application
//     into server-evaluable conjuncts over input columns (pushed below the
//     application, so they filter before anything is shipped) and
//     UDF-dependent conjuncts (absorbed as the node's pushable predicate);
//   - absorb-project-into-udf-apply turns a positional projection directly
//     above a UDF application into its pushable projection;
//   - drop-identity-project removes projections that are the identity;
//   - annotate-scan-prunable records on a scan the conjuncts of the filter
//     above it that zone maps can evaluate.
//
// After the fixpoint, one column-demand pass (pruneColumns) pushes the
// columns each node reads down the tree: scans record them as Required, and
// Join and UDFApply inputs are narrowed to them. On its way down it also
// collapses stacked projections and absorbs a projection into the UDF
// application below it.
//
// All rules are copy-on-write (see the package documentation's ownership
// rules): they build new nodes through the constructors and never mutate
// their input.

// A Rule inspects the given node (not its children — the engine walks the
// tree) and either returns a replacement with changed=true, or the original
// with changed=false.
type Rule struct {
	Name  string
	Apply func(Node) (Node, bool, error)
}

// DefaultRules is the standard rule set, in application order.
func DefaultRules() []Rule {
	return []Rule{
		{Name: "merge-filters", Apply: mergeFilters},
		{Name: "push-filter-through-project", Apply: pushFilterThroughProject},
		{Name: "push-filter-through-join", Apply: pushFilterThroughJoin},
		{Name: "absorb-pushable-into-udf-apply", Apply: absorbPushableIntoUDFApply},
		{Name: "absorb-project-into-udf-apply", Apply: absorbProjectIntoUDFApply},
		{Name: "drop-identity-project", Apply: dropIdentityProject},
		{Name: "annotate-scan-prunable", Apply: annotateScanPrunable},
	}
}

// maxRewritePasses bounds the fixpoint iteration; the default rules only move
// work downward or shrink the tree, so in practice a handful of passes
// suffice and hitting the cap indicates a buggy rule.
const maxRewritePasses = 64

// Rewrite applies the default rules to the tree until no rule fires, runs
// the column-demand pass once over the result, and returns the rewritten
// tree. The input tree is left untouched.
func Rewrite(root Node) (out Node, err error) {
	if out, err = RewriteWith(root, DefaultRules()); err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("logical: column demand: %v", r)
		}
	}()
	out, _ = pruneColumns(out, full(out.Schema().Len()))
	return out, nil
}

// RewriteWith applies the given rules until no rule fires, without the
// column-demand pass.
func RewriteWith(root Node, rules []Rule) (Node, error) {
	cur := root
	for pass := 0; pass < maxRewritePasses; pass++ {
		next, changed, err := rewritePass(cur, rules)
		if err != nil {
			return nil, err
		}
		if !changed {
			return next, nil
		}
		cur = next
	}
	return nil, fmt.Errorf("logical: rewriter did not reach a fixpoint in %d passes", maxRewritePasses)
}

// rewritePass rewrites children first, rebuilds the node when they changed,
// then tries every rule once at the node.
func rewritePass(n Node, rules []Rule) (Node, bool, error) {
	changed := false
	kids := n.Children()
	if len(kids) > 0 {
		newKids := make([]Node, len(kids))
		kidChanged := false
		for i, c := range kids {
			nc, ch, err := rewritePass(c, rules)
			if err != nil {
				return nil, false, err
			}
			newKids[i] = nc
			kidChanged = kidChanged || ch
		}
		if kidChanged {
			rebuilt, err := withChildren(n, newKids)
			if err != nil {
				return nil, false, err
			}
			n = rebuilt
			changed = true
		}
	}
	for _, r := range rules {
		out, fired, err := r.Apply(n)
		if err != nil {
			return nil, false, fmt.Errorf("logical: rule %s: %w", r.Name, err)
		}
		if fired {
			n = out
			changed = true
		}
	}
	return n, changed, nil
}

// withChildren rebuilds a node with replacement children through its
// constructor, revalidating and re-inferring the schema.
func withChildren(n Node, kids []Node) (Node, error) {
	switch t := n.(type) {
	case *Filter:
		return NewFilter(kids[0], t.Pred)
	case *Project:
		return NewProject(kids[0], t.Ordinals)
	case *Join:
		return NewJoin(kids[0], kids[1], t.LeftKeys, t.RightKeys, t.Residual)
	case *Aggregate:
		return NewAggregate(kids[0], t.GroupBy, t.Aggs)
	case *UDFApply:
		return newUDFApply(kids[0], t.UDFs, t.Pushable, t.Project)
	default:
		if len(kids) != 0 {
			return nil, fmt.Errorf("logical: cannot rebuild %T with children", n)
		}
		return n, nil
	}
}

// mergeFilters: Filter(p1) over Filter(p2) becomes one Filter(p2 AND p1) —
// the inner predicate keeps evaluating first.
func mergeFilters(n Node) (Node, bool, error) {
	outer, ok := n.(*Filter)
	if !ok {
		return n, false, nil
	}
	inner, ok := outer.Input.(*Filter)
	if !ok {
		return n, false, nil
	}
	pred := expr.Conjoin(append(expr.Conjuncts(inner.Pred), expr.Conjuncts(outer.Pred)...))
	out, err := NewFilter(inner.Input, pred)
	return out, err == nil, err
}

// pushFilterThroughProject: a filter over a positional projection becomes the
// projection over the filter, with the predicate's ordinals remapped to the
// pre-projection schema.
func pushFilterThroughProject(n Node) (Node, bool, error) {
	f, ok := n.(*Filter)
	if !ok {
		return n, false, nil
	}
	p, ok := f.Input.(*Project)
	if !ok {
		return n, false, nil
	}
	mapping := make(map[int]int, len(p.Ordinals))
	for i, o := range p.Ordinals {
		mapping[i] = o
	}
	pred, err := expr.RemapColumns(f.Pred, mapping)
	if err != nil {
		return nil, false, err
	}
	nf, err := NewFilter(p.Input, pred)
	if err != nil {
		return nil, false, err
	}
	out, err := NewProject(nf, p.Ordinals)
	return out, err == nil, err
}

// pushFilterThroughJoin: conjuncts of a filter above a join that reference
// only one side (and call no client-site UDF) move below the join into that
// side; mixed conjuncts stay above as a residual filter.
func pushFilterThroughJoin(n Node) (Node, bool, error) {
	f, ok := n.(*Filter)
	if !ok {
		return n, false, nil
	}
	j, ok := f.Input.(*Join)
	if !ok {
		return n, false, nil
	}
	leftW := j.Left.Schema().Len()
	totalW := j.Schema().Len()
	var left, right, residual []expr.Expr
	for _, c := range expr.Conjuncts(f.Pred) {
		cols := expr.Columns(c)
		switch {
		case !expr.ServerOnly(c) || len(cols) == 0:
			residual = append(residual, c)
		case cols[len(cols)-1] < leftW:
			left = append(left, c)
		case cols[0] >= leftW && cols[len(cols)-1] < totalW:
			right = append(right, expr.ShiftColumns(c, 0, -leftW))
		default:
			residual = append(residual, c)
		}
	}
	if len(left) == 0 && len(right) == 0 {
		return n, false, nil
	}
	newLeft, newRight := j.Left, j.Right
	var err error
	if len(left) > 0 {
		if newLeft, err = NewFilter(j.Left, expr.Conjoin(left)); err != nil {
			return nil, false, err
		}
	}
	if len(right) > 0 {
		if newRight, err = NewFilter(j.Right, expr.Conjoin(right)); err != nil {
			return nil, false, err
		}
	}
	nj, err := NewJoin(newLeft, newRight, j.LeftKeys, j.RightKeys, j.Residual)
	if err != nil {
		return nil, false, err
	}
	if len(residual) == 0 {
		return nj, true, nil
	}
	out, err := NewFilter(nj, expr.Conjoin(residual))
	return out, err == nil, err
}

// absorbPushableIntoUDFApply splits a filter directly above a UDF application
// (with no pushable projection yet) into:
//
//   - conjuncts over input columns only, with no client-site call: pushed
//     below the application, filtering before anything is shipped;
//   - conjuncts evaluable at the client (they may reference UDF result
//     columns): absorbed as the node's pushable predicate;
//   - everything else: kept above as a residual filter.
func absorbPushableIntoUDFApply(n Node) (Node, bool, error) {
	f, ok := n.(*Filter)
	if !ok {
		return n, false, nil
	}
	u, ok := f.Input.(*UDFApply)
	if !ok || len(u.Project) > 0 {
		return n, false, nil
	}
	inW := u.InputWidth()
	extW := u.ExtendedSchema().Len()
	avail := make(map[int]bool, extW)
	for i := 0; i < extW; i++ {
		avail[i] = true
	}
	udfResults := make(map[string]bool, len(u.UDFs))
	for _, b := range u.UDFs {
		udfResults[strings.ToLower(b.Name)] = true
	}
	var below, absorb, residual []expr.Expr
	for _, c := range expr.Conjuncts(f.Pred) {
		switch {
		case expr.ServerOnly(c) && expr.MaxColumn(c) < inW && len(expr.Columns(c)) > 0:
			below = append(below, c)
		case expr.PushableToClient(c, avail, udfResults):
			absorb = append(absorb, c)
		default:
			residual = append(residual, c)
		}
	}
	if len(below) == 0 && len(absorb) == 0 {
		return n, false, nil
	}
	input := u.Input
	var err error
	if len(below) > 0 {
		if input, err = NewFilter(u.Input, expr.Conjoin(below)); err != nil {
			return nil, false, err
		}
	}
	pushable := expr.Conjoin(append(expr.Conjuncts(u.Pushable), absorb...))
	nu, err := newUDFApply(input, u.UDFs, pushable, nil)
	if err != nil {
		return nil, false, err
	}
	if len(residual) == 0 {
		return nu, true, nil
	}
	out, err := NewFilter(nu, expr.Conjoin(residual))
	return out, err == nil, err
}

// absorbProjectIntoUDFApply turns a positional projection directly above a
// UDF application into its pushable projection (composing with one already
// absorbed).
func absorbProjectIntoUDFApply(n Node) (Node, bool, error) {
	p, ok := n.(*Project)
	if !ok {
		return n, false, nil
	}
	u, ok := p.Input.(*UDFApply)
	if !ok {
		return n, false, nil
	}
	out, err := newUDFApply(u.Input, u.UDFs, u.Pushable, pick(u.Project, p.Ordinals))
	return out, err == nil, err
}

// annotateScanPrunable installs the prunable-predicate annotation on a scan
// directly below a filter: the conjuncts of the form <column> <cmp>
// <constant> a zone-mapped storage backend can evaluate against segment
// min/max summaries. The filter node is kept — rows are still filtered one by
// one — so the annotation is purely an access-path hint and the rule is a
// no-op for row-store scans. It refires only when the computed conjunct set
// changes, which keeps the fixpoint finite.
func annotateScanPrunable(n Node) (Node, bool, error) {
	f, ok := n.(*Filter)
	if !ok {
		return n, false, nil
	}
	sc, ok := f.Input.(*Scan)
	if !ok {
		return n, false, nil
	}
	prunable := prunableConjuncts(f.Pred, sc.Schema().Len())
	if fmt.Sprint(prunable) == fmt.Sprint(sc.Prunable) { // expressions are immutable: renderings identify them
		return n, false, nil
	}
	if prunable == nil {
		prunable = []expr.Expr{} // explicitly clear a stale annotation
	}
	annotated := *sc
	annotated.Prunable = prunable
	out, err := NewFilter(&annotated, f.Pred)
	return out, err == nil, err
}

// prunableConjuncts returns the conjuncts of pred of the form <bound column>
// <cmp> <constant> (either operand order) over the first width ordinals.
func prunableConjuncts(pred expr.Expr, width int) []expr.Expr {
	var out []expr.Expr
	for _, c := range expr.Conjuncts(pred) {
		b, ok := c.(*expr.Binary)
		if !ok {
			continue
		}
		if col, _, _, ok := expr.SplitColConstComparison(b); ok && col < width {
			out = append(out, c)
		}
	}
	return out
}

// dropIdentityProject removes a projection that returns its input unchanged.
func dropIdentityProject(n Node) (Node, bool, error) {
	p, ok := n.(*Project)
	if !ok {
		return n, false, nil
	}
	if len(p.Ordinals) != p.Input.Schema().Len() {
		return n, false, nil
	}
	for i, o := range p.Ordinals {
		if i != o {
			return n, false, nil
		}
	}
	return p.Input, true, nil
}

// pruneColumns is the column-demand pass, a top-down π pushdown. need marks
// the output columns of n that the plan above reads; each node adds the
// columns it reads itself (predicates, join keys and residual, group-by and
// aggregate arguments, distinct keys, UDF arguments) and hands the demand to
// its inputs. A Scan records its demand as Required (nil when it is every
// column), and a Join or UDFApply input that would produce columns nobody
// reads is narrowed (see narrow). The result produces every needed column;
// pos maps each of n's output ordinals that survives to its ordinal in the
// result.
func pruneColumns(n Node, need []bool) (out Node, pos map[int]int) {
	switch t := n.(type) {
	case *Scan:
		s := *t
		if s.Required = marked(need); len(s.Required) == len(need) {
			s.Required = nil
		}
		return &s, identity(len(need))
	case *Filter:
		in, pos := pruneColumns(t.Input, demand(need, expr.Columns(t.Pred)...))
		return must(NewFilter(in, must(expr.RemapColumns(t.Pred, pos)))), pos
	case *Project:
		switch in := t.Input.(type) {
		case *Project:
			return pruneColumns(must(NewProject(in.Input, pick(in.Ordinals, t.Ordinals))), need)
		case *UDFApply:
			absorbed, _, err := absorbProjectIntoUDFApply(t)
			return pruneColumns(must(absorbed, err), need)
		}
		in, inPos := pruneColumns(t.Input, demand(make([]bool, t.Input.Schema().Len()), t.Ordinals...))
		out, _, _ = dropIdentityProject(must(NewProject(in, remapped(t.Ordinals, inPos))))
		return out, identity(len(need))
	case *Aggregate:
		inNeed := demand(make([]bool, t.Input.Schema().Len()), t.GroupBy...)
		for _, a := range t.Aggs {
			if a.Ordinal >= 0 {
				inNeed[a.Ordinal] = true
			}
		}
		in, inPos := pruneColumns(t.Input, inNeed)
		aggs := append([]exec.Aggregate(nil), t.Aggs...)
		for i, a := range aggs {
			if a.Ordinal >= 0 {
				aggs[i].Ordinal = inPos[a.Ordinal]
			}
		}
		return must(NewAggregate(in, remapped(t.GroupBy, inPos), aggs)), identity(len(need))
	case *Join:
		lw := t.Left.Schema().Len()
		need = demand(need, append(expr.Columns(t.Residual), t.LeftKeys...)...)
		for _, k := range t.RightKeys {
			need[lw+k] = true
		}
		left, lpos := narrow(t.Left, need[:lw])
		right, rpos := narrow(t.Right, need[lw:])
		pos = concatPos(lpos, lw, left.Schema().Len(), rpos)
		residual := must(expr.RemapColumns(t.Residual, pos))
		return must(NewJoin(left, right, remapped(t.LeftKeys, lpos), remapped(t.RightKeys, rpos), residual)), pos
	case *UDFApply:
		inW := t.InputWidth()
		ext := need
		if len(t.Project) > 0 {
			ext = demand(make([]bool, inW+len(t.UDFs)), t.Project...)
		}
		ext = demand(ext, expr.Columns(t.Pushable)...)
		in, inPos := narrow(t.Input, demand(ext[:inW], t.ArgOrdinals()...))
		pos = concatPos(inPos, inW, in.Schema().Len(), identity(len(t.UDFs)))
		udfs := append([]exec.UDFBinding(nil), t.UDFs...)
		for i := range udfs {
			udfs[i].ArgOrdinals = remapped(udfs[i].ArgOrdinals, inPos)
		}
		out = must(newUDFApply(in, udfs, must(expr.RemapColumns(t.Pushable, pos)), remapped(t.Project, pos)))
		if len(t.Project) > 0 {
			pos = identity(len(need))
		}
		return out, pos
	default:
		return n, identity(len(need))
	}
}

// narrow prunes a Join or UDFApply input to need and drops whatever else it
// would still produce, through a Project of the needed columns; the Project
// case folds it into a projection below or drops it when it removes nothing.
func narrow(n Node, need []bool) (Node, map[int]int) {
	keep := marked(need)
	if len(keep) == len(need) {
		return pruneColumns(n, need)
	}
	out, _ := pruneColumns(must(NewProject(n, keep)), full(len(keep)))
	return out, positions(keep)
}

// must panics with a constructor's error; Rewrite returns it as an error.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// full demands every one of width columns.
func full(width int) []bool {
	need := make([]bool, width)
	for i := range need {
		need[i] = true
	}
	return need
}

// demand returns a copy of need with the given ordinals marked too.
func demand(need []bool, ords ...int) []bool {
	out := append([]bool(nil), need...)
	for _, o := range ords {
		out[o] = true
	}
	return out
}

// marked lists the ordinals need marks, in order (empty, not nil, for none).
func marked(need []bool) []int {
	out := make([]int, 0, len(need))
	for o, ok := range need {
		if ok {
			out = append(out, o)
		}
	}
	return out
}

// positions is the position map of keeping the ordinals keep, in order.
func positions(keep []int) map[int]int {
	pos := make(map[int]int, len(keep))
	for i, o := range keep {
		pos[o] = i
	}
	return pos
}

// identity is the position map of width columns that all stay in place.
func identity(width int) map[int]int { return positions(marked(full(width))) }

// remapped rewrites ordinals through a position map.
func remapped(ords []int, pos map[int]int) []int {
	out := make([]int, len(ords))
	for i, o := range ords {
		out[i] = pos[o]
	}
	return out
}

// pick returns ords[i] for each i in idx; no ords, as in a UDFApply
// without a projection, is the identity.
func pick(ords, idx []int) []int {
	if len(ords) == 0 {
		return idx
	}
	out := make([]int, len(idx))
	for j, i := range idx {
		out[j] = ords[i]
	}
	return out
}

// concatPos is the position map of a concatenated schema: the first part,
// aw columns wide and now newAW wide, through a, the rest through b.
func concatPos(a map[int]int, aw, newAW int, b map[int]int) map[int]int {
	pos := make(map[int]int, len(a)+len(b))
	for o, p := range a {
		pos[o] = p
	}
	for o, p := range b {
		pos[aw+o] = newAW + p
	}
	return pos
}
