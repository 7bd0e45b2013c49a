package plan

import (
	"fmt"
	"strings"

	"csq/internal/logical"
)

// Explain renders the planned tree in all three layers: the logical tree as
// constructed, the tree after rule-based rewriting, and the lowered physical
// plan with the chosen strategy and session fan-out per UDF application.
func (tp *TreePlan) Explain() string {
	var b strings.Builder
	b.WriteString("logical plan:\n")
	indentInto(&b, logical.Format(tp.Original))
	b.WriteString("rewritten plan:\n")
	indentInto(&b, logical.Format(tp.Root))
	b.WriteString("physical plan:\n")
	tp.physicalInto(&b, tp.Root, 1)
	return b.String()
}

func indentInto(b *strings.Builder, tree string) {
	for _, line := range strings.Split(strings.TrimRight(tree, "\n"), "\n") {
		b.WriteString("  ")
		b.WriteString(line)
		b.WriteByte('\n')
	}
}

func writeLine(b *strings.Builder, depth int, s string) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	b.WriteString(s)
	b.WriteByte('\n')
}

// physicalInto renders the operator tree NewOperator would instantiate, with
// per-UDFApply decision annotations.
func (tp *TreePlan) physicalInto(b *strings.Builder, n logical.Node, depth int) {
	switch t := n.(type) {
	case *logical.Scan:
		pe, columnar := scanPruneEstimate(t)
		if !columnar {
			writeLine(b, depth, fmt.Sprintf("table-scan %s", t.Table.Name))
			break
		}
		line := fmt.Sprintf("columnar-scan %s", t.Table.Name)
		if t.Required != nil {
			line += fmt.Sprintf(" cols=%v", t.Required)
		}
		if len(t.Prunable) > 0 {
			line += fmt.Sprintf(" prune=%v", t.Prunable)
		}
		line += fmt.Sprintf(" [segments %d/%d after pruning]", pe.Survive, pe.Total)
		writeLine(b, depth, line)
	case *logical.Filter:
		writeLine(b, depth, fmt.Sprintf("filter %s", t.Pred))
		tp.physicalInto(b, t.Input, depth+1)
	case *logical.Project:
		writeLine(b, depth, fmt.Sprintf("project %v", t.Ordinals))
		tp.physicalInto(b, t.Input, depth+1)
	case *logical.Join:
		writeLine(b, depth, t.String()+tp.memSuffix(t))
		tp.physicalInto(b, t.Left, depth+1)
		tp.physicalInto(b, t.Right, depth+1)
	case *logical.Aggregate:
		writeLine(b, depth, "hash-"+t.String()+tp.memSuffix(t))
		tp.physicalInto(b, t.Input, depth+1)
	case *logical.UDFApply:
		tp.applyInto(b, t, depth)
	default:
		writeLine(b, depth, fmt.Sprintf("<unknown %T>", n))
	}
}

// applyInto renders one UDF application the way it lowers: the strategy
// operator plus, for the server-joined strategies, the server-side filter
// and projection wrappers above it.
func (tp *TreePlan) applyInto(b *strings.Builder, u *logical.UDFApply, depth int) {
	d := tp.decisions[u]
	if d == nil {
		writeLine(b, depth, fmt.Sprintf("%s (UNPLANNED)", u))
		tp.physicalInto(b, u.Input, depth+1)
		return
	}
	names := make([]string, len(u.UDFs))
	for i, bnd := range u.UDFs {
		names[i] = bnd.Name
	}
	serverSide := d.Strategy == StrategySemiJoin || d.Strategy == StrategyNaive
	if serverSide && len(u.Project) > 0 {
		writeLine(b, depth, fmt.Sprintf("project %v (server side)", u.Project))
		depth++
	}
	if serverSide && u.Pushable != nil {
		writeLine(b, depth, fmt.Sprintf("filter %s (server side, above join-back)", u.Pushable))
		depth++
	}
	line := fmt.Sprintf("%s [%s] sessions=%d", d.Strategy, strings.Join(names, " "), d.Sessions)
	if d.Strategy == StrategySemiJoin {
		line += fmt.Sprintf(" concurrency=%d", d.Concurrency)
	}
	if d.Strategy == StrategyClientJoin {
		if u.Pushable != nil {
			line += fmt.Sprintf(" pushable=%s", u.Pushable)
		}
		if len(u.Project) > 0 {
			line += fmt.Sprintf(" project=%v", u.Project)
		}
	}
	writeLine(b, depth, line)
	writeLine(b, depth+1, fmt.Sprintf("· mem≈%dB (spill expected: %s)", d.EstimatedMemBytes, yesNo(d.SpillExpected)))
	if d.Fallback {
		writeLine(b, depth+1, "· degenerate input: empty sample and no priors, naive fallback")
	} else {
		writeLine(b, depth+1, fmt.Sprintf("· rows≈%d I=%.0fB A=%.2f D=%.2f S=%.2f P=%.2f R=%.0fB N=%.2f",
			d.EstimatedRows, d.Params.InputSize, d.Params.ArgFraction, d.Params.DistinctFraction,
			d.Params.Selectivity, d.Params.ProjectionFraction, d.Params.ResultSize, d.Params.Asymmetry))
		writeLine(b, depth+1, fmt.Sprintf("· cost/tuple: semi-join %.1fB, client-site join %.1fB",
			d.SemiJoinCost.Bottleneck(), d.ClientJoinCost.Bottleneck()))
	}
	tp.physicalInto(b, u.Input, depth+1)
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// memSuffix renders a memory-hungry operator's estimated retained state and
// whether the configured budget is expected to force it to spill.
func (tp *TreePlan) memSuffix(n logical.Node) string {
	est, ok := tp.mem[n]
	if !ok {
		return ""
	}
	budget := tp.planner.Config.MemBudget
	return fmt.Sprintf(" [mem≈%dB spill expected: %s]",
		est.OpBytes, yesNo(budget > 0 && est.OpBytes > budget))
}
