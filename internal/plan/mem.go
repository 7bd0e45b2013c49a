package plan

import (
	"csq/internal/exec"
	"csq/internal/logical"
	"csq/internal/types"
)

// Per-operator memory estimation. The planner walks the rewritten tree once
// (after the per-apply decisions are made, so the applies' measured
// statistics are available) and estimates, for every node, its output
// cardinality, average output row size, and the bytes of state the lowered
// operator retains while running. The lowering layer uses the estimates to
// size Grace spill partition counts against the query's memory budget, and
// EXPLAIN prints them alongside whether spilling is expected.

// memEstimate is one node's estimate.
type memEstimate struct {
	// Rows is the estimated output cardinality.
	Rows float64
	// RowBytes is the estimated average encoded output row size.
	RowBytes float64
	// OpBytes is the estimated retained operator state in bytes (hash
	// tables, caches, materialised runs); 0 for streaming operators.
	OpBytes int64
}

// payloadOf splits the average encoded size (types.Tuple.Size) of a row of
// cols into its kinds and the variable-width payload it carries: what is
// left once the tuple header and each cell's fixed encoding are taken out.
// With exec.KeyRowMemSize it gives a row's resident charge.
func payloadOf(cols []types.Column, encoded float64) ([]types.Kind, float64) {
	kinds := make([]types.Kind, len(cols))
	fixed := 4.0
	for i, c := range cols {
		kinds[i] = c.Kind
		switch c.Kind {
		case types.KindInt, types.KindFloat:
			fixed += 10
		case types.KindBool:
			fixed += 3
		default:
			fixed += 6
		}
	}
	return kinds, max(encoded-fixed, 0)
}

// keyRowBytes is what a hash table keeps resident for a row of cols whose
// average encoded size is encoded.
func keyRowBytes(cols []types.Column, encoded float64) float64 {
	return exec.KeyRowMemSize(payloadOf(cols, encoded))
}

// defaultRowBytes sizes a row from its schema kinds when no statistics exist.
func defaultRowBytes(s *types.Schema) float64 {
	if s == nil || s.Len() == 0 {
		return 16
	}
	total := 0.0
	for _, c := range s.Columns {
		switch c.Kind {
		case types.KindInt, types.KindFloat:
			total += 9
		case types.KindBool:
			total += 2
		default:
			total += 24
		}
	}
	return total
}

// estimateMem computes the estimate map for a planned tree.
func estimateMem(root logical.Node, decisions map[*logical.UDFApply]*Decision) map[logical.Node]memEstimate {
	memos := make(map[logical.Node]memEstimate)
	var walk func(n logical.Node) memEstimate
	walk = func(n logical.Node) memEstimate {
		var est memEstimate
		switch t := n.(type) {
		case *logical.Scan:
			est.Rows = float64(t.Table.Stats.RowCount)
			est.RowBytes = float64(t.Table.Stats.AvgRowSize)
			if est.RowBytes <= 0 {
				est.RowBytes = defaultRowBytes(t.Schema())
			}
			// A columnar scan with prunable predicates reads only the
			// segments whose zone maps may match; scale the prior to the
			// rows it will actually produce into the filter above.
			if pe, ok := scanPruneEstimate(t); ok && len(t.Prunable) > 0 {
				est.Rows *= pe.rowFraction()
			}
		case *logical.Filter:
			in := walk(t.Input)
			// Selectivity is unknown pre-sampling; stay conservative so the
			// spill machinery is armed rather than surprised.
			est.Rows, est.RowBytes = in.Rows, in.RowBytes
		case *logical.Project:
			in := walk(t.Input)
			est.Rows = in.Rows
			width := t.Input.Schema().Len()
			if width > 0 {
				est.RowBytes = in.RowBytes * float64(len(t.Ordinals)) / float64(width)
			}
		case *logical.Join:
			l, r := walk(t.Left), walk(t.Right)
			est.Rows = l.Rows
			if r.Rows > est.Rows {
				est.Rows = r.Rows
			}
			est.RowBytes = l.RowBytes + r.RowBytes
			// The hash join keeps its right (build) input in its table.
			est.OpBytes = int64(r.Rows * keyRowBytes(t.Right.Schema().Columns, r.RowBytes))
		case *logical.Aggregate:
			in := walk(t.Input)
			// Worst case: every input row is its own group.
			est.Rows = in.Rows
			est.RowBytes = defaultRowBytes(t.Schema())
			// Per group: its row of the group table (the leading output
			// columns) and the accumulators.
			groupBytes := est.RowBytes * float64(len(t.GroupBy)) / float64(t.Schema().Len())
			group := keyRowBytes(t.Schema().Columns[:len(t.GroupBy)], groupBytes)
			est.OpBytes = int64(in.Rows * (group + float64(exec.AggStateMemSize(len(t.Aggs)))))
		case *logical.UDFApply:
			in := walk(t.Input)
			est = applyMemEstimate(t, in, decisions[t])
		default:
			for _, c := range n.Children() {
				walk(c)
			}
			est.RowBytes = defaultRowBytes(n.Schema())
		}
		memos[n] = est
		return est
	}
	if root != nil {
		walk(root)
	}
	return memos
}

// applyMemEstimate sizes one UDF application from its decision: the
// semi-join (naive included, its factor-1 point) retains the duplicate-free
// argument tuples in its argument table plus a result tuple each, and the
// client-site join streams (no retained state grows with the input).
func applyMemEstimate(apply *logical.UDFApply, in memEstimate, d *Decision) memEstimate {
	est := memEstimate{Rows: in.Rows, RowBytes: defaultRowBytes(apply.Schema())}
	if d == nil {
		return est
	}
	rows := float64(d.EstimatedRows)
	if rows <= 0 {
		rows = in.Rows
	}
	est.Rows = rows * d.Params.Selectivity
	if est.Rows <= 0 {
		est.Rows = rows
	}
	argBytes := d.Params.ArgFraction * d.Params.InputSize
	distinct := rows * d.Params.DistinctFraction
	switch d.Strategy {
	case StrategySemiJoin, StrategyNaive:
		// Per distinct argument: its row of the argument table and its
		// result tuple.
		var args, results []types.Column
		for _, o := range apply.ArgOrdinals() {
			args = append(args, apply.Input.Schema().Columns[o])
		}
		for _, u := range apply.UDFs {
			results = append(results, types.Column{Kind: u.ResultKind})
		}
		_, resultPayload := payloadOf(results, d.Params.ResultSize)
		result := float64(types.TupleHeaderMemSize+len(results)*types.ValueMemSize) + resultPayload
		est.OpBytes = int64(distinct * (keyRowBytes(args, argBytes) + result))
	case StrategyClientJoin:
		est.OpBytes = 0
	}
	return est
}

// pickSpillPartitions sizes the Grace fan-out for an operator whose
// estimated state is est bytes under a per-query budget: enough partitions
// that one partition's share fits comfortably (half the budget, for skew),
// clamped to a sane range. A zero budget or estimate keeps the engine
// default.
func pickSpillPartitions(est, budget int64) int {
	if budget <= 0 || est <= 0 {
		return 0
	}
	target := budget / 2
	if target < 1 {
		target = 1
	}
	p := int((est + target - 1) / target)
	if p < exec.DefaultSpillPartitions {
		p = exec.DefaultSpillPartitions
	}
	if p > 128 {
		p = 128
	}
	return p
}
