package plan

import (
	"context"

	"csq/internal/exec"
	"csq/internal/expr"
	"csq/internal/types"
)

// SampleStats are the statistics the planner measures with one bounded pass
// over the query's input subtree. Everything the cost model needs that is not
// declared in the catalog is derived from here: the record size I, the
// argument fraction A, the distinct-argument fraction D (counted exactly over
// the sample) and the selectivity of the server-evaluable predicate (which
// scales the input cardinality seen by the client-site operator).
type SampleStats struct {
	// ScannedRows is how many input rows the sampling pass read.
	ScannedRows int
	// PassingRows is how many of them satisfied the server-side filter.
	PassingRows int
	// Exhausted reports that the pass read the whole input, making the counts
	// exact cardinalities rather than a sample.
	Exhausted bool
	// FilterSelectivity is PassingRows/ScannedRows (1 when nothing scanned).
	FilterSelectivity float64
	// AvgRecordBytes is the average encoded record size of passing rows (the
	// paper's I), excluding the per-tuple framing header.
	AvgRecordBytes float64
	// AvgArgBytes is the average encoded size of the UDF argument columns of
	// passing rows (A·I).
	AvgArgBytes float64
	// AvgColBytes is the average encoded size per input column ordinal, used
	// to size pushable projections.
	AvgColBytes []float64
	// DistinctFraction is D over the argument columns of passing rows: the
	// distinct argument hashes of the sample divided by its passing rows.
	DistinctFraction float64
}

// sampleInput drives the sampling pass: it opens a fresh input subtree, reads
// up to maxRows rows in batches, evaluates the server filter, and accumulates
// sizes and the argument hashes (Batch.HashRows) of the rows that pass.
//
// projection, when non-nil, re-expresses the column statistics positionally:
// the measured record is t[projection[0]], t[projection[1]], … — the shape a
// Project node between the filter and the UDF application (inserted by the
// rewriter's pruning rule) gives the operator. argOrdinals always index the
// source tuple directly; the caller pre-maps them through the projection.
func sampleInput(ctx context.Context, src exec.Operator, argOrdinals []int, serverFilter expr.Expr, projection []int, maxRows int) (SampleStats, error) {
	srcWidth := src.Schema().Len()
	cols := projection
	if cols == nil {
		cols = make([]int, srcWidth)
		for i := range cols {
			cols[i] = i
		}
	}
	width := len(cols)
	stats := SampleStats{
		FilterSelectivity: 1,
		DistinctFraction:  1,
		AvgColBytes:       make([]float64, width),
	}
	if err := src.Open(ctx); err != nil {
		_ = src.Close()
		return stats, err
	}
	defer func() { _ = src.Close() }()

	argHashes := make(map[uint64]struct{}) // the passing rows' argument hashes
	var passing []int
	var hashes []uint64
	ev := &expr.Evaluator{}
	colBytes := make([]int64, width)
	batch := &types.Batch{}
	var t types.Tuple
	for stats.ScannedRows < maxRows {
		batch.Max = min(maxRows-stats.ScannedRows, exec.DefaultBatchSize)
		n, err := src.NextBatch(batch)
		if err != nil {
			return stats, err
		}
		if n == 0 {
			stats.Exhausted = true
			break
		}
		passing = passing[:0]
		for _, r := range batch.Live() {
			t = batch.Row(r, t[:0])
			stats.ScannedRows++
			if serverFilter != nil {
				keep, err := ev.EvalBool(serverFilter, t)
				if err != nil {
					return stats, err
				}
				if !keep {
					continue
				}
			}
			stats.PassingRows++
			for i, o := range cols {
				if o >= 0 && o < t.Len() {
					colBytes[i] += int64(t[o].Size())
				}
			}
			passing = append(passing, r)
		}
		hashes = batch.HashRows(passing, argOrdinals, hashes)
		for _, h := range hashes {
			argHashes[h] = struct{}{}
		}
	}
	if stats.ScannedRows > 0 {
		stats.FilterSelectivity = float64(stats.PassingRows) / float64(stats.ScannedRows)
	}
	if stats.PassingRows > 0 {
		var record int64
		argSet := make(map[int]bool, len(argOrdinals))
		for _, o := range argOrdinals {
			argSet[o] = true
		}
		var args int64
		for i, b := range colBytes {
			stats.AvgColBytes[i] = float64(b) / float64(stats.PassingRows)
			record += b
			if argSet[cols[i]] {
				args += b
			}
		}
		stats.AvgRecordBytes = float64(record) / float64(stats.PassingRows)
		stats.AvgArgBytes = float64(args) / float64(stats.PassingRows)
		stats.DistinctFraction = float64(len(argHashes)) / float64(stats.PassingRows)
	}
	return stats, nil
}
