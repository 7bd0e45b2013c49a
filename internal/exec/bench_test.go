package exec

import (
	"context"
	"fmt"
	"testing"

	"csq/internal/expr"
	"csq/internal/netsim"
	"csq/internal/types"
)

// The benchmarks drain the hot operators through NextBatch at the engine's
// default batch size. cmd/benchrun runs them and emits BENCH_exec.json; the
// /batch sub-names are the keys its regression gate compares.

// drainBatch consumes op through NextBatch.
func drainBatch(b *testing.B, op Operator) int {
	b.Helper()
	n, err := Run(context.Background(), op)
	if err != nil {
		b.Fatal(err)
	}
	return n
}

func benchRows(n, distinct int) []types.Tuple {
	rows := make([]types.Tuple, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, types.NewTuple(
			types.NewString(fmt.Sprintf("C%03d", i%distinct)),
			types.NewFloat(float64(10+i)),
			types.NewTimeSeries(types.TimeSeries{100, 100 + float64(i%distinct)}),
		))
	}
	return rows
}

func BenchmarkHashJoin(b *testing.B) {
	left := benchRows(2048, 256)
	right := benchRows(512, 256)
	build := func() Operator {
		j, err := NewHashJoin(
			NewValuesScan(stockSchema(), left),
			NewValuesScan(stockSchema(), right),
			[]int{0}, []int{0}, nil)
		if err != nil {
			b.Fatal(err)
		}
		return j
	}
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			drainBatch(b, build())
		}
	})
}

func BenchmarkHashAggregate(b *testing.B) {
	rows := benchRows(4096, 64)
	build := func() Operator {
		a, err := NewHashAggregate(NewValuesScan(stockSchema(), rows), []int{0}, []Aggregate{
			{Func: AggCount, Ordinal: -1, Name: "cnt"},
			{Func: AggSum, Ordinal: 1, Name: "sum"},
		})
		if err != nil {
			b.Fatal(err)
		}
		return a
	}
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			drainBatch(b, build())
		}
	})
}

func BenchmarkSemiJoin(b *testing.B) {
	rows := benchRows(1024, 128)
	build := func() *SemiJoin {
		op, err := NewSemiJoin(NewValuesScan(stockSchema(), rows),
			NewInProcessLink(newAnalysisRuntime(b), netsim.LinkConfig{}),
			[]UDFBinding{analysisBinding()})
		if err != nil {
			b.Fatal(err)
		}
		op.ConcurrencyFactor = 64
		return op
	}
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			drainBatch(b, build())
		}
	})
}

func BenchmarkClientJoin(b *testing.B) {
	rows := benchRows(1024, 128)
	build := func() *ClientJoin {
		op, err := NewClientJoin(NewValuesScan(stockSchema(), rows),
			NewInProcessLink(newAnalysisRuntime(b), netsim.LinkConfig{}),
			[]UDFBinding{analysisBinding()})
		if err != nil {
			b.Fatal(err)
		}
		op.ShipBatchSize = DefaultBatchSize
		return op
	}
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			drainBatch(b, build())
		}
	})
}

// parallelBenchRows builds rows whose argument pair (Blob, Uniq) has
// rows*dup distinct combinations over duplicate-heavy columns — the workload
// shape of the parallel/dictionary paths.
func parallelBenchRows(b *testing.B, rows int, dup float64) ([]types.Tuple, *types.Schema) {
	b.Helper()
	argDistinct := int(float64(rows) * dup)
	if argDistinct < 1 {
		argDistinct = 1
	}
	tuples, schema := dupWorkload(rows, 8, argDistinct, 120)
	return tuples, schema
}

// BenchmarkSemiJoinParallel measures the session fan-out T against the
// duplicate ratio D: T1/dup100 is the single-session path without
// duplicates, the other variants add duplicates and parallel sessions.
func BenchmarkSemiJoinParallel(b *testing.B) {
	for _, cfg := range []struct {
		sessions int
		dup      float64
	}{
		{1, 1.0},
		{1, 0.25},
		{4, 0.25},
	} {
		rows, schema := parallelBenchRows(b, 1024, cfg.dup)
		name := fmt.Sprintf("T%d_dup%.0f", cfg.sessions, cfg.dup*100)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op, err := NewSemiJoin(NewValuesScan(schema, rows),
					NewInProcessLink(deriveRuntime(b, 64), netsim.LinkConfig{}),
					[]UDFBinding{deriveBinding()})
				if err != nil {
					b.Fatal(err)
				}
				op.Sessions = cfg.sessions
				op.ConcurrencyFactor = 64
				drainBatch(b, op)
			}
		})
	}
}

// BenchmarkClientJoinParallel mirrors BenchmarkSemiJoinParallel for the
// client-site join, which ships full records.
func BenchmarkClientJoinParallel(b *testing.B) {
	for _, sessions := range []int{1, 4} {
		rows, schema := parallelBenchRows(b, 1024, 0.25)
		name := fmt.Sprintf("T%d", sessions)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op, err := NewClientJoin(NewValuesScan(schema, rows),
					NewInProcessLink(deriveRuntime(b, 64), netsim.LinkConfig{}),
					[]UDFBinding{deriveBinding()})
				if err != nil {
					b.Fatal(err)
				}
				op.Sessions = sessions
				op.ShipBatchSize = DefaultBatchSize
				drainBatch(b, op)
			}
		})
	}
}

// BenchmarkSemiJoinParallelFaulty measures the fault-tolerant session layer
// under fire: one of four pooled sessions is killed mid-stream by an injected
// drop and recovered by a successful redial plus unacked-frame replay. The
// /batch sub-name puts it under benchrun's regression gate, so the recovery
// path's overhead is tracked like any other batch pipeline.
func BenchmarkSemiJoinParallelFaulty(b *testing.B) {
	rows, schema := parallelBenchRows(b, 1024, 0.25)
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			link := NewInProcessLink(deriveRuntime(b, 64), netsim.LinkConfig{})
			link.Faults = netsim.NewFaultScript(1).
				Set(1, netsim.FaultConfig{DropAfterBytes: 2000})
			op, err := NewSemiJoin(NewValuesScan(schema, rows), link,
				[]UDFBinding{deriveBinding()})
			if err != nil {
				b.Fatal(err)
			}
			op.Sessions = 4
			op.ConcurrencyFactor = 64
			drainBatch(b, op)
		}
	})
}

// BenchmarkFilterProject runs ProjectOrdinals over a Filter that keeps half
// of 4 096 rows (Close < 2058).
func BenchmarkFilterProject(b *testing.B) {
	rows := benchRows(4096, 64)
	pred := expr.NewBinary(expr.OpLt, expr.NewBoundColumnRef(1, types.KindFloat), expr.NewConst(types.NewFloat(2058)))
	build := func() Operator {
		p, err := NewProjectOrdinals(
			NewFilter(NewValuesScan(stockSchema(), rows), pred),
			[]int{1, 0})
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			drainBatch(b, build())
		}
	})
}

// BenchmarkFilter runs a Filter over 4 096 rows with a two-sided INT range,
// the shape of a pushed-down range predicate above a scan; half the rows pass.
func BenchmarkFilter(b *testing.B) {
	schema := types.NewSchema(
		types.Column{Name: "Ts", Kind: types.KindInt},
		types.Column{Name: "Sym", Kind: types.KindString},
	)
	rows := make([]types.Tuple, 4096)
	for i := range rows {
		rows[i] = types.NewTuple(types.NewInt(int64(i)), types.NewString(fmt.Sprintf("S%02d", i%16)))
	}
	ts := expr.NewBoundColumnRef(0, types.KindInt)
	pred := expr.NewBinary(expr.OpAnd,
		expr.NewBinary(expr.OpGe, ts, expr.NewConst(types.NewInt(1024))),
		expr.NewBinary(expr.OpLt, ts, expr.NewConst(types.NewInt(3072))))
	b.Run("range", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if n := drainBatch(b, NewFilter(NewValuesScan(schema, rows), pred)); n != 2048 {
				b.Fatalf("%d rows passed, want 2048", n)
			}
		}
	})
}
