package exec

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"csq/internal/types"
)

// AggFunc identifies an aggregate function.
type AggFunc uint8

// Supported aggregate functions.
const (
	AggCount AggFunc = iota
	AggSum
	AggMin
	AggMax
	AggAvg
)

// String implements fmt.Stringer.
func (a AggFunc) String() string {
	switch a {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggAvg:
		return "AVG"
	default:
		return "?"
	}
}

// Aggregate describes one aggregate output column.
type Aggregate struct {
	// Func is the aggregate function.
	Func AggFunc
	// Ordinal is the input column aggregated; ignored for COUNT(*) (use -1).
	Ordinal int
	// Name is the output column name.
	Name string
}

// ErrSumOverflow fails a query whose INT SUM leaves the int64
// range.
var ErrSumOverflow = errors.New("exec: INT SUM overflows int64")

// HashAggregate groups its input on the group-by ordinals and computes the
// aggregates per group. Output columns are the group-by columns followed by
// the aggregates. Groups are emitted in a deterministic (group-value-sorted)
// order so results are reproducible. A group is a row of a keyTable of the
// group values, and its index there is its state's; a batch is folded an
// aggregate at a time, straight from its column's cells. SUM over an INT
// column adds in int64 and fails on overflow.
type HashAggregate struct {
	baseState
	input   Operator
	groupBy []int
	aggs    []Aggregate
	schema  *types.Schema

	// SpillPartitions is the Grace partition fan-out used if the group table
	// exceeds the query's memory budget; values < 2 select
	// DefaultSpillPartitions. The planner sizes it from its memory estimate.
	SpillPartitions int

	mem     memAccount
	spill   *aggSpill  // non-nil once the operator has spilled
	groups  keyTable   // the group values, keyed on all of them
	states  []aggState // by group
	of      []int32    // the group of each live row of the batch being folded
	hashes  []uint64   // and its key hash
	results []types.Tuple
	pos     int
	out     types.Batch
}

// aggState is one group's running state.
type aggState struct {
	count int64
	accs  []aggAcc
}

// aggAcc is one aggregate's running state within a group.
type aggAcc struct {
	sum      float64 // FLOAT cells, and every cell of an AVG
	isum     int64   // the INT cells of a SUM with an INT result
	min, max types.Value
	count    int64 // non-NULL cells
}

// NewHashAggregate builds an aggregation operator.
func NewHashAggregate(input Operator, groupBy []int, aggs []Aggregate) (*HashAggregate, error) {
	inSchema := input.Schema()
	cols := make([]types.Column, 0, len(groupBy)+len(aggs))
	for _, g := range groupBy {
		if g < 0 || g >= inSchema.Len() {
			return nil, fmt.Errorf("exec: group-by ordinal %d out of range", g)
		}
		cols = append(cols, inSchema.Columns[g])
	}
	for _, a := range aggs {
		if a.Func != AggCount && (a.Ordinal < 0 || a.Ordinal >= inSchema.Len()) {
			return nil, fmt.Errorf("exec: aggregate ordinal %d out of range", a.Ordinal)
		}
		kind := types.KindFloat
		switch a.Func {
		case AggCount:
			kind = types.KindInt
		case AggMin, AggMax:
			kind = inSchema.Columns[a.Ordinal].Kind
		case AggSum:
			if a.Ordinal >= 0 && inSchema.Columns[a.Ordinal].Kind == types.KindInt {
				kind = types.KindInt
			}
		}
		name := a.Name
		if name == "" {
			name = a.Func.String()
		}
		cols = append(cols, types.Column{Name: name, Kind: kind})
	}
	return &HashAggregate{
		input: input, groupBy: groupBy, aggs: aggs,
		schema: types.NewSchema(cols...),
	}, nil
}

// Schema implements Operator.
func (h *HashAggregate) Schema() *types.Schema { return h.schema }

// Open implements Operator: it consumes the entire input and computes
// groups, charging the group table against the query's memory budget. If the
// table goes over budget (and the aggregate is grouped), it switches to
// Grace-partitioned spill execution: accumulated partial states are flushed
// to disk partition-wise, the remaining input streams to raw partitions, and
// every partition is aggregated separately (see spill.go). The deterministic
// group-value sort makes the output byte-identical either way.
func (h *HashAggregate) Open(ctx context.Context) error {
	if err := h.input.Open(ctx); err != nil {
		return err
	}
	h.mem = memAccount{t: MemTrackerFrom(ctx)}
	h.spill = nil
	h.resetGroups()
	batch := &types.Batch{Max: DefaultBatchSize}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := h.input.NextBatch(batch)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		if h.spill != nil {
			if err := h.spill.route(h.spill.rawRuns, batch, h.groupBy, nil); err != nil {
				return err
			}
			continue
		}
		charge, err := h.fold(batch)
		if err != nil {
			return err
		}
		if err := h.mem.grow(charge); err != nil {
			return err
		}
		if len(h.groupBy) > 0 && h.mem.t.OverBudget() {
			sp, err := beginAggSpill(h)
			if err != nil {
				return err
			}
			// The operator owns the spill from here: Close releases its runs
			// even when Open later fails (input error, cancellation).
			h.spill = sp
			h.resetGroups()
			h.mem.releaseAll()
		}
	}
	if h.spill != nil {
		rows, err := h.spill.finish(ctx, h)
		h.spill.close()
		h.spill = nil
		if err != nil {
			return err
		}
		h.results = rows
	} else {
		h.results = h.materialize()
	}
	h.groups.release()
	h.states = nil
	if err := h.finalizeResults(); err != nil {
		return err
	}
	h.pos = 0
	h.markOpen(ctx)
	return nil
}

// resetGroups empties the group table and the states.
func (h *HashAggregate) resetGroups() {
	h.groups.reset(len(h.groupBy), allOrdinals(len(h.groupBy)))
	h.states = h.states[:0]
}

// fold folds the live rows of b into their groups' states, adding a group on
// its first sight. It returns the memory charge of the new groups.
func (h *HashAggregate) fold(b *types.Batch) (int64, error) {
	live := b.Live()
	h.of, h.hashes = h.of[:0], b.HashRows(live, h.groupBy, h.hashes)
	var charge int64
	for i, r := range live {
		g, grown := h.groups.find(b, r, h.groupBy, h.hashes[i])
		if grown > 0 {
			h.states = append(h.states, aggState{accs: make([]aggAcc, len(h.aggs))})
			charge += grown + AggStateMemSize(len(h.aggs))
		}
		h.states[g].count++
		h.of = append(h.of, g)
	}
	for a, agg := range h.aggs {
		if agg.Func == AggCount && agg.Ordinal < 0 {
			continue
		}
		exact := agg.Func == AggSum && h.schema.Columns[len(h.groupBy)+a].Kind == types.KindInt
		v := &b.Cols[agg.Ordinal]
		for i, r := range live {
			if v.Null(r) {
				continue
			}
			acc := &h.states[h.of[i]].accs[a]
			acc.count++
			switch agg.Func {
			case AggSum, AggAvg:
				if err := acc.add(v, r, exact); err == ErrSumOverflow {
					return 0, err
				} else if err != nil {
					return 0, fmt.Errorf("exec: %s over non-numeric column: %w", agg.Func, err)
				}
			case AggMin, AggMax:
				m, sign := &acc.min, -1
				if agg.Func == AggMax {
					m, sign = &acc.max, 1
				}
				if x := v.Value(r); m.IsNull() {
					*m = x
				} else if c, err := types.Compare(x, *m); err == nil && c*sign > 0 {
					*m = x
				}
			}
		}
	}
	return charge, nil
}

// add folds the non-NULL cell r of v into a SUM or AVG: an INT cell into
// the int64 sum when exact, every other number into the float64 sum.
func (acc *aggAcc) add(v *types.Vec, r int, exact bool) error {
	switch x := v.Value(r); {
	case v.Kind == types.KindFloat:
		acc.sum += v.Floats[r]
	case v.Kind == types.KindInt && !exact:
		acc.sum += float64(v.Ints[r])
	case exact && x.Kind() == types.KindInt:
		i, _ := x.Int()
		if s := acc.isum + i; (s > acc.isum) == (i > 0) {
			acc.isum = s
		} else {
			return ErrSumOverflow
		}
	default:
		f, err := x.Float()
		acc.sum += f
		return err
	}
	return nil
}

// materialize turns the groups into result rows, in group order: the group
// values read back from the table's columns, then the aggregates. The
// deterministic output ordering is applied afterwards by finalizeResults, so
// the in-memory and spilled paths (which materialise per partition) share it.
func (h *HashAggregate) materialize() []types.Tuple {
	results := make([]types.Tuple, 0, len(h.states))
	for g, st := range h.states {
		row := h.groups.rows.Row(g, make(types.Tuple, 0, h.schema.Len()))
		for i, a := range h.aggs {
			acc := st.accs[i]
			var v types.Value
			switch a.Func {
			case AggCount:
				if a.Ordinal < 0 {
					v = types.NewInt(st.count)
				} else {
					v = types.NewInt(acc.count)
				}
			case AggSum:
				if h.schema.Columns[len(h.groupBy)+i].Kind == types.KindInt {
					v = types.NewInt(acc.isum + int64(acc.sum))
				} else {
					v = types.NewFloat(acc.sum)
				}
			case AggAvg:
				if acc.count == 0 {
					v = types.Null(types.KindFloat)
				} else {
					v = types.NewFloat(acc.sum / float64(acc.count))
				}
			case AggMin:
				v = acc.min
			case AggMax:
				v = acc.max
			}
			row = append(row, v)
		}
		results = append(results, row)
	}
	return results
}

// finalizeResults sorts the materialised rows by their group-column values
// (the deterministic output order; group rows are unique, so the order does
// not depend on which partition produced a row) and applies the SQL
// convention that a global aggregate over an empty input still produces one
// row of zero/NULL aggregates.
func (h *HashAggregate) finalizeResults() error {
	groupOrds := allOrdinals(len(h.groupBy))
	var sortErr error
	sort.SliceStable(h.results, func(i, j int) bool {
		c, err := types.CompareOn(h.results[i], h.results[j], groupOrds)
		if err != nil && sortErr == nil {
			sortErr = err
		}
		return c < 0
	})
	if sortErr != nil {
		return sortErr
	}
	if len(h.groupBy) == 0 && len(h.results) == 0 {
		row := types.Tuple{}
		for _, a := range h.aggs {
			if a.Func == AggCount {
				row = append(row, types.NewInt(0))
			} else {
				row = append(row, types.Null(types.KindFloat))
			}
		}
		h.results = append(h.results, row)
	}
	return nil
}

// NextBatch implements Operator, emitting the computed groups.
func (h *HashAggregate) NextBatch(b *types.Batch) (int, error) {
	if err := h.checkOpen(); err != nil {
		return 0, err
	}
	n := min(b.Max, len(h.results)-h.pos)
	h.pos += n
	return emitRows(b, &h.out, h.schema.Len(), h.results[h.pos-n:h.pos]), nil
}

// Close implements Operator.
func (h *HashAggregate) Close() error {
	h.closed = true
	h.results = nil
	h.groups.release()
	h.states = nil
	h.spill.close()
	h.spill = nil
	h.mem.releaseAll()
	return h.input.Close()
}
