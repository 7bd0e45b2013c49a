package exec

import (
	"context"
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

// HashAggregate groups its input on the group-by ordinals and computes the
// aggregates per group. Output columns are the group-by columns followed by
// the aggregates. Groups are emitted in a deterministic (group-value-sorted)
// order so results are reproducible. The group table is keyed on tuple hashes
// with collision chains resolved by value comparison, so probing allocates no
// key strings.
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

	mem       memAccount
	spill     *aggSpill // non-nil once the operator has spilled
	groupOrds []int     // ordinals of the key within stored group rows
	results   []types.Tuple
	pos       int
}

type aggState struct {
	groupRow types.Tuple
	count    int64
	sums     []float64
	mins     []types.Value
	maxs     []types.Value
	counts   []int64
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
	if groupBy == nil {
		// A nil group-by list must mean "one global group", but Tuple.Hash
		// treats nil ordinals as "hash the whole tuple"; normalise so every
		// input row folds into the same group state.
		groupBy = []int{}
	}
	return &HashAggregate{
		input: input, groupBy: groupBy, aggs: aggs,
		schema:    types.NewSchema(cols...),
		groupOrds: allOrdinals(len(groupBy)),
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
	groups := make(map[uint64][]*aggState)
	var states []*aggState // insertion-ordered view of all groups
	batch := make([]types.Tuple, DefaultBatchSize)
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
			for _, t := range batch[:n] {
				if err := h.spill.addRaw(t); err != nil {
					return err
				}
			}
			continue
		}
		for _, t := range batch[:n] {
			n, err := h.foldTuple(groups, &states, t)
			if err != nil {
				return err
			}
			if err := h.mem.grow(n); err != nil {
				return err
			}
		}
		if len(h.groupBy) > 0 && h.mem.t.OverBudget() {
			sp, err := beginAggSpill(h, states)
			if err != nil {
				return err
			}
			// The operator owns the spill from here: Close releases its runs
			// even when Open later fails (input error, cancellation).
			h.spill = sp
			groups, states = nil, nil
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
		rows, err := h.materialize(states)
		if err != nil {
			return err
		}
		h.results = rows
	}
	if err := h.finalizeResults(); err != nil {
		return err
	}
	h.pos = 0
	h.markOpen(ctx)
	return nil
}

// foldTuple folds one input tuple into its group's state, creating the state
// on first sight. It returns the memory charge of a newly created state (0
// when the group already existed).
func (h *HashAggregate) foldTuple(groups map[uint64][]*aggState, states *[]*aggState, t types.Tuple) (int64, error) {
	hash := t.Hash(h.groupBy)
	var st *aggState
	for _, cand := range groups[hash] {
		if crossEqual(t, h.groupBy, cand.groupRow, h.groupOrds) {
			st = cand
			break
		}
	}
	var charge int64
	if st == nil {
		groupRow, err := t.Project(h.groupBy)
		if err != nil {
			return 0, err
		}
		st = &aggState{
			groupRow: groupRow,
			sums:     make([]float64, len(h.aggs)),
			mins:     make([]types.Value, len(h.aggs)),
			maxs:     make([]types.Value, len(h.aggs)),
			counts:   make([]int64, len(h.aggs)),
		}
		groups[hash] = append(groups[hash], st)
		*states = append(*states, st)
		charge = tupleMemSize(groupRow) + AggStateMemSize(len(h.aggs))
	}
	if err := h.accumulate(st, t); err != nil {
		return 0, err
	}
	return charge, nil
}

// accumulate folds one input tuple into its group's state.
func (h *HashAggregate) accumulate(st *aggState, t types.Tuple) error {
	st.count++
	for i, a := range h.aggs {
		if a.Func == AggCount && a.Ordinal < 0 {
			continue
		}
		v := t[a.Ordinal]
		if v.IsNull() {
			continue
		}
		st.counts[i]++
		switch a.Func {
		case AggSum, AggAvg:
			f, err := v.Float()
			if err != nil {
				return fmt.Errorf("exec: %s over non-numeric column: %w", a.Func, err)
			}
			st.sums[i] += f
		case AggMin:
			if st.mins[i].IsNull() {
				st.mins[i] = v
			} else if c, err := types.Compare(v, st.mins[i]); err == nil && c < 0 {
				st.mins[i] = v
			}
		case AggMax:
			if st.maxs[i].IsNull() {
				st.maxs[i] = v
			} else if c, err := types.Compare(v, st.maxs[i]); err == nil && c > 0 {
				st.maxs[i] = v
			}
		}
	}
	return nil
}

// materialize turns aggregation states into result rows, in state order. The
// deterministic output ordering is applied afterwards by finalizeResults, so
// the in-memory and spilled paths (which materialise per partition) share it.
func (h *HashAggregate) materialize(states []*aggState) ([]types.Tuple, error) {
	results := make([]types.Tuple, 0, len(states))
	for _, st := range states {
		row := st.groupRow.Clone()
		for i, a := range h.aggs {
			var v types.Value
			switch a.Func {
			case AggCount:
				if a.Ordinal < 0 {
					v = types.NewInt(st.count)
				} else {
					v = types.NewInt(st.counts[i])
				}
			case AggSum:
				if h.schema.Columns[len(h.groupBy)+i].Kind == types.KindInt {
					v = types.NewInt(int64(st.sums[i]))
				} else {
					v = types.NewFloat(st.sums[i])
				}
			case AggAvg:
				if st.counts[i] == 0 {
					v = types.Null(types.KindFloat)
				} else {
					v = types.NewFloat(st.sums[i] / float64(st.counts[i]))
				}
			case AggMin:
				v = st.mins[i]
			case AggMax:
				v = st.maxs[i]
			}
			row = row.Append(v)
		}
		results = append(results, row)
	}
	return results, nil
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
				row = row.Append(types.NewInt(0))
			} else {
				row = row.Append(types.Null(types.KindFloat))
			}
		}
		h.results = append(h.results, row)
	}
	return nil
}

// NextBatch implements Operator with a bulk copy out of the computed groups.
func (h *HashAggregate) NextBatch(dst []types.Tuple) (int, error) {
	if err := h.checkOpen(); err != nil {
		return 0, err
	}
	n := copy(dst, h.results[h.pos:])
	h.pos += n
	return n, nil
}

// Close implements Operator.
func (h *HashAggregate) Close() error {
	h.closed = true
	h.results = nil
	h.spill.close()
	h.spill = nil
	h.mem.releaseAll()
	return h.input.Close()
}
