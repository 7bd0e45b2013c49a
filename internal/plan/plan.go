// Package plan is the physical planning layer: it lowers a logical plan tree
// (package logical) onto the execution engine's operators, choosing — per
// UDFApply node — between naive tuple-at-a-time evaluation, the semi-join
// strategy and the client-site join using the paper's Section 3.2 bandwidth
// cost model, with every model parameter measured or looked up rather than
// hand-supplied.
//
// The pipeline is
//
//	logical tree → logical.Rewrite (predicate pushdown, pushable absorption,
//	projection pruning) → lower (this package: sampling, link probing,
//	cost-model decisions, operator instantiation)
//
// Planner.PlanTree is the only entry point; TreePlan.NewOperator instantiates
// the plan. For each UDFApply node of the rewritten tree:
//
//   - A, D, S, P and I come from catalog metadata plus a bounded sampling
//     pass over a fresh instantiation of the node's input subtree (package
//     internal sampleInput), with D counted exactly over the sample;
//   - R comes from the catalog's client-UDF announcements;
//   - N is measured live by probing the query's own client link
//     (exec.ProbeAsymmetry), once per plan;
//   - the winning operator is instantiated with the node's pushable
//     predicate and projection on the right side of the link: the client for
//     the client-site join, the server (above the join-back) for the
//     semi-join and naive strategies.
//
// The decision is made once per plan. NewPlanCache keys plans on the data
// version of every scanned table, so a write makes the next execution plan
// afresh.
package plan

import (
	"errors"

	"csq/internal/catalog"
	"csq/internal/costmodel"
	"csq/internal/exec"
	"csq/internal/expr"
	"csq/internal/logical"
)

// errEmptySample marks the degenerate-input condition — nothing sampled and
// no catalog priors to size a record with — that the lowering pass answers
// with the naive fallback instead of a planning failure.
var errEmptySample = errors.New("plan: cannot size input records (empty sample and no table stats)")

// Defaults for Config fields left zero, and the fixed sampling bounds.
const (
	// sampleRows bounds the statistics sampling pass.
	sampleRows = 256
	// perTupleOverhead is the encoder's fixed per-tuple header (types
	// encoding: a 4-byte column count), fed to the cost model so its byte
	// accounting matches the implementation's.
	perTupleOverhead = 4
	// maxConcurrency caps the derived pipeline concurrency factor.
	maxConcurrency = 1024
	// DefaultMaxSessions caps the derived parallel session fan-out.
	DefaultMaxSessions = 8
)

// Strategy identifies the execution strategy the planner instantiates. It
// extends the two-way cost-model choice with the naive strategy — the
// semi-join at concurrency factor 1 — which the planner falls back to only in
// the degenerate case where the pipeline would have at most one invocation in
// flight.
type Strategy uint8

// Planner strategies.
const (
	// StrategyNaive is tuple-at-a-time remote invocation.
	StrategyNaive Strategy = iota
	// StrategySemiJoin ships duplicate-free arguments, results come back bare.
	StrategySemiJoin
	// StrategyClientJoin ships full records, pushable work runs at the client.
	StrategyClientJoin
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case StrategyNaive:
		return "naive"
	case StrategySemiJoin:
		return "semi-join"
	case StrategyClientJoin:
		return "client-site-join"
	default:
		return "unknown"
	}
}

// Config tunes the planner. The zero value selects the defaults above.
type Config struct {
	// Link, when non-nil, is a pre-measured link observation; the planner
	// skips the probe. Useful when many plans share one physical link.
	Link *exec.LinkObservation
	// StatsCache, when non-nil, is the cross-query statistics cache: repeated
	// plans over unchanged tables reuse the sampled statistics and the
	// probe-measured link observation instead of re-measuring. Entries are
	// keyed on table data versions and the catalog version, so any mutation
	// invalidates them implicitly.
	StatsCache *StatsCache
	// LinkKey identifies the physical client link within the StatsCache's
	// probe cache (e.g. the client runtime's address). Empty disables probe
	// reuse even when a StatsCache is set.
	LinkKey string
	// MemBudget is the per-query memory budget in bytes the lowered plan will
	// execute under (the service's spill threshold). The lowering layer sizes
	// Grace spill partition counts from it and EXPLAIN reports whether
	// spilling is expected. Zero means unlimited.
	MemBudget int64
	// Retry governs mid-query session re-establishment for the lowered
	// client-site operators (redial attempts, backoff, or disabling fault
	// tolerance altogether). The zero value enables fault tolerance with the
	// exec package defaults.
	Retry exec.RetryConfig
}

// applySpec bundles one rewritten UDFApply node with the metadata context its
// decision is derived from: the catalog (UDF result sizes and selectivities)
// and the scanned table's catalog entry, when findScanTable finds one, for
// cardinality priors.
type applySpec struct {
	apply *logical.UDFApply
	table *catalog.Table
	cat   *catalog.Catalog
}

// Decision is the planner's output for one UDF application: the chosen
// strategy, the parameters it was derived from, and the evidence (sample
// statistics and link probe).
type Decision struct {
	// Strategy is the winning strategy.
	Strategy Strategy
	// Params are the assembled cost-model inputs.
	Params costmodel.Params
	// SemiJoinCost and ClientJoinCost are the per-tuple link costs compared.
	SemiJoinCost   costmodel.LinkCost
	ClientJoinCost costmodel.LinkCost
	// EstimatedRows is the cardinality estimate for the operator's input.
	EstimatedRows int
	// Concurrency is the derived semi-join pipeline concurrency factor (B·T,
	// totalled across the session pool); 1 for the naive strategy.
	Concurrency int
	// Sessions is the derived parallel session fan-out T: how many wire
	// sessions the operator deals its frames across, from the measured
	// bottleneck transfer time and round trip (costmodel.OptimalSessions).
	Sessions int
	// Fallback reports that the decision is the degenerate-input fallback: an
	// empty sample with no catalog priors cannot feed the cost model, so the
	// naive strategy (correct for any cardinality, least in flight for
	// none) is chosen without one.
	Fallback bool
	// EstimatedMemBytes is the estimated operator state the chosen strategy
	// retains while running (dedup tables, result caches); the lowering
	// layer compares it against the query's memory budget.
	EstimatedMemBytes int64
	// SpillExpected reports that EstimatedMemBytes exceeds the configured
	// per-query memory budget, so the governed runtime is expected to spill.
	SpillExpected bool
	// StatsFromCache reports that Stats was served by the cross-query
	// statistics cache instead of a live sampling pass.
	StatsFromCache bool
	// LinkFromCache reports that Link was served by the cache instead of a
	// live probe.
	LinkFromCache bool
	// Stats is the sampling pass output.
	Stats SampleStats
	// Link is the probe observation used for N.
	Link exec.LinkObservation
}

// Planner plans UDF applications over one client link.
type Planner struct {
	// Link is the client link queries execute over; the planner probes it to
	// measure the network asymmetry.
	Link exec.ClientLink
	// Config tunes sampling, probing and lowering.
	Config Config
}

// NewPlanner returns a planner over the given link with default configuration.
func NewPlanner(link exec.ClientLink) *Planner { return &Planner{Link: link} }

// ChooseStrategy maps validated cost-model parameters to the planner's
// strategy: the cost model's argmin (ties go to the semi-join), except that a
// workload with at most one expected invocation degrades to the naive
// strategy, the semi-join at concurrency factor 1, whose single round trip
// is then identical to the wider pipeline's.
func ChooseStrategy(p costmodel.Params) (Strategy, costmodel.LinkCost, costmodel.LinkCost, error) {
	s, sj, cj, err := costmodel.Decide(p)
	if err != nil {
		return 0, sj, cj, err
	}
	if s == costmodel.StrategySemiJoin {
		if float64(p.Rows)*p.DistinctFraction <= 1 {
			return StrategyNaive, sj, cj, nil
		}
		return StrategySemiJoin, sj, cj, nil
	}
	return StrategyClientJoin, sj, cj, nil
}

// finalizeLinkKnobs derives the decision's link-level knobs — session
// fan-out and pipeline concurrency factor — from its strategy, parameters
// and link observation.
func finalizeLinkKnobs(d *Decision) {
	d.Sessions = sessionsFor(d)
	d.Concurrency = concurrencyFor(d.Params, d.Link, d.Sessions)
	if d.Strategy == StrategyNaive {
		d.Concurrency = 1 // naive is the semi-join at factor 1
	}
}

// sessionsFor derives the parallel session fan-out T from the measured link:
// the bottleneck direction's total transfer is split across sessions as long
// as each session keeps at least costmodel.MinTransferRTTs round trips of
// payload (costmodel.OptimalSessions). The naive strategy stays on one
// session — its defining behaviour is the synchronous round trip, and the
// planner only selects it for workloads with at most one expected
// invocation anyway.
func sessionsFor(d *Decision) int {
	if d.Strategy == StrategyNaive {
		return 1
	}
	cs := costmodel.StrategySemiJoin
	if d.Strategy == StrategyClientJoin {
		cs = costmodel.StrategyClientJoin
	}
	down, up, err := costmodel.TotalBytes(cs, d.Params)
	if err != nil {
		return 1
	}
	var tDown, tUp float64
	if d.Link.DownBytesPerSec > 0 {
		tDown = down / d.Link.DownBytesPerSec
	}
	if d.Link.UpBytesPerSec > 0 {
		tUp = up / d.Link.UpBytesPerSec
	}
	transferBytes, bw := down, d.Link.DownBytesPerSec
	if tUp > tDown {
		transferBytes, bw = up, d.Link.UpBytesPerSec
	}
	return costmodel.OptimalSessions(transferBytes, bw, d.Link.RTT, DefaultMaxSessions)
}

// estimateRows combines the sample with catalog priors: an exhausted sample is
// an exact count; otherwise the table's row count is scaled by the sampled
// filter selectivity; failing both, the sample itself is the lower bound.
func estimateRows(stats SampleStats, spec applySpec) int {
	if stats.Exhausted {
		return stats.PassingRows
	}
	if spec.table != nil && spec.table.Stats.RowCount > 0 {
		n := int(float64(spec.table.Stats.RowCount) * stats.FilterSelectivity)
		if n < stats.PassingRows {
			n = stats.PassingRows
		}
		return n
	}
	return stats.PassingRows
}

// assembleParams builds the cost-model parameters from measurements and
// catalog metadata.
func assembleParams(stats SampleStats, spec applySpec, link exec.LinkObservation, rows int) (costmodel.Params, error) {
	inputSize := stats.AvgRecordBytes
	if inputSize <= 0 && spec.table != nil {
		inputSize = float64(spec.table.Stats.AvgRowSize)
	}
	if inputSize <= 0 {
		return costmodel.Params{}, errEmptySample
	}
	argFraction := stats.AvgArgBytes / inputSize
	if argFraction <= 0 {
		argFraction = 1.0 / inputSize // at least one encoded byte of arguments
	}
	if argFraction > 1 {
		argFraction = 1
	}
	resultSize := resultSizeOf(spec)
	params := costmodel.Params{
		Rows:               rows,
		InputSize:          inputSize,
		ArgFraction:        argFraction,
		DistinctFraction:   stats.DistinctFraction,
		Selectivity:        pushableSelectivity(spec, len(stats.AvgColBytes)),
		ProjectionFraction: projectionFraction(stats, spec, resultSize),
		ResultSize:         resultSize,
		Asymmetry:          link.Asymmetry,
		PerTupleOverhead:   perTupleOverhead,
	}
	return params, nil
}

// udfResultSize sizes one UDF's returned result, preferring the catalog's
// announced size over the kind-based default.
func udfResultSize(cat *catalog.Catalog, b exec.UDFBinding) float64 {
	if cat != nil {
		if u, err := cat.UDF(b.Name); err == nil && u.ResultSize > 0 {
			return float64(u.ResultSize)
		}
	}
	return float64(expr.KindSize(b.ResultKind))
}

// resultSizeOf sums the returned-result sizes of the application's UDFs.
func resultSizeOf(spec applySpec) float64 {
	total := 0.0
	for _, b := range spec.apply.UDFs {
		total += udfResultSize(spec.cat, b)
	}
	return total
}

// pushableSelectivity estimates S for the pushable predicate. A conjunct that
// is a bare reference to a boolean UDF result column uses that UDF's declared
// catalog selectivity; everything else falls back to the System-R heuristics.
func pushableSelectivity(spec applySpec, inputWidth int) float64 {
	if spec.apply.Pushable == nil {
		return 1
	}
	s := 1.0
	for _, c := range expr.Conjuncts(spec.apply.Pushable) {
		cs := -1.0
		if ref, ok := c.(*expr.ColumnRef); ok && ref.Bound() && ref.Ordinal >= inputWidth {
			idx := ref.Ordinal - inputWidth
			if idx < len(spec.apply.UDFs) && spec.cat != nil {
				if u, err := spec.cat.UDF(spec.apply.UDFs[idx].Name); err == nil && u.Selectivity > 0 {
					cs = u.Selectivity
				}
			}
		}
		if cs < 0 {
			cs = expr.EstimateSelectivity(c)
		}
		s *= cs
	}
	if s <= 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// projectionFraction computes P: the size of the returned (projected) record
// relative to the full extended record, using sampled per-column sizes for
// input columns and catalog result sizes for UDF result columns. With an
// empty sample there are no per-column sizes to apportion (assembleParams may
// have fallen back to catalog table stats for I), so P defaults to 1 rather
// than crediting the projection with columns measured as zero bytes.
func projectionFraction(stats SampleStats, spec applySpec, resultSize float64) float64 {
	full := stats.AvgRecordBytes + resultSize
	if stats.PassingRows == 0 || full <= 0 || len(spec.apply.Project) == 0 {
		return 1
	}
	projected := 0.0
	inputWidth := len(stats.AvgColBytes)
	for _, o := range spec.apply.Project {
		switch {
		case o >= 0 && o < inputWidth:
			projected += stats.AvgColBytes[o]
		case o >= inputWidth && o-inputWidth < len(spec.apply.UDFs):
			projected += udfResultSize(spec.cat, spec.apply.UDFs[o-inputWidth])
		}
	}
	p := projected / full
	if p <= 0 {
		p = 1 / full
	}
	if p > 1 {
		p = 1
	}
	return p
}

// concurrencyFor derives the semi-join pipeline concurrency factor from the
// measured link: the paper's B·T prescription (Section 3.1.2), computed from
// the probed bandwidths and round-trip time, totalled across the session
// pool (every stage parallelises with the fan-out, so the in-flight window
// scales with it). An unmeasurable link keeps the engine default.
func concurrencyFor(p costmodel.Params, link exec.LinkObservation, sessions int) int {
	if link.DownBytesPerSec <= 0 && link.UpBytesPerSec <= 0 {
		return exec.DefaultConcurrencyFactor
	}
	w := costmodel.OptimalConcurrency(costmodel.PipelineParams{
		DownBandwidth: link.DownBytesPerSec,
		UpBandwidth:   link.UpBytesPerSec,
		Latency:       link.RTT / 2,
		ArgBytes:      p.ArgFraction*p.InputSize + p.PerTupleOverhead,
		ResultBytes:   p.ResultSize + p.PerTupleOverhead,
		Sessions:      sessions,
	})
	if w > maxConcurrency {
		return maxConcurrency
	}
	return w
}
