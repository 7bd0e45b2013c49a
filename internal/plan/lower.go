package plan

import (
	"context"
	"errors"
	"fmt"

	"csq/internal/catalog"
	"csq/internal/exec"
	"csq/internal/expr"
	"csq/internal/logical"
	"csq/internal/storage"
	"csq/internal/storage/colstore"
)

// This file is the physical lowering layer: it walks a rewritten logical
// tree, runs the sampling/probing/cost-model machinery once per UDFApply
// node, and instantiates exec operators. Instantiation is repeatable — every
// call builds a fresh operator tree from the declarative nodes, which is what
// lets the planner sample an input subtree and then execute it without any
// reset-the-iterator protocol.

// rewrite and columnarScan are the rewriter PlanTree runs and the columnar
// scan lowering builds; tests swap them to plan without the column-demand
// pass and to fill the columns a scan leaves unread.
var (
	rewrite      = logical.Rewrite
	columnarScan = func(ct *colstore.Table, sc *logical.Scan) exec.Operator {
		return exec.NewColumnarScan(ct, sc.Alias, sc.Required, sc.Prunable)
	}
)

// ApplyPlan pairs one UDFApply node of the rewritten tree with its decision.
type ApplyPlan struct {
	Apply    *logical.UDFApply
	Decision *Decision
}

// TreePlan is a planned logical tree: the original and rewritten forms, and
// one decision per UDFApply node. NewOperator instantiates a fresh physical
// operator tree from it; Explain renders all three layers.
type TreePlan struct {
	// Original is the tree as handed to the planner, before rewriting.
	Original logical.Node
	// Root is the rewritten tree the decisions and operators are built from.
	Root logical.Node
	// Applies lists the UDF applications in lowering (post-order) with their
	// decisions.
	Applies []ApplyPlan

	planner   *Planner
	catalog   *catalog.Catalog
	decisions map[*logical.UDFApply]*Decision
	mem       map[logical.Node]memEstimate
}

// PlanTree rewrites the logical tree and makes a strategy decision for every
// UDFApply node in it, in post-order (so an outer application's sampling pass
// can instantiate its already-planned inputs). The catalog supplies UDF cost
// metadata; it may be nil when kind-based defaults are acceptable.
func (p *Planner) PlanTree(ctx context.Context, root logical.Node, cat *catalog.Catalog) (*TreePlan, error) {
	if root == nil {
		return nil, fmt.Errorf("plan: nil logical tree")
	}
	rewritten, err := rewrite(root)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	tp := &TreePlan{
		Original:  root,
		Root:      rewritten,
		planner:   p,
		catalog:   cat,
		decisions: map[*logical.UDFApply]*Decision{},
	}
	for _, apply := range logical.Applies(rewritten) {
		spec := applySpec{apply: apply, cat: cat, table: findScanTable(apply.Input)}
		d, err := p.planApply(ctx, tp.lowerer(), spec)
		if err != nil {
			return nil, err
		}
		tp.decisions[apply] = d
		tp.Applies = append(tp.Applies, ApplyPlan{Apply: apply, Decision: d})
	}
	// With every decision made, estimate per-operator memory so the lowering
	// layer can size spill partition counts against the query's budget and
	// EXPLAIN can report expected spilling.
	tp.mem = estimateMem(rewritten, tp.decisions)
	for _, ap := range tp.Applies {
		if est, ok := tp.mem[ap.Apply]; ok {
			ap.Decision.EstimatedMemBytes = est.OpBytes
			ap.Decision.SpillExpected = p.Config.MemBudget > 0 && est.OpBytes > p.Config.MemBudget
		}
	}
	return tp, nil
}

// NewOperator instantiates a fresh physical operator tree for the planned
// logical tree. It can be called any number of times; every call builds new
// operators from the shared declarative nodes and decisions.
func (tp *TreePlan) NewOperator() (exec.Operator, error) {
	return tp.lowerer().lower(tp.Root)
}

func (tp *TreePlan) lowerer() *lowerer {
	return &lowerer{planner: tp.planner, decisions: tp.decisions, mem: tp.mem}
}

// findScanTable descends through cardinality-preserving single-input nodes
// to a Scan and returns its catalog entry, for cardinality priors. Filters
// are allowed because the sampling pass measures their selectivity; joins,
// aggregates, limits and distincts stop the descent — their output
// cardinality is not the base table's.
func findScanTable(n logical.Node) *catalog.Table {
	for n != nil {
		switch t := n.(type) {
		case *logical.Scan:
			return t.Table
		case *logical.Filter:
			n = t.Input
		case *logical.Project:
			n = t.Input
		default:
			return nil
		}
	}
	return nil
}

// lowerer instantiates exec operators from logical nodes, using the planned
// decision for each UDFApply node.
type lowerer struct {
	planner   *Planner
	decisions map[*logical.UDFApply]*Decision
	mem       map[logical.Node]memEstimate // per-node state estimates (may be nil)
}

// spillPartitionsFor sizes an operator's Grace fan-out from its memory
// estimate and the configured per-query budget; 0 keeps the engine default.
func (lw *lowerer) spillPartitionsFor(n logical.Node) int {
	if lw.mem == nil {
		return 0
	}
	est, ok := lw.mem[n]
	if !ok {
		return 0
	}
	return pickSpillPartitions(est.OpBytes, lw.planner.Config.MemBudget)
}

// lower builds a fresh operator tree for the node.
func (lw *lowerer) lower(n logical.Node) (exec.Operator, error) {
	switch t := n.(type) {
	case *logical.Scan:
		if ct, ok := t.Table.Data.(*colstore.Table); ok {
			return columnarScan(ct, t), nil
		}
		data, ok := t.Table.Data.(storage.Relation)
		if !ok {
			return nil, fmt.Errorf("plan: scan of %q: catalog entry has no storage handle", t.Table.Name)
		}
		return exec.NewTableScan(data, t.Alias), nil
	case *logical.Filter:
		in, err := lw.lower(t.Input)
		if err != nil {
			return nil, err
		}
		return exec.NewFilter(in, t.Pred), nil
	case *logical.Project:
		in, err := lw.lower(t.Input)
		if err != nil {
			return nil, err
		}
		return exec.NewProjectOrdinals(in, t.Ordinals)
	case *logical.Join:
		left, err := lw.lower(t.Left)
		if err != nil {
			return nil, err
		}
		right, err := lw.lower(t.Right)
		if err != nil {
			return nil, err
		}
		join, err := exec.NewHashJoin(left, right, t.LeftKeys, t.RightKeys, t.Residual)
		if err != nil {
			return nil, err
		}
		join.SpillPartitions = lw.spillPartitionsFor(t)
		return join, nil
	case *logical.Aggregate:
		in, err := lw.lower(t.Input)
		if err != nil {
			return nil, err
		}
		agg, err := exec.NewHashAggregate(in, t.GroupBy, t.Aggs)
		if err != nil {
			return nil, err
		}
		agg.SpillPartitions = lw.spillPartitionsFor(t)
		return agg, nil
	case *logical.UDFApply:
		d, ok := lw.decisions[t]
		if !ok {
			return nil, fmt.Errorf("plan: UDF application %s has no decision (not planned by this tree plan)", t)
		}
		return lw.applyOperator(t, d)
	default:
		return nil, fmt.Errorf("plan: cannot lower unknown logical node %T", n)
	}
}

// applyOperator instantiates one UDF application with its planned strategy,
// placing the node's pushable predicate and projection on the right side of
// the link: at the client for the client-site join, at the server above the
// join-back for the semi-join and naive strategies. The rewriter absorbs
// only conjuncts the client can evaluate over the shipped extended record, so
// the client-site join takes the whole pushable predicate.
func (lw *lowerer) applyOperator(apply *logical.UDFApply, d *Decision) (exec.Operator, error) {
	input, err := lw.lower(apply.Input)
	if err != nil {
		return nil, err
	}
	p := lw.planner
	var op exec.Operator
	switch d.Strategy {
	case StrategyClientJoin:
		cj, err := exec.NewClientJoin(input, p.Link, apply.UDFs)
		if err != nil {
			return nil, err
		}
		cj.Sessions = d.Sessions
		cj.Retry = p.Config.Retry
		cj.Pushable = apply.Pushable
		cj.ProjectOrdinals = apply.Project
		return cj, nil
	case StrategySemiJoin, StrategyNaive:
		// Naive is the semi-join at concurrency factor 1 on one session.
		sj, err := exec.NewSemiJoin(input, p.Link, apply.UDFs)
		if err != nil {
			return nil, err
		}
		if d.Concurrency > 0 {
			sj.ConcurrencyFactor = d.Concurrency
		}
		sj.Sessions = d.Sessions
		sj.Retry = p.Config.Retry
		op = sj
	default:
		return nil, fmt.Errorf("plan: unknown strategy %d", d.Strategy)
	}
	if apply.Pushable != nil {
		op = exec.NewFilter(op, apply.Pushable)
	}
	if len(apply.Project) > 0 {
		return exec.NewProjectOrdinals(op, apply.Project)
	}
	return op, nil
}

// planApply makes the decision for one UDF application: it obtains sampling
// statistics (from the cross-query cache when fresh, otherwise by sampling a
// fresh instantiation of the node's input subtree), measures or reuses the
// link observation, assembles the cost-model parameters and picks the
// strategy.
func (p *Planner) planApply(ctx context.Context, lw *lowerer, spec applySpec) (*Decision, error) {
	samples, links := p.Config.StatsCache.caches()
	var cacheKey string
	if samples != nil {
		cacheKey = sampleCacheKey(spec)
	}
	stats, statsFromCache := samples.Lookup(cacheKey)
	if !statsFromCache {
		var err error
		stats, err = p.sampleApply(ctx, lw, spec.apply)
		if err != nil {
			return nil, fmt.Errorf("plan: sampling pass: %w", err)
		}
		samples.Store(cacheKey, stats)
	}

	var link exec.LinkObservation
	linkFromCache := false
	switch {
	case p.Config.Link != nil:
		link = *p.Config.Link
	default:
		if obs, ok := links.Lookup(p.Config.LinkKey); ok {
			link, linkFromCache = obs, true
			break
		}
		var err error
		link, err = exec.ProbeAsymmetry(ctx, p.Link, exec.DefaultProbeBytes)
		if err != nil {
			return nil, fmt.Errorf("plan: link probe: %w", err)
		}
		links.Store(p.Config.LinkKey, link)
	}

	d := &Decision{Stats: stats, Link: link, StatsFromCache: statsFromCache, LinkFromCache: linkFromCache}
	d.EstimatedRows = estimateRows(stats, spec)
	var err error
	d.Params, err = assembleParams(stats, spec, link, d.EstimatedRows)
	if errors.Is(err, errEmptySample) {
		// Degenerate input: nothing sampled and no catalog priors to size a
		// record with. The naive strategy is correct at any cardinality and
		// keeps the least in flight for the zero-row stream this almost
		// always is, so fall back to it instead of failing the plan.
		d.Strategy = StrategyNaive
		d.Sessions = 1
		d.Concurrency = 1
		d.Fallback = true
		return d, nil
	}
	if err != nil {
		return nil, err
	}
	d.Strategy, d.SemiJoinCost, d.ClientJoinCost, err = ChooseStrategy(d.Params)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	finalizeLinkKnobs(d)
	return d, nil
}

// sampleApply runs the sampling pass for one UDF application. The rewriter
// normalises the input spine to [Project] [Filter] rest, so the pass peels
// those off: rows are pulled from a fresh instantiation of the rest, the
// filter predicate is evaluated explicitly (measuring its selectivity for
// cardinality estimation), and the projection is applied positionally so the
// column statistics describe the records the operator will actually see.
func (p *Planner) sampleApply(ctx context.Context, lw *lowerer, apply *logical.UDFApply) (SampleStats, error) {
	node := apply.Input
	var projection []int
	if proj, ok := node.(*logical.Project); ok {
		projection = proj.Ordinals
		node = proj.Input
	}
	var pred expr.Expr
	if f, ok := node.(*logical.Filter); ok {
		pred = f.Pred
		node = f.Input
	}
	src, err := lw.lower(node)
	if err != nil {
		return SampleStats{}, err
	}
	argOrds := apply.ArgOrdinals()
	if projection != nil {
		mapped := make([]int, len(argOrds))
		for i, o := range argOrds {
			mapped[i] = projection[o]
		}
		argOrds = mapped
	}
	return sampleInput(ctx, src, argOrds, pred, projection, sampleRows)
}
