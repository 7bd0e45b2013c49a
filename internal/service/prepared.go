package service

import (
	"cmp"
	"context"
	"fmt"

	"csq/internal/logical"
	"csq/internal/plan"
)

// PreparedStatement is a query registered once and executed many times: the
// parse/resolve work happened at Prepare time (the caller hands a logical
// tree) and the rewrite/sample/probe/choose planning pass runs at most once
// per data version — the statement holds its own one-entry plan cache, keyed
// like the service's, so repeated executions over unchanged data skip planning
// entirely, and the first execution after a write re-plans automatically.
// The slot works even when the service's global plan cache is disabled;
// when both exist they cooperate (the slot is checked first).
//
// A statement is safe for concurrent use: executions are ordinary service
// queries and the slot is a plan.Cache.
type PreparedStatement struct {
	svc   *Service
	req   Request // template: tree, link, tenant, budgets
	plans *plan.Cache[*plan.TreePlan]
}

// Prepare registers a statement for repeated execution. The tree is validated
// by a trial rewrite so malformed statements fail here, not on first execute.
// A closed or draining service refuses, as Submit does.
func (s *Service) Prepare(req Request) (*PreparedStatement, error) {
	if req.Tree == nil {
		return nil, fmt.Errorf("service: prepared statement has no logical tree")
	}
	if _, err := logical.Rewrite(req.Tree); err != nil {
		return nil, fmt.Errorf("service: prepare: %w", err)
	}
	// A statement prepared during a drain could only ever be shed.
	s.mu.Lock()
	err := s.refusal()
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return &PreparedStatement{svc: s, req: req, plans: plan.NewPlanCache(1)}, nil
}

// Submit starts one execution of the statement, applying the request template
// with per-execution overrides (zero-valued fields of over inherit the
// template). The returned handle behaves exactly like an ad-hoc query's.
func (ps *PreparedStatement) Submit(ctx context.Context, over Request) (*Query, error) {
	req := ps.req
	req.stmtPlans = ps.plans
	req.MemBudget = cmp.Or(over.MemBudget, req.MemBudget)
	req.Timeout = cmp.Or(over.Timeout, req.Timeout)
	req.Tenant = cmp.Or(over.Tenant, req.Tenant)
	req.Frames = cmp.Or(over.Frames, req.Frames)
	if over.OnBatch != nil {
		req.OnBatch = over.OnBatch
	}
	if over.Link != nil {
		req.Link = over.Link
		req.LinkKey = over.LinkKey
	}
	return ps.svc.Submit(ctx, req)
}

// Execute runs the statement once and waits for its result.
func (ps *PreparedStatement) Execute(ctx context.Context, over Request) (*Result, error) {
	return awaitResult(ps.Submit(ctx, over))
}
