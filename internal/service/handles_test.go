package service

import (
	"fmt"

	"csq/internal/plan"
	"csq/internal/wire"
)

// StatsCache exposes the cross-query statistics cache (shared by every
// query's planner).
func (s *Service) StatsCache() *plan.StatsCache { return s.cache }

// ID returns the query's service-wide identifier.
func (q *Query) ID() uint64 { return q.id }

// Lookup returns a live or recently finished query handle.
func (s *Service) Lookup(id uint64) (*Query, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.queries[id]
	return q, ok
}

// Cancel sends a MsgCancel — only when the server's ack granted CapCancel.
func (q *RemoteQuery) Cancel() error {
	if q.caps&wire.CapCancel == 0 {
		return fmt.Errorf("service: server did not negotiate cancellation")
	}
	return q.r.conn.Send(wire.MsgCancel, wire.EncodeCancel(&wire.Cancel{QueryID: q.id}))
}
