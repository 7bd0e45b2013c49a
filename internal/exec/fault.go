package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"csq/internal/wire"
)

// RetryConfig governs session re-establishment for the client-site
// operators. The zero value enables fault tolerance with the defaults noted
// on each field.
type RetryConfig struct {
	// MaxRedials is the number of reconnection attempts per session loss.
	// Zero selects DefaultMaxRedials; negative disables reconnection (a
	// lost session immediately degrades onto the surviving pool).
	MaxRedials int
	// Backoff is the base delay between redial attempts; it doubles per
	// attempt, capped and jittered (see wire.Backoff). Zero selects the wire
	// package's default.
	Backoff time.Duration
}

// DefaultMaxRedials is the reconnection-attempt budget per session loss.
const DefaultMaxRedials = 3

func (c RetryConfig) maxRedials() int {
	if c.MaxRedials == 0 {
		return DefaultMaxRedials
	}
	if c.MaxRedials < 0 {
		return 0
	}
	return c.MaxRedials
}

// ErrSessionsExhausted is wrapped into the error a client-site operator
// returns when every session of its pool has died and could not be
// re-established, i.e. graceful degradation ran out of sessions.
var ErrSessionsExhausted = errors.New("exec: all client sessions lost")

// FaultStats counts the fault-tolerance activity of a client-site operator.
type FaultStats struct {
	// Redials is the number of sessions successfully re-established after a
	// mid-query loss.
	Redials int64
	// Failovers is the number of session losses the operator survived, by
	// redial or by re-dealing onto a surviving session.
	Failovers int64
	// ReplayedFrames is the number of unacknowledged frames replayed onto a
	// fresh or surviving session.
	ReplayedFrames int64
	// SessionsLost is the number of sessions that could not be
	// re-established, permanently shrinking the pool.
	SessionsLost int64
	// FinalSessions is the pool size when the operator finished; smaller
	// than the planned Decision.Sessions when the pool degraded.
	FinalSessions int
}

// add folds another operator's counters into s.
func (s *FaultStats) add(o FaultStats) {
	s.Redials += o.Redials
	s.Failovers += o.Failovers
	s.ReplayedFrames += o.ReplayedFrames
	s.SessionsLost += o.SessionsLost
	if o.FinalSessions > 0 {
		s.FinalSessions = o.FinalSessions
	}
}

// FaultReporter is implemented by operators that track fault-tolerance
// activity.
type FaultReporter interface {
	FaultStats() FaultStats
}

// FaultStatsOf aggregates the fault statistics reachable from op by walking
// the Unwrap chain, mirroring NetStatsOf.
func FaultStatsOf(op Operator) FaultStats {
	var total FaultStats
	for op != nil {
		if fr, ok := op.(FaultReporter); ok {
			total.add(fr.FaultStats())
		}
		u, ok := op.(Unwrapper)
		if !ok {
			break
		}
		op = u.Unwrap()
	}
	return total
}

// faultCounters is the operators' internal, concurrency-safe tally behind
// FaultStats.
type faultCounters struct {
	redials   atomic.Int64
	failovers atomic.Int64
	replayed  atomic.Int64
	lost      atomic.Int64
}

func (c *faultCounters) snapshot(finalSessions int) FaultStats {
	return FaultStats{
		Redials:        c.redials.Load(),
		Failovers:      c.failovers.Load(),
		ReplayedFrames: c.replayed.Load(),
		SessionsLost:   c.lost.Load(),
		FinalSessions:  finalSessions,
	}
}

// breakerProvider is implemented by links that maintain a per-link circuit
// breaker shared by session (re)establishment and asymmetry probes.
type breakerProvider interface {
	Breaker() *wire.Breaker
}

// BreakerOf returns the link's circuit breaker, or nil if the link does not
// maintain one.
func BreakerOf(link ClientLink) *wire.Breaker {
	if bp, ok := link.(breakerProvider); ok {
		return bp.Breaker()
	}
	return nil
}

// linkBreaker lazily materializes a per-link circuit breaker; embedding it
// gives a link the breakerProvider interface.
type linkBreaker struct {
	once sync.Once
	b    *wire.Breaker
}

// Breaker implements breakerProvider.
func (l *linkBreaker) Breaker() *wire.Breaker {
	l.once.Do(func() { l.b = &wire.Breaker{} })
	return l.b
}

// sessionFactory re-establishes sessions for one operator: a bounded,
// backoff-paced, breaker-guarded redial of the operator's setup handshake.
type sessionFactory struct {
	link  ClientLink
	req   *wire.SetupRequest
	retry RetryConfig
	stats *faultCounters
}

// errRedialDisabled reports that reconnection is configured off; callers
// fall through to degradation.
var errRedialDisabled = errors.New("exec: session redial disabled")

// redial attempts to open a replacement session. It returns the new session
// or an error explaining why recovery must degrade instead: redials
// disabled, attempts exhausted, breaker open, fatal handshake error, or
// context cancellation.
func (f *sessionFactory) redial(ctx context.Context) (*udfSession, error) {
	attempts := f.retry.maxRedials()
	if attempts <= 0 {
		return nil, errRedialDisabled
	}
	r := &wire.Redialer[*udfSession]{
		Dial: func(ctx context.Context) (*udfSession, error) {
			return openUDFSession(ctx, f.link, f.req)
		},
		MaxAttempts: attempts,
		Backoff:     wire.Backoff{Base: f.retry.Backoff},
		Breaker:     BreakerOf(f.link),
	}
	s, err := r.Redial(ctx)
	if err != nil {
		return nil, err
	}
	if f.stats != nil {
		f.stats.redials.Add(1)
	}
	return s, nil
}

// exhausted wraps the final session error once the whole pool is gone,
// tagging it with the wire-level classification so callers (and operators
// downstream) can tell a died-link query from a planner bug.
func exhausted(cause error) error {
	return fmt.Errorf("%w (last error, class %s): %v", ErrSessionsExhausted, wire.Classify(cause), cause)
}
