package service

import (
	"context"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"csq/internal/wire"
)

// admission is the service's fair, deadline-aware scheduler. It replaces the
// earlier flat semaphore with per-tenant weighted queues dispatched by
// deficit round robin, while keeping the three load-shedding rules that make
// overload degrade into typed refusals instead of an unbounded queue of
// doomed queries:
//
//   - The wait queue is bounded: once maxQueued queries are already waiting
//     for a slot (across all tenants), further submissions are shed
//     immediately with wire.RejectOverloaded and a retry-after hint scaled by
//     the queue depth.
//   - Each queued query's wait is bounded by a queue-time budget derived from
//     its own deadline: a query may spend at most queueFraction of its
//     remaining wall-clock budget waiting for admission (capped by the
//     configured absolute maximum). A query whose budget elapses is shed as
//     overloaded — it still had time to run elsewhere, which burning its
//     whole deadline in the queue would have destroyed.
//   - Once the controller drains (graceful shutdown), every waiter and every
//     later submission is shed with wire.RejectDraining; running queries keep
//     their slots until they finish.
//
// Fairness: every query names a tenant (empty means DefaultTenant). Each
// tenant has a strictly FIFO waiter queue; free slots are dealt to the queues
// by deficit round robin — per rotation visit a tenant's deficit grows by its
// configured weight and each dispatched query spends one unit — so a tenant
// with weight 3 drains three queries for every one of a weight-1 tenant under
// contention, no tenant can starve another, and a lone tenant still gets the
// whole machine. A per-tenant quota (max running) additionally caps how many
// slots one tenant may hold regardless of queue state.
//
// Shed queries never held a slot and never executed, so the typed errors are
// safe to retry idempotently.
type admission struct {
	maxConcurrent int
	maxQueued     int
	maxWait       time.Duration // absolute queue-wait cap; <= 0 means none

	mu       sync.Mutex
	running  int
	queued   int // waiters across every tenant queue
	tenants  map[string]*tenantQueue
	order    []*tenantQueue // stable rotation order (creation order)
	rrIdx    int            // next rotation position
	policies map[string]TenantPolicy
	drainCh  chan struct{} // closed on drain
	drained  bool

	admitted     atomic.Int64
	shedOverload atomic.Int64
	shedDeadline atomic.Int64 // subset of overload sheds caused by the queue-time budget
	shedDraining atomic.Int64
	waits        waitHistogram
	queuedPeak   atomic.Int64
	waitMaxNanos atomic.Int64
}

// DefaultTenant is the accounting principal of queries that name none.
const DefaultTenant = "default"

// TenantPolicy configures one tenant's share of the service.
type TenantPolicy struct {
	// Weight is the tenant's relative share under contention (deficit
	// round-robin quantum). Values < 1 select 1.
	Weight int
	// MaxConcurrent caps how many slots the tenant may hold at once.
	// 0 means no per-tenant cap (the global limit still applies).
	MaxConcurrent int
}

func (p TenantPolicy) weight() int { return max(p.Weight, 1) }

// tenantQueue is one tenant's scheduler state. waiters is strictly FIFO:
// arrivals append at the tail, dispatch pops the head — so two queries of one
// tenant are always granted in submission order, however the rotation
// interleaves tenants.
type tenantQueue struct {
	name    string
	weight  int
	quota   int // max running; 0 = no cap
	deficit int
	waiters []*waiter
	running int

	admittedTotal int64
	shedTotal     int64
}

// waiter is one query waiting for a slot. grant is buffered so dispatch never
// blocks; granted is owned by the admission mutex and disambiguates the race
// between a grant and the waiter abandoning (cancel, timeout, drain).
type waiter struct {
	tq      *tenantQueue
	grant   chan struct{}
	granted bool
}

// queueFraction is the share of a query's remaining deadline it may spend
// waiting for admission before it is shed.
const queueFraction = 0.5

// Defaults for the admission controller's bounds.
const (
	// DefaultMaxQueued bounds how many queries may wait for a slot.
	DefaultMaxQueued = 64
	// defaultRetryAfterBase scales the retry-after hint by queue depth.
	defaultRetryAfterBase = 25 * time.Millisecond
	// defaultRetryAfterCap bounds the retry-after hint.
	defaultRetryAfterCap = 5 * time.Second
)

func newAdmission(maxConcurrent, maxQueued int, maxWait time.Duration, policies map[string]TenantPolicy) *admission {
	if maxConcurrent < 1 {
		maxConcurrent = DefaultMaxConcurrent
	}
	if maxQueued < 1 {
		maxQueued = DefaultMaxQueued
	}
	return &admission{
		maxConcurrent: maxConcurrent,
		maxQueued:     maxQueued,
		maxWait:       maxWait,
		tenants:       make(map[string]*tenantQueue),
		policies:      policies,
		drainCh:       make(chan struct{}),
	}
}

// tenantFor returns (creating on first use) the named tenant's queue. Tenants
// are never removed: the set is bounded by the distinct principals the
// deployment serves, and keeping them preserves rotation stability and
// accumulated stats.
func (a *admission) tenantFor(name string) *tenantQueue {
	if name == "" {
		name = DefaultTenant
	}
	if tq, ok := a.tenants[name]; ok {
		return tq
	}
	pol := a.policies[name]
	tq := &tenantQueue{name: name, weight: pol.weight(), quota: pol.MaxConcurrent}
	a.tenants[name] = tq
	a.order = append(a.order, tq)
	return tq
}

// eligible reports whether the tenant has a dispatchable waiter.
func (tq *tenantQueue) eligible() bool {
	return len(tq.waiters) > 0 && (tq.quota <= 0 || tq.running < tq.quota)
}

// nextWaiter picks the next waiter by deficit round robin. Caller holds a.mu.
func (a *admission) nextWaiter() *waiter {
	n := len(a.order)
	if n == 0 {
		return nil
	}
	// Two full rotations suffice: the first replenishes every eligible
	// tenant's deficit at least once, so the second must find a dispatch if
	// any tenant is eligible at all.
	for steps := 0; steps < 2*n; steps++ {
		tq := a.order[a.rrIdx%n]
		if !tq.eligible() {
			// An empty or capped queue forfeits its accumulated share: deficit
			// must not be hoarded across idle periods, or a returning tenant
			// would burst past its weight.
			tq.deficit = 0
			a.rrIdx++
			continue
		}
		if tq.deficit < 1 {
			tq.deficit += tq.weight
		}
		tq.deficit--
		w := tq.waiters[0]
		tq.waiters = tq.waiters[1:]
		a.queued--
		if tq.deficit < 1 {
			a.rrIdx++ // share spent; next tenant's turn
		}
		return w
	}
	return nil
}

// dispatch grants free slots to waiters in DRR order. Caller holds a.mu.
func (a *admission) dispatch() {
	for a.running < a.maxConcurrent {
		w := a.nextWaiter()
		if w == nil {
			return
		}
		a.running++
		w.tq.running++
		w.granted = true
		w.grant <- struct{}{}
	}
}

// releaseSlot returns a slot and redistributes it. Caller holds a.mu.
func (a *admission) releaseSlot(tq *tenantQueue) {
	a.running--
	tq.running--
	a.dispatch()
}

// abandon removes a waiter that is giving up (cancel, timeout, drain). If a
// grant raced in before the waiter could be removed, the slot it was granted
// is released again. Caller holds a.mu.
func (a *admission) abandon(w *waiter) {
	if w.granted {
		a.releaseSlot(w.tq)
		return
	}
	if i := slices.Index(w.tq.waiters, w); i >= 0 {
		w.tq.waiters = slices.Delete(w.tq.waiters, i, i+1)
		a.queued--
	}
}

// acquire obtains an execution slot for the tenant's query, waiting within
// the query's queue-time budget. On success it returns the release function
// and the time spent queued. Shed and cancelled queries return a typed error
// and no slot.
func (a *admission) acquire(ctx context.Context, tenant string) (release func(), wait time.Duration, err error) {
	start := time.Now()
	a.mu.Lock()
	// Unlocked while the query waits, and locked again to settle how it ended.
	defer a.mu.Unlock()
	if a.drained {
		return a.shed(nil, wire.RejectDraining, 0, false)
	}
	tq := a.tenantFor(tenant)

	// Fast path: with nobody queued, a free slot under quota admits
	// immediately — no rotation, no histogramable wait.
	if a.queued == 0 && a.running < a.maxConcurrent && (tq.quota <= 0 || tq.running < tq.quota) {
		a.running++
		tq.running++
		return a.admit(tq, 0)
	}
	if a.queued >= a.maxQueued {
		return a.shed(tq, wire.RejectOverloaded, 0, false)
	}

	// The queue-time budget: a deadline query may burn at most queueFraction
	// of its remaining time waiting, so a shed still leaves it time to run
	// elsewhere; the absolute cap (when configured) bounds deadline-free
	// queries too.
	budget := a.maxWait
	if dl, ok := ctx.Deadline(); ok {
		b := time.Duration(float64(time.Until(dl)) * queueFraction)
		if b <= 0 {
			return a.shed(tq, wire.RejectOverloaded, 0, true)
		}
		if budget <= 0 || b < budget {
			budget = b
		}
	}

	w := &waiter{tq: tq, grant: make(chan struct{}, 1)}
	tq.waiters = append(tq.waiters, w)
	a.queued++
	if q := int64(a.queued); q > a.queuedPeak.Load() {
		a.queuedPeak.Store(q)
	}
	drainCh := a.drainCh
	// A slot may have freed between the fast-path check and the enqueue.
	a.dispatch()
	a.mu.Unlock()

	var timeout <-chan time.Time
	if budget > 0 {
		t := time.NewTimer(budget)
		defer t.Stop()
		timeout = t.C
	}
	cancelled, reason := false, wire.RejectOverloaded
	select {
	case <-w.grant:
	case <-ctx.Done():
		cancelled = true
	case <-timeout:
	case <-drainCh:
		reason = wire.RejectDraining
	}
	a.mu.Lock()
	wait = time.Since(start)
	// A grant that raced the timer or the drain keeps its slot.
	if w.granted && !cancelled {
		return a.admit(tq, wait)
	}
	a.abandon(w)
	if cancelled {
		return nil, wait, ctx.Err()
	}
	return a.shed(tq, reason, wait, reason == wire.RejectOverloaded)
}

// admit counts a query granted the slot it now holds and returns the slot's
// release. Caller holds a.mu.
func (a *admission) admit(tq *tenantQueue, wait time.Duration) (func(), time.Duration, error) {
	tq.admittedTotal++
	a.admitted.Add(1)
	a.waits.observe(wait)
	if int64(wait) > a.waitMaxNanos.Load() {
		a.waitMaxNanos.Store(int64(wait))
	}
	return func() { a.mu.Lock(); a.releaseSlot(tq); a.mu.Unlock() }, wait, nil
}

// shed refuses a query with a typed reject, charged to its tenant when it got
// as far as naming one. An overload carries a retry-after hint scaled by the
// queue depth; deadline marks the sheds a queue-time budget caused. Caller
// holds a.mu.
func (a *admission) shed(tq *tenantQueue, reason wire.RejectReason, wait time.Duration, deadline bool) (func(), time.Duration, error) {
	if tq != nil {
		tq.shedTotal++
	}
	re := &wire.RejectError{Reason: reason}
	if reason == wire.RejectDraining {
		a.shedDraining.Add(1)
	} else {
		a.shedOverload.Add(1)
		// Back off in proportion to the queue pressure at shed time.
		re.RetryAfter = min(defaultRetryAfterBase*time.Duration(a.queued+1), defaultRetryAfterCap)
	}
	if deadline {
		a.shedDeadline.Add(1)
	}
	return nil, wait, re
}

// drain sheds every queued query and refuses later submissions; running
// queries are unaffected. Idempotent.
func (a *admission) drain() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.drained {
		a.drained = true
		close(a.drainCh)
	}
}

// waitHistogram is a lock-free power-of-two histogram of admission waits,
// from which quantiles are estimated without retaining per-query samples.
// Bucket i counts waits in [2^(i-1), 2^i) milliseconds; bucket 0 is < 1ms,
// the last bucket is the overflow.
type waitHistogram struct {
	buckets [17]atomic.Int64 // <1ms .. <32.8s, then overflow
}

func (h *waitHistogram) observe(d time.Duration) {
	ms := d.Milliseconds()
	i := 0
	for ms > 0 && i < len(h.buckets)-1 {
		ms >>= 1
		i++
	}
	h.buckets[i].Add(1)
}

// quantile estimates the q-quantile (0 < q <= 1) as the upper bound of the
// bucket where the cumulative count crosses it. Zero when nothing was
// observed.
func (h *waitHistogram) quantile(q float64) time.Duration {
	var total int64
	for i := range h.buckets {
		total += h.buckets[i].Load()
	}
	if total == 0 {
		return 0
	}
	target := max(int64(float64(total)*q), 1)
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= target {
			return time.Duration(1<<uint(i)) * time.Millisecond
		}
	}
	return time.Duration(1<<uint(len(h.buckets)-1)) * time.Millisecond
}

// TenantAdmissionStats is one tenant's slice of the scheduler.
type TenantAdmissionStats struct {
	// Weight is the tenant's DRR share; Quota its running cap (0 = none).
	Weight int
	Quota  int
	// Running and Queued are the tenant's current slot and queue occupancy.
	Running int
	Queued  int
	// Admitted and Shed count the tenant's granted and refused queries.
	Admitted int64
	Shed     int64
}

// AdmissionStats is a point-in-time snapshot of the admission controller.
type AdmissionStats struct {
	// Admitted counts queries granted an execution slot.
	Admitted int64
	// ShedOverload counts queries shed with wire.RejectOverloaded (queue
	// full, or queue-time budget elapsed).
	ShedOverload int64
	// ShedDeadline is the subset of ShedOverload shed because the queue-time
	// budget derived from their deadline elapsed.
	ShedDeadline int64
	// ShedDraining counts queries shed because the service was draining.
	ShedDraining int64
	// Queued is the current wait-queue depth; QueuedPeak its high-water mark.
	Queued     int
	QueuedPeak int64
	// WaitP50/WaitP99 are bucketed estimates of the admission-wait quantiles.
	WaitP50 time.Duration
	WaitP99 time.Duration
	// WaitMax is the longest admission wait granted so far.
	WaitMax time.Duration
	// Tenants snapshots every tenant that has submitted at least one query,
	// keyed by tenant name.
	Tenants map[string]TenantAdmissionStats
}

func (a *admission) stats() AdmissionStats {
	a.mu.Lock()
	queued := a.queued
	tenants := make(map[string]TenantAdmissionStats, len(a.tenants))
	for name, tq := range a.tenants {
		tenants[name] = TenantAdmissionStats{
			Weight:   tq.weight,
			Quota:    tq.quota,
			Running:  tq.running,
			Queued:   len(tq.waiters),
			Admitted: tq.admittedTotal,
			Shed:     tq.shedTotal,
		}
	}
	a.mu.Unlock()
	return AdmissionStats{
		Admitted:     a.admitted.Load(),
		ShedOverload: a.shedOverload.Load(),
		ShedDeadline: a.shedDeadline.Load(),
		ShedDraining: a.shedDraining.Load(),
		Queued:       queued,
		QueuedPeak:   a.queuedPeak.Load(),
		WaitP50:      a.waits.quantile(0.50),
		WaitP99:      a.waits.quantile(0.99),
		WaitMax:      time.Duration(a.waitMaxNanos.Load()),
		Tenants:      tenants,
	}
}

// TenantNames returns the tenants seen so far, sorted, for stable logging.
func (s AdmissionStats) TenantNames() []string {
	names := make([]string, 0, len(s.Tenants))
	for n := range s.Tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
