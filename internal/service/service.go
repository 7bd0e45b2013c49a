// Package service turns the single-query planning and execution stack into a
// governed multi-query service: it accepts concurrent queries (each a logical
// tree plus a client link), runs each through one pipeline (resolve → answer
// from cache? → admit → plan → execute and emit → finish) under a per-query
// context with deadline and cancellation, enforces a global admission
// limit, governs memory through a per-query exec.MemTracker (soft budget →
// Grace spilling in HashJoin/HashAggregate, hard limit → query failure),
// shares one cross-query plan.StatsCache so repeated queries reuse sampled
// statistics and probe-measured link observations, and exposes per-query
// lifecycle statistics.
//
// The wire front-end (Server, cmd/udfserverd) speaks the MsgQuery/MsgCancel
// framing extension on top of this.
package service

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"csq/internal/catalog"
	"csq/internal/exec"
	"csq/internal/logical"
	"csq/internal/plan"
	"csq/internal/types"
	"csq/internal/wire"
)

// State is a query's lifecycle state.
type State uint8

// Query lifecycle states, in the order they normally occur.
const (
	// StateQueued: submitted, waiting for an admission slot.
	StateQueued State = iota
	// StatePlanning: holding a slot, running the plan→lower pipeline.
	StatePlanning
	// StateRunning: executing the lowered operator tree.
	StateRunning
	// StateDone: finished successfully.
	StateDone
	// StateFailed: finished with an error.
	StateFailed
	// StateCanceled: terminated by cancellation or deadline.
	StateCanceled
	// StateShed: refused by the admission controller (overload or drain)
	// without ever holding a slot; safe to retry elsewhere.
	StateShed
)

var stateNames = [...]string{"queued", "planning", "running", "done", "failed", "canceled", "shed"}

// String implements fmt.Stringer.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "unknown"
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled || s == StateShed
}

// Defaults for Config fields left zero.
const (
	// DefaultMaxConcurrent is the default admission limit.
	DefaultMaxConcurrent = 8
	// DefaultKeepFinished is how many finished queries' stats are retained.
	DefaultKeepFinished = 128
)

// Config tunes the service. The zero value selects the defaults.
type Config struct {
	// MaxConcurrent is the global admission limit: at most this many queries
	// hold planning/execution slots simultaneously; the rest wait in
	// StateQueued. Values < 1 select DefaultMaxConcurrent.
	MaxConcurrent int
	// MemBudget is the default per-query soft memory budget in bytes; going
	// over it makes HashJoin/HashAggregate spill to disk. 0 means unlimited.
	MemBudget int64
	// HardMemLimit is the default per-query hard memory limit; a query whose
	// unspillable state exceeds it fails with exec.ErrMemoryLimit. 0 = none.
	HardMemLimit int64
	// DefaultTimeout bounds each query's wall-clock time when the request
	// does not set one. 0 means no deadline.
	DefaultTimeout time.Duration
	// TempDir is where spill runs are created ("" = system temp dir).
	TempDir string
	// MaxQueued bounds how many queries may wait for an admission slot before
	// further submissions are shed as overloaded. Values < 1 select
	// DefaultMaxQueued.
	MaxQueued int
	// MaxQueueWait caps how long any query may wait for admission, on top of
	// the per-query queue-time budget derived from its deadline. 0 = no cap.
	MaxQueueWait time.Duration
	// StallTimeout enables the stuck-query watchdog: a planning or running
	// query whose progress heartbeat does not advance for this long is
	// cancelled with ErrStalled. 0 disables the watchdog.
	StallTimeout time.Duration
	// Planner carries the base planner config (session retry policy, a
	// fixed link observation for tests). The service manages StatsCache,
	// LinkKey and MemBudget per query on top of it.
	Planner plan.Config

	// Hot-query serving knobs. All three default to off so a zero Config
	// behaves exactly like the pre-caching service.

	// PlanCacheEntries, when > 0, enables the cross-query prepared-plan cache
	// with that many LRU slots: repeated queries with the same shape over
	// unchanged data skip rewrite, sampling, probing and strategy choice.
	PlanCacheEntries int
	// ResultCacheBytes, when > 0, enables the version-keyed result cache with
	// that byte budget: deterministic queries (UDF-free, or catalog-declared
	// pure UDFs only) over unchanged data are answered from memory.
	ResultCacheBytes int64
	// SharedScans, when true, coalesces concurrent identical segment decodes
	// across queries: followers attach to the leader's in-flight read instead
	// of decoding the same columnar segment independently.
	SharedScans bool
	// Tenants configures per-tenant scheduling (DRR weight, running quota).
	// Tenants absent from the map get weight 1 and no quota.
	Tenants map[string]TenantPolicy
}

// Request describes one query.
type Request struct {
	// Tree is the query's logical plan. Trees without UDF applications are
	// pure server-side queries and need no link.
	Tree logical.Node
	// Link is the client link UDF applications execute over.
	Link exec.ClientLink
	// LinkKey identifies the physical link in the cross-query stats cache
	// (e.g. the client runtime's address), enabling probe reuse.
	LinkKey string
	// MemBudget overrides the service's per-query soft budget: > 0 sets a
	// budget, 0 inherits the service default, < 0 disables budgeting.
	MemBudget int64
	// Timeout overrides the service's default per-query deadline: > 0 sets
	// one, 0 inherits the default, < 0 disables it.
	Timeout time.Duration
	// OnBatch, when non-nil, streams result batches as they are produced
	// instead of accumulating rows in the result. The callback owns the
	// tuples; returning an error aborts the query.
	OnBatch func(batch []types.Tuple) error
	// Frames, when non-nil, receives the result as encoded wire frames — what
	// the wire front-end sends a requester — instead of accumulating rows in
	// the result. It is the path on which a result-cache hit encodes nothing.
	Frames *FrameSink
	// Tenant names the accounting principal the query runs under; the fair
	// scheduler queues and meters per tenant. Empty selects DefaultTenant.
	Tenant string

	// stmtPlans is the plan slot of the prepared statement the query
	// executes; set by PreparedStatement.Submit.
	stmtPlans *plan.Cache[*plan.TreePlan]
}

// FrameSink receives a query's result as the frames of a wire result stream
// (see wire.ResultEncoder), each without the query ID its payload starts
// with: the sink stamps its own.
type FrameSink struct {
	// Stream selects the column-vector encoding. False yields plain
	// MsgResultBatch frames only: what a peer that did not negotiate
	// wire.CapResultVectors must be sent.
	Stream bool
	// Write receives the result's next frames, in order: one at a time as
	// they are produced, or a cached answer's all at once. The bodies are
	// only valid during the call. Returning an error aborts the query.
	Write func(frames []wire.ResultFrame) error
}

// QueryStats is a point-in-time snapshot of one query's lifecycle.
type QueryStats struct {
	ID        uint64
	State     State
	Err       string
	Submitted time.Time
	Started   time.Time // admission granted
	Finished  time.Time
	Rows      int64
	// AdmissionWait is how long the query waited for an execution slot.
	AdmissionWait time.Duration
	// Stalled reports that the stuck-query watchdog cancelled the query.
	Stalled bool
	// Memory governance, from the query's MemTracker.
	MemPeakBytes int64
	SpillEvents  int64
	SpilledBytes int64
	// Scan aggregates the storage I/O of the query's columnar scans:
	// segments scanned and pruned, on-disk bytes read, decode time.
	Scan exec.ScanStats
	// Strategies lists the chosen strategy per UDF application.
	Strategies []string
	// SessionsPlanned lists the planned session-pool size per UDF
	// application, aligned with Strategies. Compare with
	// Faults.FinalSessions to see whether a pool degraded mid-query.
	SessionsPlanned []int
	// Faults aggregates the fault-tolerance activity of the query's
	// client-site operators: redials, failovers, replayed frames, sessions
	// lost and the pool size the query finished with.
	Faults exec.FaultStats
	// StatsFromCache reports that at least one application's sampling
	// statistics were served by the cross-query cache.
	StatsFromCache bool
	// Tenant is the accounting principal the query ran under.
	Tenant string
	// PlanFromCache reports that the whole TreePlan was reused (plan cache or
	// prepared statement) instead of planned from scratch.
	PlanFromCache bool
	// ResultFromCache reports that the result was served entirely from the
	// version-keyed result cache without planning or executing anything.
	ResultFromCache bool
}

// Result is a finished query's output.
type Result struct {
	// Rows holds the accumulated result when neither sink (OnBatch, Frames)
	// was set.
	Rows []types.Tuple
	// RowCount is the number of rows produced (accumulated or streamed).
	RowCount int64
	// Stats is the final lifecycle snapshot.
	Stats QueryStats
}

// ErrStalled is the cancellation cause the stuck-query watchdog records when
// it kills a query whose progress heartbeat froze for the stall window. It
// surfaces from Wait via the query's error (state StateFailed).
var ErrStalled = errors.New("service: query stalled: no progress within the stall window")

// Service runs queries.
type Service struct {
	cat   *catalog.Catalog
	cfg   Config
	cache *plan.StatsCache
	adm   *admission

	// Hot-query serving state; each is nil when its Config knob is off.
	planCache   *plan.Cache[*plan.TreePlan]
	resultCache *plan.Cache[*cachedResult]
	scanShare   *exec.ScanShare

	nextID       atomic.Uint64
	stallCancels atomic.Int64

	wdStop context.CancelFunc // nil when the watchdog is disabled
	wdDone chan struct{}

	mu       sync.Mutex
	queries  map[uint64]*Query
	finished []uint64 // finished query IDs in completion order, for pruning
	draining bool
	closed   bool
}

// New builds a service over the given catalog.
func New(cat *catalog.Catalog, cfg Config) *Service {
	s := &Service{
		cat:     cat,
		cfg:     cfg,
		cache:   plan.NewStatsCache(),
		adm:     newAdmission(cfg.MaxConcurrent, cfg.MaxQueued, cfg.MaxQueueWait, cfg.Tenants),
		queries: make(map[uint64]*Query),
	}
	if cfg.PlanCacheEntries > 0 {
		s.planCache = plan.NewPlanCache(cfg.PlanCacheEntries)
	}
	if cfg.ResultCacheBytes > 0 {
		s.resultCache = plan.NewCache(cfg.ResultCacheBytes, func(r *cachedResult) int64 { return r.bytes })
	}
	if cfg.SharedScans {
		s.scanShare = exec.NewScanShare()
	}
	if cfg.StallTimeout > 0 {
		ctx, stop := context.WithCancel(context.Background())
		s.wdStop = stop
		s.wdDone = make(chan struct{})
		go s.watchdog(ctx)
	}
	return s
}

// Query is the handle of one submitted query.
type Query struct {
	id          uint64
	svc         *Service
	cancelCause context.CancelCauseFunc
	cancelTimer context.CancelFunc // releases the deadline timer; nil without one
	done        chan struct{}
	prog        *exec.Progress

	// Watchdog bookkeeping, touched only by the watchdog goroutine.
	wdCount int64
	wdSince time.Time

	// sink is where the answer goes; owned by the run goroutine.
	sink
	rows []types.Tuple // the answer Wait returns, when the sink collects it

	mu sync.Mutex
	// st is the query's lifecycle record, updated in place; its State and
	// the times that go with it change only in advance.
	st        QueryStats
	err       error // the terminal error; Stats formats it into st.Err
	tracker   *exec.MemTracker
	scanStats *exec.ScanStatsRecorder
}

// sink is where a query's answer goes, chosen at Submit: tuples to
// Request.OnBatch, frames to Request.Frames, and with neither, tuples to
// Wait's rows. The answer is encoded once, for the frame sink and for the
// result cache, whose kept frames are a tee on the one encoder.
type sink struct {
	tuples func([]types.Tuple) error // Request.OnBatch
	frames *FrameSink

	enc       *wire.ResultEncoder // in the frame sink's encoding, else the compact one
	keep      []wire.ResultFrame  // the tee, until the answer is stored
	keepBytes int64
	keepLimit int64 // > 0 while the answer is being kept
}

// cancelWith terminates the query's context, recording cause (nil means plain
// cancellation) so finish can classify why the query died.
func (q *Query) cancelWith(cause error) {
	q.cancelCause(cause)
	if q.cancelTimer != nil {
		q.cancelTimer()
	}
}

// Cancel aborts the query. Safe to call at any time, any number of times.
func (q *Query) Cancel() { q.cancelWith(nil) }

// Done is closed when the query reaches a terminal state.
func (q *Query) Done() <-chan struct{} { return q.done }

// Wait blocks until the query finishes and returns its result.
func (q *Query) Wait() (*Result, error) {
	<-q.done
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err != nil {
		return nil, q.err
	}
	return &Result{Rows: q.rows, RowCount: q.st.Rows, Stats: q.statsLocked()}, nil
}

// Stats returns a point-in-time lifecycle snapshot.
func (q *Query) Stats() QueryStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.statsLocked()
}

// statsLocked copies the lifecycle record and reads the live counters into
// it. Caller holds q.mu.
func (q *Query) statsLocked() QueryStats {
	st := q.st
	st.Strategies = slices.Clone(st.Strategies)
	st.SessionsPlanned = slices.Clone(st.SessionsPlanned)
	st.MemPeakBytes, st.SpillEvents, st.SpilledBytes = q.tracker.Peak(), q.tracker.SpillEvents(), q.tracker.SpilledBytes()
	st.Scan = q.scanStats.Stats()
	if q.err != nil {
		st.Err = q.err.Error()
	}
	return st
}

func (q *Query) state() State {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.st.State
}

// advance is the one place a query's state changes. It stamps what each move
// means, so no stage can forget it: leaving the queue records wait, what
// admission measured (zero for a query it never answered, such as a cache
// hit), starting work stamps Started, and a terminal state stamps Finished.
// note records what the stage learned in the same critical section.
func (q *Query) advance(to State, wait time.Duration, note func()) {
	now := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.st.State == StateQueued {
		q.st.AdmissionWait = wait
	}
	if q.st.Started.IsZero() && (to == StatePlanning || to == StateRunning) {
		q.st.Started = now
	}
	if to.Terminal() {
		q.st.Finished = now
	}
	q.st.State = to
	note()
}

// Submit registers a query and starts it asynchronously; the returned handle
// cancels, waits and reports stats. The context governs the whole query: its
// cancellation or deadline terminates planning and execution.
func (s *Service) Submit(ctx context.Context, req Request) (*Query, error) {
	if req.Tree == nil {
		return nil, fmt.Errorf("service: query has no logical tree")
	}
	var timerCancel context.CancelFunc
	if timeout := cmp.Or(req.Timeout, s.cfg.DefaultTimeout); timeout > 0 {
		ctx, timerCancel = context.WithTimeout(ctx, timeout)
	}
	qctx, cancel := context.WithCancelCause(ctx)
	q := &Query{
		id:          s.nextID.Add(1),
		svc:         s,
		cancelCause: cancel,
		cancelTimer: timerCancel,
		done:        make(chan struct{}),
		prog:        &exec.Progress{},
		sink:        sink{tuples: req.OnBatch, frames: req.Frames},
	}
	if req.Frames != nil {
		q.enc = wire.NewResultEncoder(req.Frames.Stream)
	}
	q.st = QueryStats{ID: q.id, Tenant: cmp.Or(req.Tenant, DefaultTenant), Submitted: time.Now()}
	// The refusal check and the registration share one critical section, so
	// a Submit racing Close or Shutdown either registers before their
	// snapshot (and is cancelled or awaited by it) or is refused.
	s.mu.Lock()
	err := s.refusal()
	if err == nil {
		s.queries[q.id] = q
	}
	s.mu.Unlock()
	if err != nil {
		q.cancelWith(nil)
		return nil, err
	}
	go q.run(qctx, req)
	return q, nil
}

// refusal is why the service takes no new work, or nil: closed, or draining
// (a typed reject the peer may retry elsewhere). Caller holds s.mu.
func (s *Service) refusal() error {
	if s.closed {
		return errors.New("service: closed")
	}
	if s.draining {
		return &wire.RejectError{Reason: wire.RejectDraining}
	}
	return nil
}

// Execute submits the query and waits for its result.
func (s *Service) Execute(ctx context.Context, req Request) (*Result, error) {
	return awaitResult(s.Submit(ctx, req))
}

// awaitResult is Wait on a query just submitted, unless the submission
// failed.
func awaitResult(q *Query, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return q.Wait()
}

// tracked returns every query the service tracks, active or retained after
// finishing, oldest first.
func (s *Service) tracked() []*Query {
	s.mu.Lock()
	qs := make([]*Query, 0, len(s.queries))
	for _, q := range s.queries {
		qs = append(qs, q)
	}
	s.mu.Unlock()
	sort.Slice(qs, func(i, j int) bool { return qs[i].id < qs[j].id })
	return qs
}

// Queries returns lifecycle snapshots of every tracked query, oldest first.
func (s *Service) Queries() []QueryStats {
	qs := s.tracked()
	out := make([]QueryStats, len(qs))
	for i, q := range qs {
		out[i] = q.Stats()
	}
	return out
}

// Close cancels every active query and refuses new submissions: Shutdown
// with no grace period.
func (s *Service) Close() { _ = s.Shutdown(expired) }

// expired is a context that is already over: a drain with no grace period.
var expired = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// Shutdown drains the service gracefully: new submissions and queued queries
// are shed as draining (typed, retryable elsewhere), while queries already
// holding a slot run to completion. If ctx expires first the stragglers are
// cancelled. The watchdog is stopped; the service refuses all work afterwards.
// It returns ctx's error when the drain timed out, nil on a clean drain.
func (s *Service) Shutdown(ctx context.Context) (err error) {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.draining = true
	s.mu.Unlock()
	s.adm.drain()
	var qs []*Query
	if !alreadyClosed {
		qs = s.tracked()
	}
	// Wait for every query to finish; when ctx expires first, cancel them
	// all and still wait, so no query goroutine outlives the drain.
	for _, q := range qs {
		select {
		case <-q.done:
		case <-ctx.Done():
			if err == nil {
				err = ctx.Err()
				for _, r := range qs {
					r.cancelWith(nil)
				}
			}
			<-q.done
		}
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.stopWatchdog()
	return err
}

// stopWatchdog stops the watchdog goroutine and waits for it. Idempotent,
// no-op when the watchdog was never started.
func (s *Service) stopWatchdog() {
	if s.wdStop != nil {
		s.wdStop()
		<-s.wdDone
	}
}

// watchdog periodically sweeps active queries for frozen progress heartbeats.
func (s *Service) watchdog(ctx context.Context) {
	defer close(s.wdDone)
	// A quarter of the stall window: a frozen query is caught within 1.25
	// windows of its last heartbeat.
	ticker := time.NewTicker(max(s.cfg.StallTimeout/4, time.Millisecond))
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			s.sweepStalled(time.Now())
		}
	}
}

// sweepStalled cancels (with ErrStalled) every planning or running query whose
// heartbeat count has not advanced for the stall window. The per-query
// bookkeeping (wdCount/wdSince) is owned by this goroutine alone.
func (s *Service) sweepStalled(now time.Time) {
	for _, q := range s.tracked() {
		if state := q.state(); state != StatePlanning && state != StateRunning {
			q.wdSince = time.Time{}
			continue
		}
		count := q.prog.Count()
		if q.wdSince.IsZero() || count != q.wdCount {
			q.wdCount, q.wdSince = count, now
			continue
		}
		if now.Sub(q.wdSince) >= s.cfg.StallTimeout {
			s.stallCancels.Add(1)
			q.cancelWith(ErrStalled)
			q.wdSince = now // one cancel per stall, not one per sweep
		}
	}
}

// CacheStats snapshots every cross-query cache the service runs: the
// planner's statistics cache (always on), the prepared-plan cache, the
// version-keyed result cache, and the shared-scan coalescer.
type CacheStats struct {
	// StatsHits/StatsMisses count the plan.StatsCache's sampling-pass
	// lookups (probe observations are keyed separately and not counted).
	StatsHits   int64
	StatsMisses int64
	// PlanHits/PlanMisses count whole-TreePlan reuse via the plan cache.
	PlanHits   int64
	PlanMisses int64
	// ResultHits/ResultMisses count result-cache lookups by eligible queries;
	// ResultBytes/ResultEntries describe its current occupancy.
	ResultHits    int64
	ResultMisses  int64
	ResultBytes   int64
	ResultEntries int
	// SharedSegments counts segment decodes served by attaching to a peer's
	// in-flight read; LedSegments the decodes performed on behalf of queries.
	SharedSegments int64
	LedSegments    int64
}

// ServiceStats is a point-in-time snapshot of the service's health.
type ServiceStats struct {
	// Admission snapshots the fair scheduler (slots granted, sheds by cause,
	// queue depth, wait quantiles, per-tenant shares).
	Admission AdmissionStats
	// Caches snapshots the cross-query caches' hit rates and occupancy.
	Caches CacheStats
	// StallCancels counts queries the stuck-query watchdog killed.
	StallCancels int64
	// Active counts queries in non-terminal states.
	Active int
	// Draining reports that the service is shutting down.
	Draining bool
}

// Stats returns a point-in-time snapshot of the service's health.
func (s *Service) Stats() ServiceStats {
	active := 0
	for _, q := range s.tracked() {
		if !q.state().Terminal() {
			active++
		}
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	return ServiceStats{
		Admission: s.adm.stats(),
		Caches: CacheStats{
			StatsHits:      s.cache.Hits(),
			StatsMisses:    s.cache.Misses(),
			PlanHits:       s.planCache.Hits(),
			PlanMisses:     s.planCache.Misses(),
			ResultHits:     s.resultCache.Hits(),
			ResultMisses:   s.resultCache.Misses(),
			ResultBytes:    s.resultCache.Used(),
			ResultEntries:  s.resultCache.Len(),
			SharedSegments: s.scanShare.SharedSegments(),
			LedSegments:    s.scanShare.LedSegments(),
		},
		StallCancels: s.stallCancels.Load(),
		Active:       active,
		Draining:     draining,
	}
}

// run is the query's pipeline, the same for every entry (Execute, a wire
// MsgQuery or MsgExecPrepared, a prepared statement); entries differ only in
// the request and the sink. Submit has resolved the deadline, the tenant and
// the sink; run goes on from there:
//
//	answer from cache? → admit → plan → execute and emit → finish
func (q *Query) run(ctx context.Context, req Request) {
	var err error
	var wait time.Duration // what admission measured, once it answered
	defer func() {
		// A panicking operator (or planner) fails this query, not the
		// process: the service keeps serving its other queries.
		if rec := recover(); rec != nil {
			err = fmt.Errorf("service: query panicked: %v", rec)
		}
		q.finish(ctx, err, wait)
	}()
	svc := q.svc
	// The heartbeat counter rides the context into every operator's Open, so
	// the watchdog sees progress from whatever the query ends up running.
	ctx = exec.WithProgress(ctx, q.prog)

	// Answer from cache: a deterministic query over unchanged data is
	// answered from memory before it competes for an admission slot. The key
	// embeds every scanned table's data version and the catalog version, so
	// a concurrent write makes the lookup miss; a hit is never stale.
	var resultKey string
	if rc := svc.resultCache; rc != nil {
		if key, ok := plan.TreeVersionKey(req.Tree, svc.cat); ok && plan.PureTree(req.Tree, svc.cat) {
			if res, hit := rc.Lookup(key); hit {
				q.advance(StateRunning, wait, func() { q.st.ResultFromCache = true })
				err = q.replay(ctx, res)
				return
			}
			resultKey, q.keepLimit = key, rc.MaxEntry()
			if q.enc == nil {
				q.enc = wire.NewResultEncoder(true)
			}
		}
	}

	// Admit: the scheduler bounds global and per-tenant concurrency and
	// queueing, dealing slots by deficit round robin and shedding (typed,
	// retryable) rather than queueing past a deadline's usefulness; a
	// cancelled query leaves the queue at once.
	release, wait, err := svc.adm.acquire(ctx, q.st.Tenant)
	if err != nil {
		return
	}
	defer release()
	// The request's budget overrides the service default; < 0 disables it.
	budget := cmp.Or(req.MemBudget, svc.cfg.MemBudget)
	if req.MemBudget < 0 {
		budget = 0
	}
	tracker := exec.NewMemTracker(budget)
	tracker.SetHardLimit(svc.cfg.HardMemLimit)
	tracker.SetTempDir(svc.cfg.TempDir)
	tracker.BindSpillNamespace(q.id)
	scanStats := &exec.ScanStatsRecorder{}
	q.advance(StatePlanning, wait, func() { q.tracker, q.scanStats = tracker, scanStats })

	// Plan, reusing a plan where one is kept: the prepared statement's own
	// slot (which works with the global cache off), then the plan cache. Both
	// are keyed on the version-stamped tree plus the planning configuration,
	// so a write re-plans. A TreePlan is read-only and NewOperator builds
	// fresh operators, so sharing one across queries is safe.
	planner := plan.NewPlanner(req.Link)
	planner.Config = svc.cfg.Planner
	planner.Config.StatsCache = svc.cache
	planner.Config.LinkKey = req.LinkKey
	planner.Config.MemBudget = budget
	var planKey string
	if req.stmtPlans != nil || svc.planCache != nil {
		planKey, _ = plan.PlanCacheKey(req.Tree, svc.cat, planner.Config)
	}
	tp, reused := req.stmtPlans.Lookup(planKey)
	if !reused {
		tp, reused = svc.planCache.Lookup(planKey)
	}
	if !reused {
		if tp, err = planner.PlanTree(ctx, req.Tree, svc.cat); err != nil {
			return
		}
		req.stmtPlans.Store(planKey, tp)
		svc.planCache.Store(planKey, tp)
	}
	q.advance(StateRunning, wait, func() {
		q.st.PlanFromCache = reused
		for _, ap := range tp.Applies {
			q.st.Strategies = append(q.st.Strategies, ap.Decision.Strategy.String())
			q.st.SessionsPlanned = append(q.st.SessionsPlanned, ap.Decision.Sessions)
			q.st.StatsFromCache = q.st.StatsFromCache || ap.Decision.StatsFromCache
		}
	})

	// Execute and emit.
	op, err := tp.NewOperator()
	if err != nil {
		return
	}
	ectx := exec.WithScanStats(exec.WithMemTracker(ctx, tracker), scanStats)
	if svc.scanShare != nil {
		ectx = exec.WithScanShare(ectx, svc.scanShare)
	}
	if err = q.drive(ectx, op); err != nil || q.keepLimit == 0 {
		return
	}
	// Store the answer only if the version-stamped key still matches: a
	// write that landed while the query ran may or may not be reflected in
	// what the operators read.
	if key, ok := plan.TreeVersionKey(req.Tree, svc.cat); ok && key == resultKey {
		svc.resultCache.Store(resultKey, &cachedResult{frames: q.keep, stream: q.enc.Stream(), rows: q.st.Rows, bytes: q.keepBytes})
	}
}

// cachedResult is one stored answer of the result cache, a plan.Cache
// bounded to Config.ResultCacheBytes of frames: a deterministic query whose
// UDFs are all catalog-declared pure can serve its entire result from memory
// when an identical query ran before over unchanged data. Keys come from
// plan.TreeVersionKey, so any write or catalog mutation invalidates
// implicitly: the stale entry simply stops being found and ages out of the
// LRU.
//
// What is stored is the answer as it left the server: the encoded frames of
// its result stream, minus the query ID each payload starts with. A stream
// starts with empty dictionaries, so the sequence is self-contained, and a
// hit on the wire path is a write of the stored bytes under the new query's
// ID — nothing is encoded. Callers that want tuples decode the frames.
//
// Every stored result is charged the exact length of its frames; a result
// larger than the cache's MaxEntry is not cached at all. An entry is
// immutable once stored and shared by every query it serves.
type cachedResult struct {
	// frames is the result stream, in order.
	frames []wire.ResultFrame
	// stream tells which encoder produced frames: the column-vector one,
	// or the plain one (the query that filled the entry came from a peer
	// without wire.CapResultVectors).
	stream bool
	// rows is the answer's row count, what the stream's End frame reports.
	rows int64
	// bytes is the summed length of the frame bodies: the entry's charge.
	bytes int64
}

// replay answers the query from a stored result: a frame sink of the
// encoding it was stored in gets the stored bytes as they are, every other
// sink gets them decoded, through emit, as a fresh answer would.
func (q *Query) replay(ctx context.Context, res *cachedResult) error {
	if q.frames != nil && q.tuples == nil && q.enc.Stream() == res.stream {
		q.mu.Lock()
		q.st.Rows = res.rows
		q.mu.Unlock()
		q.prog.Tick()
		return q.write(res.frames)
	}
	var dec wire.ResultDecoder
	for _, f := range res.frames {
		if err := ctx.Err(); err != nil {
			return err
		}
		rows, err := dec.DecodeFrame(f)
		if err != nil {
			return fmt.Errorf("service: cached result: %w", err)
		}
		q.prog.Tick()
		if err := q.emit(rows); err != nil {
			return err
		}
	}
	return nil
}

// emit hands the answer's next rows to the sink: encoded once for the frame
// sink and the result cache's tee, as tuples to everyone else.
func (q *Query) emit(rows []types.Tuple) error {
	q.mu.Lock()
	q.st.Rows += int64(len(rows))
	q.mu.Unlock()
	if q.frames != nil || q.keepLimit > 0 {
		buf := wire.GetBuffer()
		defer wire.PutBuffer(buf)
		f, err := q.enc.AppendFrame(*buf, rows)
		if err != nil {
			return err
		}
		*buf = f.Body
		// The tee: a copy while the answer is still a candidate for the cache.
		if q.keepLimit > 0 {
			if q.keepBytes += int64(len(f.Body)); q.keepBytes <= q.keepLimit {
				q.keep = append(q.keep, wire.ResultFrame{Type: f.Type, Body: bytes.Clone(f.Body)})
			} else {
				q.keep, q.keepLimit = nil, 0 // more than the cache would store
			}
		}
		if q.frames != nil {
			if err := q.write([]wire.ResultFrame{f}); err != nil {
				return err
			}
		}
	}
	switch {
	case q.tuples != nil:
		if err := q.tuples(rows); err != nil {
			return fmt.Errorf("service: result sink: %w", err)
		}
	case q.frames == nil:
		q.rows = append(q.rows, rows...)
	}
	return nil
}

func (q *Query) write(frames []wire.ResultFrame) error {
	if err := q.frames.Write(frames); err != nil {
		return fmt.Errorf("service: result sink: %w", err)
	}
	return nil
}

// drive executes the operator tree, emitting its batches. The operator is
// closed exactly once on every path (including panics unwinding through
// here), and its fault-tolerance counters are recorded after the close so
// QueryStats reports redials, failovers and pool degradation.
func (q *Query) drive(ctx context.Context, op exec.Operator) (err error) {
	defer func() {
		if cerr := op.Close(); err == nil {
			err = cerr
		}
		faults := exec.FaultStatsOf(op)
		q.mu.Lock()
		q.st.Faults = faults
		q.mu.Unlock()
	}()
	if err := op.Open(ctx); err != nil {
		return err
	}
	batch := &types.Batch{Max: exec.DefaultBatchSize}
	for {
		n, err := op.NextBatch(batch)
		if err != nil || n == 0 {
			return err
		}
		if err := q.emit(batch.Tuples()); err != nil {
			return err
		}
	}
}

// finish records the terminal state and releases the handle's bookkeeping.
func (q *Query) finish(ctx context.Context, err error, wait time.Duration) {
	// A context that ended takes over the error classification: whatever
	// low-level failure the teardown surfaced (a slammed connection deadline,
	// a torn-down session), the query was cancelled, timed out or stall-killed,
	// and it reports that, uniformly, as the cancellation cause — which
	// preserves the reason (ErrStalled from the watchdog, DeadlineExceeded
	// from a timeout, Canceled from a plain cancel). A query that completed
	// cleanly before the context ended keeps its success.
	if ctx.Err() != nil && err != nil {
		err = context.Cause(ctx)
	}
	var reject *wire.RejectError
	state := StateFailed
	switch {
	case err == nil:
		state = StateDone
	case errors.As(err, &reject):
		state = StateShed
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		state = StateCanceled
	}
	q.advance(state, wait, func() {
		q.err = err
		q.st.Stalled = errors.Is(err, ErrStalled)
	})
	// The handle outlives the query in Service.queries; the stream's
	// dictionaries and any frames not handed to the cache must not.
	q.enc, q.keep = nil, nil
	// Whatever retained spill runs the query's namespace still holds (a
	// failed query's half-written partitions) go with it.
	q.tracker.CleanupSpill()
	q.cancelWith(nil) // release the context's resources
	// Retire before signalling Done, so a waiter that then lists Queries sees
	// the retention bound already applied.
	q.svc.retire(q)
	close(q.done)
}

// retire prunes old finished queries beyond the configured retention.
func (s *Service) retire(q *Query) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished = append(s.finished, q.id)
	for len(s.finished) > DefaultKeepFinished {
		delete(s.queries, s.finished[0])
		s.finished = s.finished[1:]
	}
}
