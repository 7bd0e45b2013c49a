// Package service turns the single-query planning and execution stack into a
// governed multi-query service: it accepts concurrent queries (each a logical
// tree plus a client link), runs the plan→lower→execute pipeline for each one
// under a per-query context with deadline and cancellation, enforces a global
// admission limit, governs memory through a per-query exec.MemTracker (soft
// budget → Grace spilling in HashJoin/HashAggregate, hard limit → query
// failure), shares one cross-query plan.StatsCache so repeated queries reuse
// sampled statistics and probe-measured link observations, and exposes
// per-query lifecycle statistics.
//
// The wire front-end (Server, cmd/udfserverd) speaks the MsgQuery/MsgCancel
// framing extension on top of this.
package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
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

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StatePlanning:
		return "planning"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCanceled:
		return "canceled"
	case StateShed:
		return "shed"
	default:
		return "unknown"
	}
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

func (c Config) maxConcurrent() int {
	if c.MaxConcurrent < 1 {
		return DefaultMaxConcurrent
	}
	return c.MaxConcurrent
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

	// stmt attaches the query to a prepared statement's plan slot; set by
	// PreparedStatement.Submit.
	stmt *PreparedStatement
}

// FrameSink receives a query's result as the frames of a wire result stream
// (see wire.ResultEncoder), each without the query ID its payload starts
// with: the sink stamps its own.
type FrameSink struct {
	// Stream selects the stream-dictionary encoding. False yields plain
	// MsgResultBatch frames only: what a peer that did not negotiate
	// wire.CapResultStream must be sent.
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

	wdStop chan struct{} // nil when the watchdog is disabled
	wdDone chan struct{}
	wdOnce sync.Once

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
		adm:     newAdmission(cfg.maxConcurrent(), cfg.MaxQueued, cfg.MaxQueueWait, cfg.Tenants),
		queries: make(map[uint64]*Query),
	}
	if cfg.PlanCacheEntries > 0 {
		s.planCache = plan.NewPlanCache(cfg.PlanCacheEntries)
	}
	if cfg.ResultCacheBytes > 0 {
		s.resultCache = newResultCache(cfg.ResultCacheBytes)
	}
	if cfg.SharedScans {
		s.scanShare = exec.NewScanShare()
	}
	if cfg.StallTimeout > 0 {
		s.wdStop = make(chan struct{})
		s.wdDone = make(chan struct{})
		go s.watchdog()
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

	collect bool
	onBatch func([]types.Tuple) error
	frames  *FrameSink

	// Owned by the run goroutine. enc encodes the result for the frame sink
	// and for the result cache; it is nil when neither wants frames, and
	// dropped, with its dictionaries, when the query finishes. keep holds the
	// frames of a cacheable answer until it is stored, and is let go as soon
	// as they outgrow what the cache would take.
	enc       *wire.ResultEncoder
	keep      []wire.ResultFrame
	keepBytes int64
	keepLimit int64 // > 0 while the answer is being kept

	tenant string

	mu              sync.Mutex
	state           State
	err             error
	rows            []types.Tuple
	rowCount        int64
	submitted       time.Time
	started         time.Time
	finished        time.Time
	admissionWait   time.Duration
	stalled         bool
	tracker         *exec.MemTracker
	scanStats       *exec.ScanStatsRecorder
	strategies      []string
	sessionsPlanned []int
	faults          exec.FaultStats
	statsFromCache  bool
	planFromCache   bool
	resultFromCache bool
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
	return &Result{Rows: q.rows, RowCount: q.rowCount, Stats: q.statsLocked()}, nil
}

// Stats returns a point-in-time lifecycle snapshot.
func (q *Query) Stats() QueryStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.statsLocked()
}

func (q *Query) statsLocked() QueryStats {
	st := QueryStats{
		ID:              q.id,
		State:           q.state,
		Submitted:       q.submitted,
		Started:         q.started,
		Finished:        q.finished,
		Rows:            q.rowCount,
		AdmissionWait:   q.admissionWait,
		Stalled:         q.stalled,
		Strategies:      append([]string(nil), q.strategies...),
		SessionsPlanned: append([]int(nil), q.sessionsPlanned...),
		Faults:          q.faults,
		StatsFromCache:  q.statsFromCache,
		Tenant:          q.tenant,
		PlanFromCache:   q.planFromCache,
		ResultFromCache: q.resultFromCache,
	}
	if q.err != nil {
		st.Err = q.err.Error()
	}
	if q.tracker != nil {
		st.MemPeakBytes = q.tracker.Peak()
		st.SpillEvents = q.tracker.SpillEvents()
		st.SpilledBytes = q.tracker.SpilledBytes()
	}
	st.Scan = q.scanStats.Stats()
	return st
}

// Submit registers a query and starts it asynchronously; the returned handle
// cancels, waits and reports stats. The context governs the whole query: its
// cancellation or deadline terminates planning and execution.
func (s *Service) Submit(ctx context.Context, req Request) (*Query, error) {
	if req.Tree == nil {
		return nil, fmt.Errorf("service: query has no logical tree")
	}
	timeout := req.Timeout
	if timeout == 0 {
		timeout = s.cfg.DefaultTimeout
	}
	var timerCancel context.CancelFunc
	if timeout > 0 {
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
		collect:     req.OnBatch == nil && req.Frames == nil,
		onBatch:     req.OnBatch,
		frames:      req.Frames,
		state:       StateQueued,
		submitted:   time.Now(),
	}
	q.tenant = req.Tenant
	if q.tenant == "" {
		q.tenant = DefaultTenant
	}
	// The closed/draining check and the registration share one critical
	// section, so a Submit racing Close or Shutdown either registers before
	// their snapshot (and is cancelled or awaited by it) or observes the flag
	// and is refused — a query can never start against a service that has
	// finished closing or begun draining.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		q.cancelWith(nil)
		return nil, fmt.Errorf("service: closed")
	}
	if s.draining {
		s.mu.Unlock()
		q.cancelWith(nil)
		return nil, &wire.RejectError{Reason: wire.RejectDraining}
	}
	s.queries[q.id] = q
	s.mu.Unlock()
	go q.run(qctx, req)
	return q, nil
}

// Execute submits the query and waits for its result.
func (s *Service) Execute(ctx context.Context, req Request) (*Result, error) {
	q, err := s.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	return q.Wait()
}

// Queries returns lifecycle snapshots of every tracked query, oldest first.
func (s *Service) Queries() []QueryStats {
	s.mu.Lock()
	qs := make([]*Query, 0, len(s.queries))
	for _, q := range s.queries {
		qs = append(qs, q)
	}
	s.mu.Unlock()
	sort.Slice(qs, func(i, j int) bool { return qs[i].id < qs[j].id })
	out := make([]QueryStats, len(qs))
	for i, q := range qs {
		out[i] = q.Stats()
	}
	return out
}

// Close cancels every active query and refuses new submissions. It is the
// abrupt counterpart of Shutdown: in-flight queries are cancelled, not given
// time to finish.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	s.draining = true
	active := make([]*Query, 0, len(s.queries))
	for _, q := range s.queries {
		active = append(active, q)
	}
	s.mu.Unlock()
	s.adm.drain()
	for _, q := range active {
		q.cancelWith(nil)
		<-q.done
	}
	s.stopWatchdog()
}

// Shutdown drains the service gracefully: new submissions and queued queries
// are shed as draining (typed, retryable elsewhere), while queries already
// holding a slot run to completion. If ctx expires first the stragglers are
// cancelled. The watchdog is stopped; the service refuses all work afterwards.
// It returns ctx's error when the drain timed out, nil on a clean drain.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.draining = true
	active := make([]*Query, 0, len(s.queries))
	for _, q := range s.queries {
		active = append(active, q)
	}
	s.mu.Unlock()
	s.adm.drain()
	var err error
	if !alreadyClosed {
		err = awaitOrCancel(ctx, active)
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.stopWatchdog()
	return err
}

// awaitOrCancel waits for every query to finish; when ctx expires it cancels
// them all and still waits, so no query goroutine outlives the drain.
func awaitOrCancel(ctx context.Context, qs []*Query) error {
	var err error
	for _, q := range qs {
		if err == nil {
			select {
			case <-q.done:
				continue
			case <-ctx.Done():
				err = ctx.Err()
				for _, r := range qs {
					r.cancelWith(nil)
				}
			}
		}
		<-q.done
	}
	return err
}

// stopWatchdog stops the watchdog goroutine and waits for it. Idempotent,
// no-op when the watchdog was never started.
func (s *Service) stopWatchdog() {
	if s.wdStop == nil {
		return
	}
	s.wdOnce.Do(func() { close(s.wdStop) })
	<-s.wdDone
}

// watchdog periodically sweeps active queries for frozen progress heartbeats.
func (s *Service) watchdog() {
	defer close(s.wdDone)
	// A quarter of the stall window: a frozen query is caught within 1.25
	// windows of its last heartbeat.
	interval := s.cfg.StallTimeout / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.wdStop:
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
	s.mu.Lock()
	active := make([]*Query, 0, len(s.queries))
	for _, q := range s.queries {
		active = append(active, q)
	}
	s.mu.Unlock()
	for _, q := range active {
		q.mu.Lock()
		state := q.state
		q.mu.Unlock()
		if state != StatePlanning && state != StateRunning {
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
	s.mu.Lock()
	active := 0
	for _, q := range s.queries {
		q.mu.Lock()
		if !q.state.Terminal() {
			active++
		}
		q.mu.Unlock()
	}
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

// budgetFor resolves the request's memory budget against the service default.
func (s *Service) budgetFor(req Request) (budget, hard int64) {
	budget, hard = s.cfg.MemBudget, s.cfg.HardMemLimit
	if req.MemBudget > 0 {
		budget = req.MemBudget
	} else if req.MemBudget < 0 {
		budget = 0
	}
	return budget, hard
}

// run is the query's lifecycle: admission → plan → lower → execute.
func (q *Query) run(ctx context.Context, req Request) {
	var err error
	defer func() {
		// A panicking operator (or planner) fails this query, not the
		// process: the service keeps serving its other queries.
		if rec := recover(); rec != nil {
			err = fmt.Errorf("service: query panicked: %v", rec)
		}
		q.finish(ctx, err)
	}()

	// The heartbeat counter rides the context into every operator's Open, so
	// the watchdog sees progress from whatever the query ends up running.
	ctx = exec.WithProgress(ctx, q.prog)

	// Result-cache fast path: a deterministic query over unchanged data is
	// answered from memory before it ever competes for an admission slot —
	// a hit consumes no scheduler capacity at all. The key embeds every
	// scanned table's data version and the catalog version, so a concurrent
	// write simply makes the lookup miss; a hit can never be stale.
	var resultKey string
	if rc := q.svc.resultCache; rc != nil {
		if key, ok := plan.TreeVersionKey(req.Tree, q.svc.cat); ok && plan.PureTree(req.Tree, q.svc.cat) {
			if res, hit := rc.Lookup(key); hit {
				err = q.serveCached(ctx, res)
				return
			}
			resultKey = key
			q.keepLimit = rc.MaxEntry()
		}
	}
	// The answer is encoded once, for whoever wants frames: for the sink in
	// its peer's encoding and for the cache in the same one — or, when the
	// query hands out tuples, in the compact one.
	if q.frames != nil || q.keepLimit > 0 {
		q.enc = wire.NewResultEncoder(q.frames == nil || q.frames.Stream)
	}

	// Admission: the scheduler bounds global and per-tenant concurrency and
	// queueing, dealing slots to tenants by deficit round robin and shedding
	// queries (typed, retryable) rather than queueing them past their
	// deadline's usefulness; a cancelled query leaves the queue immediately.
	release, wait, aerr := q.svc.adm.acquire(ctx, q.tenant)
	q.mu.Lock()
	q.admissionWait = wait // also when shed or cancelled in the queue
	q.mu.Unlock()
	if aerr != nil {
		err = aerr
		return
	}
	defer release()

	q.mu.Lock()
	q.started = time.Now()
	q.state = StatePlanning
	q.mu.Unlock()

	budget, hard := q.svc.budgetFor(req)
	tracker := exec.NewMemTracker(budget)
	tracker.SetHardLimit(hard)
	tracker.SetTempDir(q.svc.cfg.TempDir)
	tracker.BindSpillNamespace(q.id)
	scanStats := &exec.ScanStatsRecorder{}
	q.mu.Lock()
	q.tracker = tracker
	q.scanStats = scanStats
	q.mu.Unlock()

	planner := plan.NewPlanner(req.Link)
	planner.Config = q.svc.cfg.Planner
	planner.Config.StatsCache = q.svc.cache
	planner.Config.LinkKey = req.LinkKey
	planner.Config.MemBudget = budget

	// Plan reuse, in preference order: the prepared statement's own one-entry
	// cache (works even with the global cache off), then the cross-query plan
	// cache. Both are keyed on the version-stamped tree identity plus the
	// planning configuration, so a write re-plans instead of reusing
	// decisions made over different data. A reused TreePlan is read-only and
	// NewOperator builds fresh operators, so sharing across queries is safe.
	var stmtPlans *plan.Cache[*plan.TreePlan]
	if req.stmt != nil {
		stmtPlans = req.stmt.plans
	}
	var planKey string
	if stmtPlans != nil || q.svc.planCache != nil {
		planKey, _ = plan.PlanCacheKey(req.Tree, q.svc.cat, planner.Config)
	}
	tp, hit := stmtPlans.Lookup(planKey)
	if !hit {
		tp, hit = q.svc.planCache.Lookup(planKey)
	}
	if hit {
		q.mu.Lock()
		q.planFromCache = true
		q.mu.Unlock()
	} else {
		var perr error
		tp, perr = planner.PlanTree(ctx, req.Tree, q.svc.cat)
		if perr != nil {
			err = perr
			return
		}
		stmtPlans.Store(planKey, tp)
		q.svc.planCache.Store(planKey, tp)
	}
	strategies := make([]string, 0, len(tp.Applies))
	planned := make([]int, 0, len(tp.Applies))
	fromCache := false
	for _, ap := range tp.Applies {
		strategies = append(strategies, ap.Decision.Strategy.String())
		planned = append(planned, ap.Decision.Sessions)
		fromCache = fromCache || ap.Decision.StatsFromCache
	}
	q.mu.Lock()
	q.strategies = strategies
	q.sessionsPlanned = planned
	q.statsFromCache = fromCache
	q.state = StateRunning
	q.mu.Unlock()

	op, lerr := tp.NewOperator()
	if lerr != nil {
		err = lerr
		return
	}
	ectx := exec.WithScanStats(exec.WithMemTracker(ctx, tracker), scanStats)
	if q.svc.scanShare != nil {
		ectx = exec.WithScanShare(ectx, q.svc.scanShare)
	}
	err = q.drive(ectx, op)

	// Store the result only if the version-stamped key still matches: a write
	// that landed anywhere between the key computation and now may or may not
	// be reflected in what the operators read, so the answer is only known to
	// correspond to the keyed versions when nothing changed underneath it.
	if err == nil && q.keepLimit > 0 {
		if key, ok := plan.TreeVersionKey(req.Tree, q.svc.cat); ok && key == resultKey {
			q.svc.resultCache.Store(resultKey, &cachedResult{
				frames: q.keep, stream: q.enc.Stream(), rows: q.rowCount, bytes: q.keepBytes,
			})
		}
	}
}

// serveCached answers the query from a stored result. A frame sink whose
// peer speaks the encoding the answer was stored in gets the stored bytes as
// they are; anyone else gets the frames decoded, and from there on what a
// freshly computed answer gets.
func (q *Query) serveCached(ctx context.Context, res *cachedResult) error {
	q.mu.Lock()
	q.started = time.Now()
	q.state = StateRunning
	q.resultFromCache = true
	q.mu.Unlock()
	if q.frames != nil && q.onBatch == nil && q.frames.Stream == res.stream {
		q.mu.Lock()
		q.rowCount = res.rows
		q.mu.Unlock()
		q.prog.Tick()
		if err := q.frames.Write(res.frames); err != nil {
			return fmt.Errorf("service: result sink: %w", err)
		}
		return nil
	}
	if q.frames != nil {
		q.enc = wire.NewResultEncoder(q.frames.Stream)
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

// emit hands the result's next rows to everything that consumes them: the
// accumulated result, the tuple sink, and — encoded once — the frame sink and
// the frames kept for the result cache.
func (q *Query) emit(rows []types.Tuple) error {
	q.mu.Lock()
	q.rowCount += int64(len(rows))
	if q.collect {
		q.rows = append(q.rows, rows...)
	}
	q.mu.Unlock()
	if q.enc != nil {
		if err := q.emitFrame(rows); err != nil {
			return err
		}
	}
	if q.onBatch != nil {
		if err := q.onBatch(rows); err != nil {
			return fmt.Errorf("service: result sink: %w", err)
		}
	}
	return nil
}

// emitFrame encodes rows as the stream's next frame, hands it to the frame
// sink, and keeps a copy while the answer is still a candidate for the cache.
func (q *Query) emitFrame(rows []types.Tuple) error {
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	f, err := q.enc.AppendFrame(*buf, rows)
	if err != nil {
		return err
	}
	*buf = f.Body
	if q.keepLimit > 0 {
		if q.keepBytes += int64(len(f.Body)); q.keepBytes <= q.keepLimit {
			q.keep = append(q.keep, wire.ResultFrame{Type: f.Type, Body: bytes.Clone(f.Body)})
		} else {
			q.keep, q.keepLimit = nil, 0 // more than the cache would store
		}
	}
	if q.frames != nil {
		if err := q.frames.Write([]wire.ResultFrame{f}); err != nil {
			return fmt.Errorf("service: result sink: %w", err)
		}
	}
	return nil
}

// drive executes the operator tree, streaming or accumulating batches. The
// operator is closed exactly once on every path (including panics unwinding
// through here), and its fault-tolerance counters are snapshotted after the
// close so QueryStats reports redials, failovers and pool degradation.
func (q *Query) drive(ctx context.Context, op exec.Operator) error {
	closed := false
	closeOp := func() error {
		if closed {
			return nil
		}
		closed = true
		cerr := op.Close()
		faults := exec.FaultStatsOf(op)
		q.mu.Lock()
		q.faults = faults
		q.mu.Unlock()
		return cerr
	}
	defer func() { _ = closeOp() }()
	if err := op.Open(ctx); err != nil {
		return err
	}
	batch := make([]types.Tuple, exec.DefaultBatchSize)
	for {
		n, err := op.NextBatch(batch)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		if err := q.emit(batch[:n]); err != nil {
			return err
		}
	}
	return closeOp()
}

// finish records the terminal state and releases the handle's bookkeeping.
func (q *Query) finish(ctx context.Context, err error) {
	// A context that ended takes over the error classification: whatever
	// low-level failure the teardown surfaced (a slammed connection deadline,
	// a torn-down session), the query was cancelled, timed out or stall-killed,
	// and it reports that, uniformly, as the cancellation cause — which
	// preserves the reason (ErrStalled from the watchdog, DeadlineExceeded
	// from a timeout, Canceled from a plain cancel). A query that completed
	// cleanly before the context ended keeps its success.
	if cerr := ctx.Err(); cerr != nil && err != nil {
		err = context.Cause(ctx)
	}
	var reject *wire.RejectError
	q.mu.Lock()
	q.err = err
	q.finished = time.Now()
	switch {
	case err == nil:
		q.state = StateDone
	case errors.As(err, &reject):
		q.state = StateShed
	case errors.Is(err, ErrStalled):
		q.state = StateFailed
		q.stalled = true
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		q.state = StateCanceled
	default:
		q.state = StateFailed
	}
	tracker := q.tracker
	q.mu.Unlock()
	// The handle outlives the query in Service.queries; the stream's
	// dictionaries and any frames not handed to the cache must not.
	q.enc, q.keep = nil, nil
	// Whatever retained spill runs the query's namespace still holds (a
	// failed query's half-written partitions) go with it.
	tracker.CleanupSpill()
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
	keep := DefaultKeepFinished
	for len(s.finished) > keep {
		victim := s.finished[0]
		s.finished = s.finished[1:]
		delete(s.queries, victim)
	}
}
