package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"csq/internal/exec"
	"csq/internal/lang"
	"csq/internal/logical"
	"csq/internal/plan"
	"csq/internal/service"
	"csq/internal/storage/colstore"
	"csq/internal/types"
	"csq/internal/wire"
)

// span is one timed interval of the traced run. Spans of one operation share
// its index as Trace; Parent is the ID of the span that caused this one (0 for
// a root).
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced run began
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory; they are written out once,
// at the end.
type tracer struct {
	origin time.Time
	spans  []span
}

// add records a finished span and returns its ID.
func (t *tracer) add(trace, parent int, name string, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{trace, id, parent, name, start.Sub(t.origin).Nanoseconds(), end.Sub(t.origin).Nanoseconds()})
	return id
}

// timed runs f as a span.
func (t *tracer) timed(trace, parent int, name string, f func() error) (int, time.Duration, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	return t.add(trace, parent, name, start, end), end.Sub(start), err
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// covered is how much of [from, to] the intervals cover, overlaps counted
// once: what a parent span's children account for.
func covered(intervals []busyInterval, from, to time.Time) time.Duration {
	sort.Slice(intervals, func(i, j int) bool { return intervals[i].start.Before(intervals[j].start) })
	var total time.Duration
	edge := from
	for _, iv := range intervals {
		s, e := iv.start, iv.end
		if s.Before(edge) {
			s = edge
		}
		if e.After(to) {
			e = to
		}
		if e.After(s) {
			total += e.Sub(s)
			edge = e
		}
	}
	return total
}

// processCounters is what the process has used so far.
type processCounters struct {
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint32
	maxRSSKB   int64
}

func readProcess() processCounters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return processCounters{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: m.TotalAlloc,
		gcCycles:   m.NumGC,
		maxRSSKB:   ru.Maxrss,
	}
}

// setTracing switches the UDF timers and the links' busy histories.
func (e *env) setTracing(on bool) {
	e.tracing.Store(on)
	for _, q := range e.reqs {
		if q.link != nil {
			q.link.down.setRecording(on)
			q.link.up.setRecording(on)
		}
	}
	e.udfMu.Lock()
	e.udfSpans = nil
	e.udfMu.Unlock()
}

// stages holds one traced operation's measurements: per-layer metrics by
// name (times in ms), and the two TCP latencies they are compared with.
type stages map[string]float64

// Keys of stages that are not metrics themselves.
const (
	requestUntraced = "request.untraced"
	requestTraced   = "request.traced"
)

// tracedMetrics are the per-layer metrics that are medians over the traced
// run's operations.
var tracedMetrics = []string{
	"lang.compile_ms", "logical.rewrite_ms", "plan.plan_ms", "plan.new_operator_ms",
	"exec.collect_ms", "exec.self_ms", "exec.rows_out",
	"storage.colscan_ms", "storage.decode_ms", "storage.bytes_read_per_query",
	"storage.segments_scanned_per_query", "storage.segments_pruned_per_query",
	"wire.result_encode_ms", "wire.result_decode_ms", "wire.result_bytes_per_query",
	"client.udf_ms", "link.down_busy_ms", "link.up_busy_ms",
	"service.execute_ms", "service.staged_sum_ms",
}

// traceReport measures the per-layer metrics: counters around an untraced
// timed run of half the usual length, then the traced run, in which every
// operation is issued over TCP untraced and traced, then driven in-process
// stage by stage through the calls service.Service makes, then through
// Service.Execute.
func (e *env) traceReport(ctx context.Context) (*report, error) {
	q := e.reqs[0]
	m := newMetricSet(perLayer)
	set := m.set

	// ---- counters around an untraced timed run ----
	cachesBefore := e.svc.Stats().Caches
	netBefore := e.traffic()
	insertsBefore, insertNsBefore := e.inserts, e.insertNs
	runtime.GC()
	procBefore := readProcess()
	res := e.run(ctx, e.timedSpec(e.opts.seconds/2))
	proc := readProcess()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	net := e.traffic().sub(netBefore)
	caches := e.svc.Stats().Caches
	ops := float64(max(len(res.samples), 1))
	attempted, failed := res.attempted, res.failed

	set("process.cpu_ms_per_query", ms(proc.cpu-procBefore.cpu)/ops)
	set("process.alloc_kb_per_query", float64(proc.allocBytes-procBefore.allocBytes)/1024/ops)
	set("process.gc_cycles_per_query", float64(proc.gcCycles-procBefore.gcCycles)/ops)
	set("link.down_bytes_per_query", float64(net.link.downBytes)/ops)
	set("link.up_bytes_per_query", float64(net.link.upBytes)/ops)
	set("link.sessions_per_query", float64(net.link.sessions)/ops)
	set("client.udf_calls_per_query", float64(net.udfCalls)/ops)
	rate := func(hits, misses int64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	set("service.result_cache_hit_rate", rate(caches.ResultHits-cachesBefore.ResultHits, caches.ResultMisses-cachesBefore.ResultMisses))
	set("service.plan_cache_hit_rate", rate(caches.PlanHits-cachesBefore.PlanHits, caches.PlanMisses-cachesBefore.PlanMisses))
	set("service.stats_cache_hit_rate", rate(caches.StatsHits-cachesBefore.StatsHits, caches.StatsMisses-cachesBefore.StatsMisses))
	set("service.latency_p99_ms", quantile(res.latencies(), 0.99))
	spills := e.queryStatsMetrics(set)

	// ---- the traced run ----
	tr := &tracer{origin: time.Now()}
	probeMs := 0.0
	if q.link != nil {
		_, d, err := tr.timed(-1, 0, "plan.probe", func() error {
			_, err := exec.ProbeAsymmetry(ctx, &exec.DialLink{Addr: q.link.Addr()}, 0)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		probeMs = ms(d)
	}
	set("plan.probe_ms", probeMs)

	e.insertEvery = 1
	statsCache := plan.NewStatsCache()
	n := e.w.traced
	if e.opts.smoke {
		n = 1
	}
	var all []stages
	for k := 0; k < n && ctx.Err() == nil; k++ {
		i := e.issued[0]
		e.issued[0]++
		st, err := e.traceOne(ctx, tr, statsCache, k, i)
		attempted++
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "bench: %s: traced operation %d failed: %v\n", e.w.name, i, err)
			continue
		}
		all = append(all, st)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.opts.traceOut != "" {
		if err := tr.write(e.opts.traceOut); err != nil {
			return nil, err
		}
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("every traced operation failed")
	}
	med := func(name string) float64 {
		vs := make([]float64, len(all))
		for i, st := range all {
			vs[i] = st[name]
		}
		return median(vs)
	}
	for _, name := range tracedMetrics {
		set(name, med(name))
	}
	set("exec.spill_events", spills+med("exec.spill_events"))
	insertMs := 0.0
	if d := e.inserts - insertsBefore; d > 0 {
		insertMs = float64(e.insertNs-insertNsBefore) / 1e6 / float64(d)
	}
	set("storage.insert_ms", insertMs)
	set("service.unattributed_ms", med(requestTraced)-med("service.staged_sum_ms"))
	set("trace.overhead_share", (med(requestTraced)-med(requestUntraced))/med(requestUntraced))
	set("process.peak_rss_mb", float64(readProcess().maxRSSKB)/1024)

	values, err := m.done()
	if err != nil {
		return nil, err
	}
	return &report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: values, answers: res.answers()}, nil
}

// queryStatsMetrics reports what the service recorded about the most recent
// queries it finished (it keeps service.DefaultKeepFinished of them): chosen
// strategies, planned sessions, admission wait, tracked memory. It returns
// their spill events.
func (e *env) queryStatsMetrics(set func(string, float64)) (spillEvents float64) {
	strategies := map[string]float64{}
	applies := 0.0
	var sessions, waits []float64
	var peak, spills int64
	for _, qs := range e.svc.Queries() {
		if qs.State != service.StateDone {
			continue
		}
		for _, s := range qs.Strategies {
			applies++
			strategies[s]++
		}
		for _, n := range qs.SessionsPlanned {
			sessions = append(sessions, float64(n))
		}
		if !qs.ResultFromCache {
			waits = append(waits, ms(qs.AdmissionWait))
		}
		peak = max(peak, qs.MemPeakBytes)
		spills += qs.SpillEvents
	}
	share := func(s plan.Strategy) float64 {
		if applies == 0 {
			return 0
		}
		return strategies[s.String()] / applies
	}
	set("plan.semijoin_share", share(plan.StrategySemiJoin))
	set("plan.clientjoin_share", share(plan.StrategyClientJoin))
	set("plan.naive_share", share(plan.StrategyNaive))
	set("plan.sessions_planned", median(sessions))
	set("service.admission_wait_ms", median(waits))
	set("service.mem_peak_kb", float64(peak)/1024)
	return float64(spills)
}

// traceOne measures operation i every way the traced run does.
func (e *env) traceOne(ctx context.Context, tr *tracer, statsCache *plan.StatsCache, trace, i int) (stages, error) {
	st := stages{}
	if err := e.traceRequests(tr, trace, i, st); err != nil {
		return nil, err
	}
	tp, err := e.traceStaged(ctx, tr, statsCache, trace, i, st)
	if err != nil {
		return nil, fmt.Errorf("staged run: %w", err)
	}
	if err := e.traceExecute(ctx, tr, trace, i, st); err != nil {
		return nil, fmt.Errorf("Service.Execute: %w", err)
	}
	if err := e.traceColscan(ctx, tr, trace, tp, st); err != nil {
		return nil, err
	}
	// Self time: the collect span minus what its children — link transfers
	// and UDF bodies — cover, minus the storage scan it pulls from.
	st["exec.self_ms"] = st["exec.collect_ms"] - st["exec.covered_ms"] - st["storage.colscan_ms"]
	return st, nil
}

// traceRequests issues the operation over TCP with tracing off and with it
// on; the difference is what tracing costs. Which goes first alternates, so
// that neither always runs on the caches the other warmed.
func (e *env) traceRequests(tr *tracer, trace, i int, st stages) error {
	q := e.reqs[0]
	for pass := 0; pass < 2; pass++ {
		tracing := pass == trace%2
		e.setTracing(tracing)
		linkBefore := e.traffic().link
		s, err := e.issue(0, q, i)
		busy := e.traffic().link.sub(linkBefore)
		e.setTracing(false)
		if err != nil {
			return err
		}
		if !tracing {
			st[requestUntraced] = ms(s.latency())
			continue
		}
		st[requestTraced] = ms(s.latency())
		st["link.down_busy_ms"], st["link.up_busy_ms"] = ms(busy.downBusy), ms(busy.upBusy)
		tr.add(trace, 0, "request", s.start, s.end)
	}
	return nil
}

// clientLink is the link the server would dial for requester 0's sessions.
func (e *env) clientLink() exec.ClientLink {
	if l := e.reqs[0].link; l != nil {
		return &exec.DialLink{Addr: l.Addr()}
	}
	return nil
}

// traceStaged drives the operation in-process through the public calls
// service.Service makes between receiving a query text and handing back
// decoded rows, one span per call.
func (e *env) traceStaged(ctx context.Context, tr *tracer, statsCache *plan.StatsCache, trace, i int, st stages) (*plan.TreePlan, error) {
	q := e.reqs[0]
	op, err := e.next(0, i)
	if err != nil {
		return nil, err
	}
	cfg := e.w.serviceConfig(e.dir)
	stagedStart := time.Now()
	root := tr.add(trace, 0, "staged", stagedStart, stagedStart) // End is set below

	var tree logical.Node
	_, d, err := tr.timed(trace, root, "lang.compile", func() (err error) {
		tree, err = lang.Compile(e.cat, op.text)
		return err
	})
	if err != nil {
		return nil, err
	}
	st["lang.compile_ms"] = ms(d)

	planner := plan.NewPlanner(e.clientLink())
	planner.Config = cfg.Planner
	planner.Config.StatsCache = statsCache
	planner.Config.LinkKey = q.clientAddr()
	planner.Config.MemBudget = cfg.MemBudget

	var tp *plan.TreePlan
	planID, d, err := tr.timed(trace, root, "plan.tree", func() (err error) {
		tp, err = planner.PlanTree(ctx, tree, e.cat)
		return err
	})
	if err != nil {
		return nil, err
	}
	planTree := ms(d)
	// PlanTree rewrites first; the rewrite alone is timed apart and recorded
	// as a child span at PlanTree's start.
	rwStart := time.Now()
	if _, err := logical.Rewrite(tree); err != nil {
		return nil, err
	}
	rw := time.Since(rwStart)
	st["logical.rewrite_ms"] = ms(rw)
	st["plan.plan_ms"] = planTree - ms(rw)
	planStart := tr.origin.Add(time.Duration(tr.spans[planID-1].Start))
	tr.add(trace, planID, "logical.rewrite", planStart, planStart.Add(rw))

	var opTree exec.Operator
	_, d, err = tr.timed(trace, root, "plan.new_operator", func() (err error) {
		opTree, err = tp.NewOperator()
		return err
	})
	if err != nil {
		return nil, err
	}
	st["plan.new_operator_ms"] = ms(d)

	tracker := exec.NewMemTracker(cfg.MemBudget)
	tracker.SetTempDir(cfg.TempDir)
	scanStats := &exec.ScanStatsRecorder{}
	ectx := exec.WithScanStats(exec.WithMemTracker(ctx, tracker), scanStats)
	if cfg.SharedScans {
		ectx = exec.WithScanShare(ectx, exec.NewScanShare())
	}
	e.setTracing(true)
	udfBefore := e.udfNs.Load()
	collectStart := time.Now()
	rows, err := exec.Collect(ectx, opTree)
	collectEnd := time.Now()
	st["client.udf_ms"] = float64(e.udfNs.Load()-udfBefore) / 1e6
	collectID := tr.add(trace, root, "exec.collect", collectStart, collectEnd)
	// Link transfers and UDF bodies are the collect span's children.
	var children []busyInterval
	child := func(name string, ivs []busyInterval) {
		for _, iv := range ivs {
			tr.add(trace, collectID, name, iv.start, iv.end)
		}
		children = append(children, ivs...)
	}
	if q.link != nil {
		child("link.down", q.link.down.takeHistory())
		child("link.up", q.link.up.takeHistory())
	}
	e.udfMu.Lock()
	child("client.udf", e.udfSpans)
	e.udfMu.Unlock()
	e.setTracing(false)
	tracker.CleanupSpill()
	if err != nil {
		return nil, err
	}
	st["exec.collect_ms"] = ms(collectEnd.Sub(collectStart))
	st["exec.covered_ms"] = ms(covered(children, collectStart, collectEnd))
	st["exec.rows_out"] = float64(len(rows))
	st["exec.spill_events"] = float64(tracker.SpillEvents())
	ss := scanStats.Stats()
	st["storage.decode_ms"] = float64(ss.DecodeNs) / 1e6
	st["storage.bytes_read_per_query"] = float64(ss.BytesRead)
	st["storage.segments_scanned_per_query"] = float64(ss.SegmentsScanned)
	st["storage.segments_pruned_per_query"] = float64(ss.SegmentsPruned)
	if got := summarize(rows); got != op.want {
		return nil, &mismatchError{got: got, want: op.want}
	}

	var frames [][]byte
	_, d, err = tr.timed(trace, root, "wire.encode", func() (err error) {
		frames, err = encodeResult(rows)
		return err
	})
	if err != nil {
		return nil, err
	}
	st["wire.result_encode_ms"] = ms(d)
	for _, f := range frames {
		st["wire.result_bytes_per_query"] += float64(len(f) + frameHeader)
	}
	_, d, err = tr.timed(trace, root, "wire.decode", func() error { return decodeResult(frames) })
	if err != nil {
		return nil, err
	}
	st["wire.result_decode_ms"] = ms(d)
	tr.spans[root-1].End = time.Since(tr.origin).Nanoseconds()
	st["service.staged_sum_ms"] = st["lang.compile_ms"] + planTree + st["plan.new_operator_ms"] +
		st["exec.collect_ms"] + st["wire.result_encode_ms"] + st["wire.result_decode_ms"]
	return tp, nil
}

// traceExecute runs the operation through Service.Execute, compiled from text
// first and its answer framed and decoded as the server and the requester do
// it, so that it covers what the staged spans cover.
func (e *env) traceExecute(ctx context.Context, tr *tracer, trace, i int, st stages) error {
	op, err := e.next(0, i)
	if err != nil {
		return err
	}
	_, d, err := tr.timed(trace, 0, "service.execute", func() error {
		tree, err := lang.Compile(e.cat, op.text)
		if err != nil {
			return err
		}
		var frames [][]byte
		var got answer
		_, err = e.svc.Execute(ctx, service.Request{
			Tree: tree, Link: e.clientLink(), LinkKey: e.reqs[0].clientAddr(),
			OnBatch: func(batch []types.Tuple) error {
				for _, r := range batch {
					got.add(r)
				}
				f, err := encodeResult(batch)
				frames = append(frames, f...)
				return err
			},
		})
		if err != nil {
			return err
		}
		if got != op.want {
			return &mismatchError{got: got, want: op.want}
		}
		return decodeResult(frames)
	})
	st["service.execute_ms"] = ms(d)
	return err
}

// traceColscan runs the plan's columnar scans on their own, with the plan's
// columns and prunable predicates: what storage alone costs the query.
func (e *env) traceColscan(ctx context.Context, tr *tracer, trace int, tp *plan.TreePlan, st stages) error {
	var scans []*logical.Scan
	logical.Walk(tp.Root, func(n logical.Node) bool {
		if sc, ok := n.(*logical.Scan); ok {
			scans = append(scans, sc)
		}
		return true
	})
	for _, sc := range scans {
		ct, ok := sc.Table.Data.(*colstore.Table)
		if !ok {
			continue
		}
		_, d, err := tr.timed(trace, 0, "storage.colscan", func() error {
			_, err := exec.Run(ctx, exec.NewColumnarScan(ct, sc.Alias, sc.Required, sc.Prunable))
			return err
		})
		if err != nil {
			return err
		}
		st["storage.colscan_ms"] += ms(d)
	}
	return nil
}

// frameHeader is the length-and-type prefix wire.Conn puts before a payload.
const frameHeader = 5

// encodeResult frames rows the way the server's result stream does.
func encodeResult(rows []types.Tuple) ([][]byte, error) {
	var frames [][]byte
	for off := 0; off < len(rows); off += exec.DefaultBatchSize {
		end := min(off+exec.DefaultBatchSize, len(rows))
		f, err := wire.AppendTupleBatch(nil, &wire.TupleBatch{SessionID: 1, Tuples: rows[off:end]})
		if err != nil {
			return nil, err
		}
		frames = append(frames, f)
	}
	return frames, nil
}

// decodeResult decodes frames the way the requester's read loop does.
func decodeResult(frames [][]byte) error {
	var batch wire.TupleBatch
	for _, f := range frames {
		if err := wire.DecodeTupleBatchInto(&batch, f); err != nil {
			return err
		}
	}
	return nil
}
