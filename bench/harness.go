package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"csq/internal/catalog"
	"csq/internal/client"
	"csq/internal/exec"
	"csq/internal/service"
	"csq/internal/types"
	"csq/internal/wire"
)

// options is what one workload run is asked to do.
type options struct {
	workload *workload
	seed     int64
	seconds  float64 // length of the timed run; ignored by -smoke
	trace    bool    // report per-layer metrics instead of end-to-end ones
	smoke    bool    // fixed, small operation counts over small tables
	dataRoot string  // where table and spill directories are created
	traceOut string  // write the traced run's spans here ("" = nowhere)
}

// observation is the link as the planner is told it is: exactly the link the
// benchmark simulates, so no run depends on what a live probe happened to
// measure.
func (s *linkSpec) observation() *exec.LinkObservation {
	return &exec.LinkObservation{
		DownBytesPerSec: s.DownBytesPerSec,
		UpBytesPerSec:   s.UpBytesPerSec,
		Asymmetry:       s.DownBytesPerSec / s.UpBytesPerSec,
		RTT:             2 * s.Delay,
	}
}

// countingConn counts the bytes of a requester's control connection, both
// directions together.
type countingConn struct {
	net.Conn
	bytes atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// requester is one closed-loop client: a control connection to the server,
// the statements prepared on it, and the link its UDF runtime sits behind.
type requester struct {
	conn  *countingConn
	r     *service.Requester
	stmts []*service.RemoteStatement
	link  *link // nil without a client site
}

// clientAddr is what the requester names as its UDF runtime.
func (q *requester) clientAddr() string {
	if q.link == nil {
		return ""
	}
	return q.link.Addr()
}

// env is one set-up of a workload: tables, server, client runtimes behind
// their links, and connected requesters.
type env struct {
	opts options
	w    *workload
	dir  string

	cat  *catalog.Catalog
	svc  *service.Service
	srv  *service.Server
	addr string
	reqs []*requester

	// Set by workload.build.
	funcs    []*client.Func
	prepared []string
	next     func(client, i int) (operation, error)

	// insertEvery is the write cadence of hot_rw; the traced run lowers it to
	// 1 so that every staged execution is a miss.
	insertEvery int
	insertNs    int64
	inserts     int64

	// tracing turns on the UDF timers (and the links' busy histories).
	tracing  atomic.Bool
	udfCalls atomic.Int64
	udfNs    atomic.Int64
	udfMu    sync.Mutex
	udfSpans []busyInterval

	// issued counts operations per client across warm-up, timed and traced
	// runs: the index into the workload's fixed sequence.
	issued []int

	closers []func()
}

// timedBody wraps a UDF body with the harness's call counter and, while
// tracing, its timer.
func (e *env) timedBody(body func([]types.Value) (types.Value, error)) func([]types.Value) (types.Value, error) {
	return func(args []types.Value) (types.Value, error) {
		e.udfCalls.Add(1)
		if !e.tracing.Load() {
			return body(args)
		}
		start := time.Now()
		v, err := body(args)
		end := time.Now()
		e.udfNs.Add(end.Sub(start).Nanoseconds())
		e.udfMu.Lock()
		e.udfSpans = append(e.udfSpans, busyInterval{start, end})
		e.udfMu.Unlock()
		return v, err
	}
}

// setUp builds a fresh env for the workload and runs its warm-up operations.
func setUp(ctx context.Context, opts options) (e *env, err error) {
	w := opts.workload
	e = &env{opts: opts, w: w, cat: catalog.New(), insertEvery: hotInsertEvery, issued: make([]int, w.clients)}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if err := os.MkdirAll(opts.dataRoot, 0o755); err != nil {
		return nil, err
	}
	if e.dir, err = os.MkdirTemp(opts.dataRoot, w.name+"-"); err != nil {
		return nil, err
	}
	e.closers = append(e.closers, func() { _ = os.RemoveAll(e.dir) })

	if err := w.build(e, rand.New(rand.NewSource(opts.seed))); err != nil {
		return nil, fmt.Errorf("build %s: %w", w.name, err)
	}

	e.svc = service.New(e.cat, w.serviceConfig(e.dir))
	e.srv = service.NewServer(e.svc)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.svc.Close()
		return nil, err
	}
	e.addr = ln.Addr().String()
	served := make(chan struct{})
	go func() { defer close(served); _ = e.srv.Serve(ln) }()
	e.closers = append(e.closers, func() { e.srv.Close(); <-served })

	for c := 0; c < w.clients; c++ {
		q, err := e.connect()
		if err != nil {
			return nil, err
		}
		e.reqs = append(e.reqs, q)
	}

	warm := w.warmup
	if opts.smoke {
		warm = 1
	}
	res := e.run(ctx, runSpec{opsPerClient: warm})
	if res.failed > 0 {
		return nil, fmt.Errorf("warm-up of %s: %d of %d operations failed: %s", w.name, res.failed, res.attempted, res.firstFailure)
	}
	return e, nil
}

// connect starts one requester: its client runtime behind its own link (when
// the workload has a client site), its control connection, the UDF
// announcement the daemon's catalog learns the functions from, and its
// prepared statements.
func (e *env) connect() (*requester, error) {
	q := &requester{}
	if e.w.link != nil {
		rt := client.NewRuntime()
		for _, f := range e.funcs {
			timed := *f
			timed.Body = e.timedBody(f.Body)
			if err := rt.Register(&timed); err != nil {
				return nil, err
			}
		}
		l, err := newLink(*e.w.link, func(c net.Conn) {
			conn := wire.NewConn(c)
			_ = rt.ServeConn(conn) // ends when the server closes the session
			_ = conn.Close()
		})
		if err != nil {
			return nil, err
		}
		q.link = l
		e.closers = append(e.closers, l.Close)
	}
	nc, err := net.DialTimeout("tcp", e.addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	q.conn = &countingConn{Conn: nc}
	q.r = service.NewRequester(q.conn)
	e.closers = append(e.closers, func() { _ = q.r.Close() })
	var regs []*wire.RegisterUDF
	for _, f := range e.funcs {
		regs = append(regs, &wire.RegisterUDF{
			Name: f.Name, ArgKinds: f.ArgKinds, ResultKind: f.ResultKind, ResultSize: f.ResultSize,
			Selectivity: f.Selectivity, PerCallCost: f.PerCallCost, Pure: f.Pure,
		})
	}
	if len(regs) > 0 {
		if err := q.r.RegisterUDFs(regs); err != nil {
			return nil, err
		}
	}
	for _, text := range e.prepared {
		st, err := q.r.PrepareText(text, wire.QuerySpec{ClientAddr: q.clientAddr()})
		if err != nil {
			return nil, err
		}
		q.stmts = append(q.stmts, st)
	}
	return q, nil
}

// close tears the env down, last started first.
func (e *env) close() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
	e.closers = nil
}

// sample is one finished operation.
type sample struct {
	start, end time.Time
	want       answer
}

func (s sample) latency() time.Duration { return s.end.Sub(s.start) }

// runSpec bounds one closed-loop run: each client issues operations until it
// has done opsPerClient (when > 0) or the deadline has passed (when set).
type runSpec struct {
	opsPerClient int
	deadline     time.Time
}

// timedSpec is the timed run: seconds long, or the workload's fixed smoke
// count.
func (e *env) timedSpec(seconds float64) runSpec {
	if e.opts.smoke {
		return runSpec{opsPerClient: e.w.smoke}
	}
	return runSpec{deadline: time.Now().Add(time.Duration(seconds * float64(time.Second)))}
}

type runResult struct {
	samples      []sample // successful operations, in completion order
	attempted    int
	failed       int
	firstFailure string
	start        time.Time
}

// overrun is how long past its deadline a run may take before the operations
// still in flight are abandoned and counted as failed.
const overrun = 60 * time.Second

// run drives every requester's closed loop and checks each answer against
// the oracle.
func (e *env) run(ctx context.Context, spec runSpec) runResult {
	res := runResult{start: time.Now()}
	limit := overrun
	if !spec.deadline.IsZero() {
		limit += time.Until(spec.deadline)
	}
	// Closing the control connections is what unblocks a wedged Collect.
	abort := time.AfterFunc(limit, func() {
		for _, q := range e.reqs {
			_ = q.conn.Close()
		}
	})
	defer abort.Stop()

	var mu sync.Mutex
	var wg sync.WaitGroup
	for c, q := range e.reqs {
		wg.Add(1)
		go func(c int, q *requester) {
			defer wg.Done()
			for n := 0; ctx.Err() == nil; n++ {
				if spec.opsPerClient > 0 && n >= spec.opsPerClient {
					return
				}
				if !spec.deadline.IsZero() && !time.Now().Before(spec.deadline) {
					return
				}
				i := e.issued[c]
				e.issued[c]++
				s, err := e.issue(c, q, i)
				mu.Lock()
				res.attempted++
				if err != nil {
					res.failed++
					if res.firstFailure == "" {
						res.firstFailure = fmt.Sprintf("operation %d of client %d: %v", i, c, err)
					}
					fmt.Fprintf(os.Stderr, "bench: %s: operation %d of client %d failed: %v\n", e.w.name, i, c, err)
				} else {
					res.samples = append(res.samples, s)
				}
				mu.Unlock()
				if err != nil && !errors.As(err, new(*mismatchError)) {
					return // the connection is of no more use
				}
			}
		}(c, q)
	}
	wg.Wait()
	return res
}

// mismatchError is an answer the oracle disagrees with.
type mismatchError struct{ got, want answer }

func (m *mismatchError) Error() string {
	return fmt.Sprintf("wrong answer: %d rows (checksum %016x), want %d rows (checksum %016x)",
		m.got.rows, m.got.sum, m.want.rows, m.want.sum)
}

// issue runs one operation to completion: submit to last row decoded is the
// latency; the oracle's check comes after the clock has stopped.
func (e *env) issue(c int, q *requester, i int) (sample, error) {
	op, err := e.next(c, i)
	if err != nil {
		return sample{}, err
	}
	s := sample{want: op.want, start: time.Now()}
	var rq *service.RemoteQuery
	if op.stmt >= 0 {
		rq, err = q.stmts[op.stmt].Exec(wire.ExecPrepared{})
	} else {
		rq, err = q.r.SubmitText(op.text, wire.QuerySpec{ClientAddr: q.clientAddr()})
	}
	if err != nil {
		return s, err
	}
	rows, err := rq.Collect()
	s.end = time.Now()
	if err != nil {
		return s, err
	}
	if got := summarize(rows); got != op.want {
		return s, &mismatchError{got: got, want: op.want}
	}
	return s, nil
}

// traffic is the bytes that crossed a network for the env so far: the client
// links and the requesters' control connections.
type traffic struct {
	link     linkCounters
	ctrl     int64 // requests and answers on the control connections
	udfCalls int64
}

func (e *env) traffic() traffic {
	var t traffic
	for _, q := range e.reqs {
		if q.link != nil {
			t.link = t.link.add(q.link.counters())
		}
		t.ctrl += q.conn.bytes.Load()
	}
	t.udfCalls = e.udfCalls.Load()
	return t
}

func (t traffic) sub(o traffic) traffic {
	return traffic{
		link:     t.link.sub(o.link),
		ctrl:     t.ctrl - o.ctrl,
		udfCalls: t.udfCalls - o.udfCalls,
	}
}

func (t traffic) netBytes() int64 {
	return t.link.downBytes + t.link.upBytes + t.ctrl
}

// ---- statistics ----

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies returns the run's latencies in ms, sorted.
func (r runResult) latencies() []float64 {
	out := make([]float64, len(r.samples))
	for i, s := range r.samples {
		out[i] = ms(s.latency())
	}
	sort.Float64s(out)
	return out
}

// qpsWindows is how many equal-count windows a run's throughput is the median
// of: a stall in one window moves one of five values, not the result.
const qpsWindows = 5

// qps is the median, over qpsWindows consecutive windows holding equal
// numbers of completions, of completions ÷ window wall time.
func (r runResult) qps() float64 {
	ends := make([]time.Time, len(r.samples))
	for i, s := range r.samples {
		ends[i] = s.end
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i].Before(ends[j]) })
	per := len(ends) / qpsWindows
	if per == 0 {
		if len(ends) == 0 {
			return 0
		}
		return float64(len(ends)) / ends[len(ends)-1].Sub(r.start).Seconds()
	}
	rates := make([]float64, qpsWindows)
	from := r.start
	for w := range rates {
		to := ends[(w+1)*per-1]
		rates[w] = float64(per) / to.Sub(from).Seconds()
		from = to
	}
	return median(rates)
}

// answers sums the oracle's checksums of the run's operations.
func (r runResult) answers() uint64 {
	var sum uint64
	for _, s := range r.samples {
		sum += s.want.sum
	}
	return sum
}
