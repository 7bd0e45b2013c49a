// Command udfserverd runs the query service as a network daemon: it listens
// for requester connections speaking the framed wire protocol's
// MsgQuery/MsgCancel extension, plans and executes each submitted query
// under the governed runtime (admission limit, per-query memory budget with
// Grace spilling, deadlines, cancellation), dials the client UDF runtime
// named in each query for its UDF sessions, and streams results back.
//
// Usage:
//
//	udfserverd [-addr :7443] [-max-concurrent 8] [-max-queued 64]
//	           [-max-queue-wait 0] [-mem-budget 67108864]
//	           [-hard-mem-limit 0] [-timeout 30s] [-stall-timeout 0]
//	           [-drain-timeout 10s] [-spill-dir ""]
//	           [-demo-rows 0] [-stats-every 0]
//	           [-max-redials 0] [-redial-backoff 0]
//	           [-plan-cache 0] [-result-cache 0] [-shared-scans]
//	           [-tenant name:weight[:quota]]...
//
// -plan-cache, -result-cache and -shared-scans enable the hot-query serving
// path: a version-keyed plan cache (entries), a version-keyed result cache
// (bytes) for deterministic pure-UDF queries, and cross-query coalescing of
// concurrent columnar segment decodes. Repeated -tenant flags configure the
// fair scheduler's per-tenant weights and optional concurrency quotas;
// unnamed tenants run at weight 1. See docs/OPERATIONS.md.
//
// -max-redials and -redial-backoff tune the fault-tolerant session layer:
// how often a lost UDF session is redialled before the operator degrades
// onto its surviving sessions, and how long to back off between attempts
// (doubling per attempt, capped and jittered).
//
// Overload and shutdown behavior (see docs/OPERATIONS.md): -max-queued and
// -max-queue-wait bound the admission queue; queries past the bound are shed
// with typed retryable rejects. -stall-timeout arms the stuck-query watchdog.
// SIGTERM/SIGINT drains gracefully — running queries finish (up to
// -drain-timeout), queued and new ones are shed as draining; a second signal
// aborts the drain and cancels everything. When -spill-dir is set, startup
// sweeps it for spill namespaces orphaned by a crashed previous run.
//
// With -demo-rows N the daemon seeds an "objects" table with N deterministic
// rows (ID string, Payload bytes, Extra bytes) so a fresh build can be
// queried immediately. With -demo it instead seeds the documentation's demo
// catalog (trades, stocks, incoming — see docs/QUERYLANG.md), so textual
// queries from the language reference run verbatim over the wire.
// -stats-every periodically prints per-query lifecycle statistics.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"csq/internal/catalog"
	"csq/internal/client"
	"csq/internal/demo"
	"csq/internal/exec"
	"csq/internal/service"
	"csq/internal/storage"
	"csq/internal/types"
)

// options collects the daemon's flag values so they can be validated (and
// tested) as one unit before anything binds or seeds.
type options struct {
	addr          string
	maxConcurrent int
	maxQueued     int
	maxQueueWait  time.Duration
	memBudget     int64
	hardLimit     int64
	timeout       time.Duration
	stallTimeout  time.Duration
	drainTimeout  time.Duration
	spillDir      string
	statsEvery    time.Duration
	redialBackoff time.Duration
	planCache     int
	resultCache   int64
	sharedScans   bool
	tenants       tenantFlags
}

// tenantFlags parses repeated -tenant name:weight[:quota] flags into the
// service's per-tenant scheduling policies.
type tenantFlags struct {
	policies map[string]service.TenantPolicy
}

func (t *tenantFlags) String() string {
	if t == nil || len(t.policies) == 0 {
		return ""
	}
	names := make([]string, 0, len(t.policies))
	for n := range t.policies {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, n := range names {
		p := t.policies[n]
		if p.MaxConcurrent > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d:%d", n, p.Weight, p.MaxConcurrent))
		} else {
			parts = append(parts, fmt.Sprintf("%s:%d", n, p.Weight))
		}
	}
	return strings.Join(parts, ",")
}

func (t *tenantFlags) Set(v string) error {
	fields := strings.Split(v, ":")
	if len(fields) < 2 || len(fields) > 3 || fields[0] == "" {
		return fmt.Errorf("want name:weight[:quota], got %q", v)
	}
	weight, err := strconv.Atoi(fields[1])
	if err != nil || weight < 1 {
		return fmt.Errorf("weight in %q must be a positive integer", v)
	}
	pol := service.TenantPolicy{Weight: weight}
	if len(fields) == 3 {
		quota, err := strconv.Atoi(fields[2])
		if err != nil || quota < 1 {
			return fmt.Errorf("quota in %q must be a positive integer", v)
		}
		pol.MaxConcurrent = quota
	}
	if t.policies == nil {
		t.policies = make(map[string]service.TenantPolicy)
	}
	t.policies[fields[0]] = pol
	return nil
}

// validate rejects nonsensical settings with a one-line error before the
// daemon binds a socket or seeds a catalog.
func (o *options) validate() error {
	if o.addr == "" {
		return fmt.Errorf("-addr must not be empty")
	}
	if o.maxConcurrent < 1 {
		return fmt.Errorf("-max-concurrent must be >= 1 (got %d)", o.maxConcurrent)
	}
	if o.maxQueued < 1 {
		return fmt.Errorf("-max-queued must be >= 1 (got %d)", o.maxQueued)
	}
	if o.maxQueueWait < 0 {
		return fmt.Errorf("-max-queue-wait must be >= 0 (got %v)", o.maxQueueWait)
	}
	if o.memBudget < 0 {
		return fmt.Errorf("-mem-budget must be >= 0 (got %d)", o.memBudget)
	}
	if o.hardLimit < 0 {
		return fmt.Errorf("-hard-mem-limit must be >= 0 (got %d)", o.hardLimit)
	}
	if o.hardLimit > 0 && o.memBudget > o.hardLimit {
		return fmt.Errorf("-mem-budget (%d) must not exceed -hard-mem-limit (%d)", o.memBudget, o.hardLimit)
	}
	if o.timeout < 0 {
		return fmt.Errorf("-timeout must be >= 0 (got %v)", o.timeout)
	}
	if o.stallTimeout < 0 {
		return fmt.Errorf("-stall-timeout must be >= 0 (got %v)", o.stallTimeout)
	}
	if o.drainTimeout <= 0 {
		return fmt.Errorf("-drain-timeout must be > 0 (got %v)", o.drainTimeout)
	}
	if o.statsEvery < 0 {
		return fmt.Errorf("-stats-every must be >= 0 (got %v)", o.statsEvery)
	}
	if o.redialBackoff < 0 {
		return fmt.Errorf("-redial-backoff must be >= 0 (got %v)", o.redialBackoff)
	}
	if o.planCache < 0 {
		return fmt.Errorf("-plan-cache must be >= 0 (got %d)", o.planCache)
	}
	if o.resultCache < 0 {
		return fmt.Errorf("-result-cache must be >= 0 (got %d)", o.resultCache)
	}
	if o.spillDir != "" {
		if err := probeSpillDir(o.spillDir); err != nil {
			return err
		}
	}
	return nil
}

// probeSpillDir verifies the spill directory exists (creating it if needed)
// and is writable, by round-tripping a probe file.
func probeSpillDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("-spill-dir %q is not usable: %v", dir, err)
	}
	f, err := os.CreateTemp(dir, "csq-probe-*")
	if err != nil {
		return fmt.Errorf("-spill-dir %q is not writable: %v", dir, err)
	}
	name := f.Name()
	_ = f.Close()
	_ = os.Remove(name)
	return nil
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":7443", "listen address for requester connections")
	flag.IntVar(&o.maxConcurrent, "max-concurrent", service.DefaultMaxConcurrent, "global admission limit (concurrent queries)")
	flag.IntVar(&o.maxQueued, "max-queued", service.DefaultMaxQueued, "admission queue bound; submissions past it are shed as overloaded")
	flag.DurationVar(&o.maxQueueWait, "max-queue-wait", 0, "absolute cap on one query's admission wait (0 = deadline-derived only)")
	flag.Int64Var(&o.memBudget, "mem-budget", 64<<20, "per-query soft memory budget in bytes (spill threshold, 0 = unlimited)")
	flag.Int64Var(&o.hardLimit, "hard-mem-limit", 0, "per-query hard memory limit in bytes (query fails beyond it, 0 = none)")
	flag.DurationVar(&o.timeout, "timeout", 0, "default per-query deadline (0 = none)")
	flag.DurationVar(&o.stallTimeout, "stall-timeout", 0, "cancel queries with no progress for this long (0 = watchdog off)")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 10*time.Second, "how long SIGTERM waits for running queries before cancelling them")
	flag.StringVar(&o.spillDir, "spill-dir", "", "directory for spill runs (empty = system temp dir, no crash recovery)")
	demoRows := flag.Int("demo-rows", 0, "seed an 'objects' demo table with this many rows")
	demoCatalog := flag.Bool("demo", false, "seed the documentation's demo catalog (trades, stocks, incoming) and serve its client UDFs")
	flag.DurationVar(&o.statsEvery, "stats-every", 0, "print per-query lifecycle stats on this interval (0 = off)")
	maxRedials := flag.Int("max-redials", 0, "reconnection attempts per lost UDF session (0 = default, negative = degrade immediately)")
	flag.DurationVar(&o.redialBackoff, "redial-backoff", 0, "base backoff between session redial attempts, doubling per attempt (0 = default)")
	flag.IntVar(&o.planCache, "plan-cache", 0, "version-keyed plan cache capacity in entries (0 = off)")
	flag.Int64Var(&o.resultCache, "result-cache", 0, "version-keyed result cache budget in bytes of stored, encoded answers (0 = off)")
	flag.BoolVar(&o.sharedScans, "shared-scans", false, "coalesce concurrent columnar segment decodes across queries")
	flag.Var(&o.tenants, "tenant", "tenant scheduling policy name:weight[:quota] (repeatable)")
	flag.Parse()
	if err := o.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "udfserverd: %v\n", err)
		os.Exit(2)
	}

	if o.spillDir != "" {
		// Reclaim spill namespaces a crashed previous run left behind; live
		// servers sharing the root are untouched (the sweep is pid-aware).
		removed, bytes, err := storage.SweepSpillDirs(o.spillDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "udfserverd: spill sweep: %v\n", err)
		} else if len(removed) > 0 {
			fmt.Printf("udfserverd: reclaimed %d orphaned spill namespace(s), %d bytes\n", len(removed), bytes)
		}
	}

	cat := catalog.New()
	if *demoCatalog {
		// The demo catalog ships with a client UDF runtime (analyze,
		// attractive, chart, score); serve it on loopback so textual queries
		// can name it as their ClientAddr.
		var rt *client.Runtime
		var err error
		cat, rt, err = demo.New()
		if err != nil {
			fmt.Fprintf(os.Stderr, "udfserverd: seed demo catalog: %v\n", err)
			os.Exit(1)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(os.Stderr, "udfserverd: demo client runtime: %v\n", err)
			os.Exit(1)
		}
		go func() { _ = rt.ServeListener(ln) }()
		fmt.Printf("udfserverd: seeded demo catalog (trades, stocks, incoming)\n")
		fmt.Printf("udfserverd: demo client UDF runtime on %s (use as ClientAddr for udf queries)\n", ln.Addr())
	}
	if *demoRows > 0 {
		if err := seedDemo(cat, *demoRows); err != nil {
			fmt.Fprintf(os.Stderr, "udfserverd: seed demo table: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("udfserverd: seeded demo table 'objects' with %d rows\n", *demoRows)
	}

	cfg := service.Config{
		MaxConcurrent:  o.maxConcurrent,
		MaxQueued:      o.maxQueued,
		MaxQueueWait:   o.maxQueueWait,
		MemBudget:      o.memBudget,
		HardMemLimit:   o.hardLimit,
		DefaultTimeout: o.timeout,
		StallTimeout:   o.stallTimeout,
		TempDir:        o.spillDir,

		PlanCacheEntries: o.planCache,
		ResultCacheBytes: o.resultCache,
		SharedScans:      o.sharedScans,
		Tenants:          o.tenants.policies,
	}
	cfg.Planner.Retry = exec.RetryConfig{MaxRedials: *maxRedials, Backoff: o.redialBackoff}
	svc := service.New(cat, cfg)
	srv := service.NewServer(svc)

	if o.statsEvery > 0 {
		go func() {
			t := time.NewTicker(o.statsEvery)
			defer t.Stop()
			for range t.C {
				ss := svc.Stats()
				fmt.Printf("udfserverd: service active=%d admitted=%d shed_overload=%d shed_draining=%d stall_cancels=%d queue=%d/%d wait_p99=%v\n",
					ss.Active, ss.Admission.Admitted, ss.Admission.ShedOverload, ss.Admission.ShedDraining,
					ss.StallCancels, ss.Admission.Queued, ss.Admission.QueuedPeak, ss.Admission.WaitP99)
				cs := ss.Caches
				fmt.Printf("udfserverd: caches stats=%s plan=%s result=%s result_bytes=%d result_entries=%d shared_segs=%d/%d\n",
					hitRate(cs.StatsHits, cs.StatsMisses), hitRate(cs.PlanHits, cs.PlanMisses),
					hitRate(cs.ResultHits, cs.ResultMisses), cs.ResultBytes, cs.ResultEntries,
					cs.SharedSegments, cs.SharedSegments+cs.LedSegments)
				for _, name := range ss.Admission.TenantNames() {
					ts := ss.Admission.Tenants[name]
					fmt.Printf("udfserverd: tenant %s weight=%d quota=%d running=%d queued=%d admitted=%d shed=%d\n",
						name, ts.Weight, ts.Quota, ts.Running, ts.Queued, ts.Admitted, ts.Shed)
				}
				for _, st := range svc.Queries() {
					fmt.Printf("udfserverd: query %d %s rows=%d mem_peak=%dB spills=%d spilled=%dB strategies=%v redials=%d failovers=%d sessions_lost=%d err=%q\n",
						st.ID, st.State, st.Rows, st.MemPeakBytes, st.SpillEvents, st.SpilledBytes, st.Strategies,
						st.Faults.Redials, st.Faults.Failovers, st.Faults.SessionsLost, st.Err)
				}
			}
		}()
	}

	// SIGTERM/SIGINT starts a graceful drain: running queries get up to
	// -drain-timeout to finish and flush their final frames, queued and new
	// submissions are shed as draining. A second signal aborts the drain.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	shutdownDone := make(chan struct{})
	go func() {
		<-sig
		fmt.Printf("udfserverd: draining (up to %v; signal again to abort)\n", o.drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
		defer cancel()
		done := make(chan error, 1)
		go func() { done <- srv.Shutdown(ctx) }()
		select {
		case err := <-done:
			if err != nil {
				fmt.Fprintf(os.Stderr, "udfserverd: drain incomplete: %v\n", err)
			} else {
				fmt.Println("udfserverd: drained cleanly")
			}
		case <-sig:
			fmt.Println("udfserverd: second signal, aborting drain")
			cancel()
			srv.Close()
			<-done
		}
		close(shutdownDone)
	}()

	fmt.Printf("udfserverd: listening on %s (admission=%d, queue=%d, mem-budget=%dB)\n", o.addr, o.maxConcurrent, o.maxQueued, o.memBudget)
	if err := srv.ListenAndServe(o.addr); err != nil {
		fmt.Fprintf(os.Stderr, "udfserverd: %v\n", err)
		os.Exit(1)
	}
	// A nil return means the listener closed under us — the signal handler is
	// mid-drain; wait for it so admitted queries flush before the process exits.
	<-shutdownDone
}

// hitRate renders a cache's hits/lookups counters as "hits/total (rate)".
func hitRate(hits, misses int64) string {
	total := hits + misses
	if total == 0 {
		return "0/0"
	}
	return fmt.Sprintf("%d/%d (%.0f%%)", hits, total, 100*float64(hits)/float64(total))
}

// seedDemo creates the demo table the README's walk-through queries.
func seedDemo(cat *catalog.Catalog, rows int) error {
	schema := types.NewSchema(
		types.Column{Name: "ID", Kind: types.KindString},
		types.Column{Name: "Payload", Kind: types.KindBytes},
		types.Column{Name: "Extra", Kind: types.KindBytes},
	)
	table, err := storage.NewHeapTable("objects", schema)
	if err != nil {
		return err
	}
	for i := 0; i < rows; i++ {
		payload := make([]byte, 100)
		payload[0] = byte(i % 10)
		payload[1] = byte(i)
		if err := table.Insert(types.NewTuple(
			types.NewString(fmt.Sprintf("N%06d", i)),
			types.NewBytes(payload),
			types.NewBytes(make([]byte, 100)),
		)); err != nil {
			return err
		}
	}
	return cat.AddTable(&catalog.Table{
		Name:   "objects",
		Schema: schema,
		Stats:  table.Stats(),
		Data:   table,
	})
}
