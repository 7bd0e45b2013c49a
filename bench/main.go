// Command bench is the repository's end-to-end benchmark: four closed-loop
// workloads driven through the query daemon's wire path (service.Server on TCP
// loopback, a live client.Runtime behind a link the benchmark owns), every
// answer checked against an oracle, plus a staged per-layer trace. See
// README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setUpRepeats is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one the timed run uses.
const setUpRepeats = 3

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 25

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload in this process and end with one JSON line (default: every workload, each in a child process)")
		seed     = flag.Int64("seed", 1, "seed of the generated tables and the operation sequence")
		seconds  = flag.Float64("seconds", defaultSeconds, "length of each timed run")
		trace    = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
		smoke    = flag.Bool("smoke", false, "fixed small operation counts over small tables, every check on")
		repeat   = flag.Int("repeat", 1, "run the suite this many times and report each end-to-end metric's spread")
		dataRoot = flag.String("data-dir", filepath.Join(".bench_build", "data"), "where table and spill directories are created (removed on exit)")
		traceOut = flag.String("trace-out", "", "write the traced run's spans to this file, one JSON object per line")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *name == "" {
		os.Exit(runSuite(ctx, suiteOptions{
			seed: *seed, seconds: *seconds, smoke: *smoke, repeat: *repeat, dataRoot: *dataRoot, traceOut: *traceOut,
		}))
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	rep, err := runWorkload(ctx, options{
		workload: w, seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke,
		dataRoot: *dataRoot, traceOut: *traceOut,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	printMetrics(w.name, rep)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}

// printMetrics lists a report's metrics by name, value and unit.
func printMetrics(workload string, rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s: attempted=%d failed=%d correct=%v\n", workload, rep.Attempted, rep.Failed, rep.Correct)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Printf("  %-36s %14.4f %s\n", n, m.Value, m.Unit)
	}
}

// runWorkload sets the workload up, runs it, and reports either the
// end-to-end metrics (tracing off) or the per-layer metrics (a shorter
// untraced run for the counters, then the traced run).
func runWorkload(ctx context.Context, opts options) (*report, error) {
	repeats := setUpRepeats
	if opts.trace || opts.smoke {
		repeats = 1
	}
	var e *env
	setUps := make([]float64, 0, repeats)
	for n := 0; n < repeats; n++ {
		if e != nil {
			e.close()
			// Each set-up starts from a collected heap, as the first one does.
			runtime.GC()
		}
		start := time.Now()
		var err error
		if e, err = setUp(ctx, opts); err != nil {
			return nil, err
		}
		setUps = append(setUps, time.Since(start).Seconds())
	}
	defer e.close()
	if opts.trace {
		return e.traceReport(ctx)
	}

	before := e.traffic()
	res := e.run(ctx, e.timedSpec(opts.seconds))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	net := e.traffic().sub(before)
	lat := res.latencies()
	m := newMetricSet(endToEnd)
	m.set("qps", res.qps())
	m.set("latency_p50_ms", quantile(lat, 0.50))
	m.set("latency_p90_ms", quantile(lat, 0.90))
	m.set("net_bytes_per_query", float64(net.netBytes())/float64(max(len(res.samples), 1)))
	m.set("setup_s", median(setUps))
	values, err := m.done()
	if err != nil {
		return nil, err
	}
	return &report{
		Correct:   res.failed == 0 && len(res.samples) > 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   values,
		answers:   res.answers(),
	}, nil
}
