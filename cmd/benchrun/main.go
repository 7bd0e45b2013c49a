// Command benchrun executes the engine's benchmark suites (internal/exec,
// internal/wire, internal/service) via `go test -bench`, parses the standard
// benchmark output, and writes the results as JSON so the repository's
// performance trajectory can be tracked across commits.
//
// With -compare it additionally gates regressions: every batch-path benchmark
// (name ending in "/batch") present in both the fresh run and the baseline
// JSON must stay within -maxregress (default 25%) on ns/op and allocs/op, or
// benchrun exits non-zero. Wire-codec benchmarks (the internal/wire package)
// are additionally gated on bytes_per_op — allocated bytes are deterministic
// there, so an encoder that starts copying or loses its pooling is caught
// even when allocation counts stay flat. Columnar scan benchmarks
// (internal/exec ColumnarScan/*) are gated on their custom bytesread/op
// metric — on-disk bytes read per scan — so a zone-map pruning or projection
// regression fails CI even when timing noise hides it. CI runs this against
// the committed BENCH_exec.json. ns/op comparisons are normalized by the suite-wide median
// speed ratio, so a baseline generated on different hardware does not trip
// the gate; allocs/op and bytes_per_op are compared directly.
//
// With -service it instead runs cmd/loadgen's committed serving-suite
// scenarios (closed/open loop, caches on/off) against in-process servers and
// gates qps/p50/p99 per scenario within a wide multiplicative tolerance of
// the committed BENCH_service.json, plus two machine-independent invariants:
// cache hit rates must hold, and the cached closed-loop p50 must not exceed
// the uncached one. CI runs this as its own job.
//
// Usage:
//
//	go run ./cmd/benchrun [-benchtime 100x] [-out BENCH_exec.json]
//	                      [-compare BENCH_exec.json] [-maxregress 0.25] [pkg ...]
//	go run ./cmd/benchrun -service [-servicebaseline BENCH_service.json]
//	                      [-serviceout BENCH_service_fresh.json]
//	                      [-serviceduration 2s] [-servicetol 4.0]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is one parsed benchmark line.
type Result struct {
	Package     string  `json:"package"`
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// BytesReadPerOp is the custom bytesread/op metric of the columnar scan
	// benchmarks: on-disk bytes actually read per scan. 0 for benchmarks
	// that do not report it.
	BytesReadPerOp float64 `json:"bytesread_per_op,omitempty"`
}

// Report is the BENCH_exec.json document.
type Report struct {
	GeneratedAt string            `json:"generated_at"`
	GoVersion   string            `json:"go_version"`
	BenchTime   string            `json:"bench_time"`
	Results     []Result          `json:"results"`
	Speedups    map[string]Ratios `json:"speedups"`
}

// Ratios compares a benchmark's optimised variant against its base variant.
type Ratios struct {
	TimeRatio  float64 `json:"time_base_over_variant"`
	AllocRatio float64 `json:"allocs_base_over_variant"`
}

// benchLine matches e.g.
// BenchmarkHashJoin/batch-8  100  1159133 ns/op  2695789 B/op  862 allocs/op
// BenchmarkColumnarScan/pruned-8  50  382612 ns/op  22868 bytesread/op  1623982 B/op  67 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+([\d.]+) bytesread/op)?(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

func main() {
	benchtime := flag.String("benchtime", "100x", "value passed to -benchtime")
	out := flag.String("out", "BENCH_exec.json", "output JSON path")
	compare := flag.String("compare", "", "baseline JSON to gate regressions against")
	maxRegress := flag.Float64("maxregress", 0.25, "allowed fractional ns/op or allocs/op regression on batch paths")
	svcGate := flag.Bool("service", false, "run cmd/loadgen's serving suite and gate it against -servicebaseline instead of go-bench suites")
	svcBaseline := flag.String("servicebaseline", "BENCH_service.json", "committed serving baseline to gate against (with -service)")
	svcOut := flag.String("serviceout", "BENCH_service_fresh.json", "where to write the fresh serving report (with -service)")
	svcDuration := flag.String("serviceduration", "2s", "per-scenario measurement window (with -service)")
	svcTol := flag.Float64("servicetol", 4.0, "multiplicative slack on qps/p50/p99 vs the serving baseline (with -service)")
	flag.Parse()

	if *svcGate {
		problems, err := runServiceGate(*svcBaseline, *svcOut, *svcDuration, *svcTol)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrun: service gate: %v\n", err)
			os.Exit(1)
		}
		if len(problems) > 0 {
			for _, p := range problems {
				fmt.Fprintf(os.Stderr, "benchrun: SERVICE REGRESSION: %s\n", p)
			}
			os.Exit(1)
		}
		fmt.Printf("benchrun: serving suite within %.1fx of %s\n", *svcTol, *svcBaseline)
		return
	}
	pkgs := flag.Args()
	if len(pkgs) == 0 {
		pkgs = []string{"./internal/exec", "./internal/wire", "./internal/service"}
	}

	var results []Result
	for _, pkg := range pkgs {
		res, err := runPackage(pkg, *benchtime)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrun: %s: %v\n", pkg, err)
			os.Exit(1)
		}
		results = append(results, res...)
	}

	report := Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   goVersion(),
		BenchTime:   *benchtime,
		Results:     results,
		Speedups:    speedups(results),
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchrun: marshal: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchrun: write %s: %v\n", *out, err)
		os.Exit(1)
	}
	fmt.Printf("benchrun: wrote %d results to %s\n", len(results), *out)

	if *compare != "" {
		problems, err := compareToBaseline(results, *compare, *maxRegress)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrun: compare: %v\n", err)
			os.Exit(1)
		}
		if len(problems) > 0 {
			for _, p := range problems {
				fmt.Fprintf(os.Stderr, "benchrun: REGRESSION: %s\n", p)
			}
			os.Exit(1)
		}
		fmt.Printf("benchrun: no batch-path regressions beyond %.0f%% vs %s\n", *maxRegress*100, *compare)
	}
}

// compareToBaseline checks the fresh results of the batch fast paths against
// a committed baseline report and returns a description of every benchmark
// whose ns/op or allocs/op regressed by more than maxRegress.
//
// allocs/op is machine-independent and compared directly. ns/op is not: the
// baseline JSON may have been generated on different hardware, so every raw
// ns ratio is first divided by the median ns ratio across the whole suite —
// a uniform machine-speed difference cancels out, and only a benchmark that
// slowed down relative to its peers trips the gate.
func compareToBaseline(results []Result, baselinePath string, maxRegress float64) ([]string, error) {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return nil, err
	}
	var baseline Report
	if err := json.Unmarshal(data, &baseline); err != nil {
		return nil, fmt.Errorf("parse %s: %w", baselinePath, err)
	}
	base := make(map[string]Result, len(baseline.Results))
	for _, r := range baseline.Results {
		base[r.Package+" "+r.Name] = r
	}
	speed := medianNsRatio(results, base)
	// Print the factor unconditionally: a uniform suite-wide slowdown is, by
	// construction, absorbed by the normalization (it is indistinguishable
	// from a hardware difference), so it must at least be visible in the log.
	fmt.Printf("benchrun: suite-wide ns/op ratio vs baseline: %.2fx (ns gate is normalized by this)\n", speed)
	if speed > 1+maxRegress {
		fmt.Printf("benchrun: WARNING: the whole suite is >%.0f%% slower than the baseline; "+
			"if this run is on comparable hardware, investigate before trusting the normalized ns gate "+
			"(allocs/op comparisons are unaffected)\n", maxRegress*100)
	}
	var problems []string
	batchCompared := 0
	for _, r := range results {
		gateBytes := isWireBench(r)
		gateBytesRead := isColumnarScanBench(r)
		isBatch := strings.HasSuffix(r.Name, "/batch")
		if !isBatch && !gateBytes && !gateBytesRead {
			continue
		}
		b, ok := base[r.Package+" "+r.Name]
		if !ok {
			continue // new benchmark: nothing to regress against
		}
		if isBatch {
			batchCompared++
		}
		if isBatch && b.NsPerOp > 0 && speed > 0 {
			normalized := r.NsPerOp / b.NsPerOp / speed
			if normalized > 1+maxRegress {
				problems = append(problems, fmt.Sprintf(
					"%s %s: %.0f ns/op vs baseline %.0f (+%.0f%% after normalizing by the %.2fx suite-wide speed ratio)",
					r.Package, r.Name, r.NsPerOp, b.NsPerOp, (normalized-1)*100, speed))
			}
		}
		// No b > 0 guard: a baseline of 0 allocs/op means ANY fresh allocation
		// is a regression, which the comparison below catches.
		if float64(r.AllocsPerOp) > float64(b.AllocsPerOp)*(1+maxRegress) {
			problems = append(problems, fmt.Sprintf("%s %s: %d allocs/op vs baseline %d",
				r.Package, r.Name, r.AllocsPerOp, b.AllocsPerOp))
		}
		// The absolute slack keeps pooled encoders (baseline 0 bytes/op) from
		// flaking when a GC cycle drains the sync.Pool mid-run and a refill
		// amortises to a few bytes/op; losing the pooling entirely costs
		// kilobytes per op and still trips the gate.
		const bytesSlack = 512
		if gateBytes && float64(r.BytesPerOp) > float64(b.BytesPerOp)*(1+maxRegress)+bytesSlack {
			problems = append(problems, fmt.Sprintf("%s %s: %d bytes_per_op vs baseline %d",
				r.Package, r.Name, r.BytesPerOp, b.BytesPerOp))
		}
		// On-disk bytes read per scan are fully deterministic (fixed data,
		// fixed segment layout, fixed encoding), so the columnar scan gate
		// compares the custom bytesread/op metric directly. A regression here
		// means zone-map pruning or required-column projection stopped
		// skipping reads — exactly the failure ns/op noise can hide.
		if gateBytesRead && r.BytesReadPerOp > b.BytesReadPerOp*(1+maxRegress)+bytesSlack {
			problems = append(problems, fmt.Sprintf("%s %s: %.0f bytesread_per_op vs baseline %.0f",
				r.Package, r.Name, r.BytesReadPerOp, b.BytesReadPerOp))
		}
	}
	// The backstop counts only /batch benchmarks: wire-codec matches must not
	// be able to keep the gate "green" after the batch paths silently vanish
	// from the suite (a rename would otherwise disable the ns/allocs gates).
	if batchCompared == 0 {
		return nil, fmt.Errorf("no batch-path benchmarks in common with %s", baselinePath)
	}
	return problems, nil
}

// isWireBench reports whether a result is a wire-codec benchmark — the ones
// whose allocated bytes/op are deterministic and therefore gated directly
// against the baseline. The package is matched exactly so the gate's scope
// is explicit: every benchmark of internal/wire, nothing else.
func isWireBench(r Result) bool {
	return r.Package == "./internal/wire"
}

// isColumnarScanBench reports whether a result is a columnar scan benchmark —
// the ones reporting the custom bytesread/op metric (on-disk bytes actually
// read), which is deterministic and gated directly against the baseline.
func isColumnarScanBench(r Result) bool {
	return r.Package == "./internal/exec" && strings.HasPrefix(r.Name, "ColumnarScan/")
}

// medianNsRatio estimates the machine-speed factor between this run and the
// baseline: the median fresh/baseline ns ratio over every shared benchmark.
func medianNsRatio(results []Result, base map[string]Result) float64 {
	var ratios []float64
	for _, r := range results {
		if b, ok := base[r.Package+" "+r.Name]; ok && b.NsPerOp > 0 && r.NsPerOp > 0 {
			ratios = append(ratios, r.NsPerOp/b.NsPerOp)
		}
	}
	if len(ratios) == 0 {
		return 1
	}
	sort.Float64s(ratios)
	mid := len(ratios) / 2
	if len(ratios)%2 == 1 {
		return ratios[mid]
	}
	return (ratios[mid-1] + ratios[mid]) / 2
}

func runPackage(pkg, benchtime string) ([]Result, error) {
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", ".", "-benchmem", "-benchtime", benchtime, "-count", "1", pkg)
	outBytes, err := cmd.CombinedOutput()
	output := string(outBytes)
	if err != nil {
		return nil, fmt.Errorf("%w\n%s", err, output)
	}
	var results []Result
	for _, line := range strings.Split(output, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		var bytesRead float64
		var bytesOp, allocsOp int64
		if m[4] != "" {
			bytesRead, _ = strconv.ParseFloat(m[4], 64)
		}
		if m[5] != "" {
			bytesOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		if m[6] != "" {
			allocsOp, _ = strconv.ParseInt(m[6], 10, 64)
		}
		results = append(results, Result{
			Package:        pkg,
			Name:           strings.TrimPrefix(m[1], "Benchmark"),
			Iterations:     iters,
			NsPerOp:        ns,
			BytesPerOp:     bytesOp,
			AllocsPerOp:    allocsOp,
			BytesReadPerOp: bytesRead,
		})
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("no benchmark lines parsed from output:\n%s", output)
	}
	return results, nil
}

// speedups pairs */fresh baselines with their */pooled or */into
// counterparts.
func speedups(results []Result) map[string]Ratios {
	base := make(map[string]Result)
	variants := map[string]string{"pooled": "fresh", "into": "fresh"}
	for _, r := range results {
		if i := strings.LastIndex(r.Name, "/"); i >= 0 {
			base[r.Name] = r
		}
	}
	out := make(map[string]Ratios)
	for name, r := range base {
		i := strings.LastIndex(name, "/")
		root, variant := name[:i], name[i+1:]
		baseName, ok := variants[variant]
		if !ok {
			continue
		}
		b, ok := base[root+"/"+baseName]
		if !ok || r.NsPerOp == 0 || r.AllocsPerOp == 0 {
			continue
		}
		out[root] = Ratios{
			TimeRatio:  round2(b.NsPerOp / r.NsPerOp),
			AllocRatio: round2(float64(b.AllocsPerOp) / float64(r.AllocsPerOp)),
		}
	}
	return out
}

func round2(f float64) float64 { return float64(int64(f*100+0.5)) / 100 }

func goVersion() string {
	out, err := exec.Command("go", "version").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
