package main

import (
	"fmt"
	"sort"
)

// metricDef names one metric the benchmark reports. BENCHMARK.json lists the
// same names, units, directions and bounds (metrics_test.go holds the two
// together).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end metrics only: the share of the median a later change may lose
}

// endToEnd is what a user of the daemon sees, reported with tracing off.
//
// The timing bounds are the contract's maximum. Between runs of one commit on
// a shared 2-core VM the three CPU-bound workloads follow the host's own
// speed, which moves by 10–30 % over an hour (README, "Measured spreads"); a
// bound inside that drift would reject changes for the weather. The byte count
// repeats, and gets 1 %.
var endToEnd = []metricDef{
	{"qps", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"net_bytes_per_query", "B", "lower", 0.01},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is what single layers do, reported by the traced run. None has a
// bound.
var perLayer = []metricDef{
	{name: "lang.compile_ms", unit: "ms", better: "lower"},
	{name: "logical.rewrite_ms", unit: "ms", better: "lower"},
	{name: "plan.plan_ms", unit: "ms", better: "lower"},
	{name: "plan.new_operator_ms", unit: "ms", better: "lower"},
	{name: "plan.probe_ms", unit: "ms", better: "lower"},
	{name: "plan.semijoin_share", unit: "ratio", better: "higher"},
	{name: "plan.clientjoin_share", unit: "ratio", better: "higher"},
	{name: "plan.naive_share", unit: "ratio", better: "lower"},
	{name: "plan.sessions_planned", unit: "count", better: "lower"},
	{name: "service.unattributed_ms", unit: "ms", better: "lower"},
	{name: "service.staged_sum_ms", unit: "ms", better: "lower"},
	{name: "service.execute_ms", unit: "ms", better: "lower"},
	{name: "service.admission_wait_ms", unit: "ms", better: "lower"},
	{name: "service.result_cache_hit_rate", unit: "ratio", better: "higher"},
	{name: "service.plan_cache_hit_rate", unit: "ratio", better: "higher"},
	{name: "service.stats_cache_hit_rate", unit: "ratio", better: "higher"},
	{name: "service.mem_peak_kb", unit: "KB", better: "lower"},
	{name: "service.latency_p99_ms", unit: "ms", better: "lower"},
	{name: "exec.collect_ms", unit: "ms", better: "lower"},
	{name: "exec.self_ms", unit: "ms", better: "lower"},
	{name: "exec.rows_out", unit: "count", better: "higher"},
	{name: "exec.spill_events", unit: "count", better: "lower"},
	{name: "storage.colscan_ms", unit: "ms", better: "lower"},
	{name: "storage.decode_ms", unit: "ms", better: "lower"},
	{name: "storage.bytes_read_per_query", unit: "B", better: "lower"},
	{name: "storage.segments_scanned_per_query", unit: "count", better: "lower"},
	{name: "storage.segments_pruned_per_query", unit: "count", better: "higher"},
	{name: "storage.insert_ms", unit: "ms", better: "lower"},
	{name: "wire.result_encode_ms", unit: "ms", better: "lower"},
	{name: "wire.result_decode_ms", unit: "ms", better: "lower"},
	{name: "wire.result_bytes_per_query", unit: "B", better: "lower"},
	{name: "client.udf_ms", unit: "ms", better: "lower"},
	{name: "client.udf_calls_per_query", unit: "count", better: "lower"},
	{name: "link.down_bytes_per_query", unit: "B", better: "lower"},
	{name: "link.up_bytes_per_query", unit: "B", better: "lower"},
	{name: "link.down_busy_ms", unit: "ms", better: "lower"},
	{name: "link.up_busy_ms", unit: "ms", better: "lower"},
	{name: "link.sessions_per_query", unit: "count", better: "lower"},
	{name: "process.cpu_ms_per_query", unit: "ms", better: "lower"},
	{name: "process.alloc_kb_per_query", unit: "KB", better: "lower"},
	{name: "process.gc_cycles_per_query", unit: "count", better: "lower"},
	{name: "process.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "trace.overhead_share", unit: "ratio", better: "lower"},
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one workload run; marshalled, it is the line the
// run ends with.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// answers sums the oracle's checksums of the operations issued: equal for
	// equal seeds, different otherwise.
	answers uint64
}

// metricSet collects the values of the metrics of one table.
type metricSet struct {
	defs   []metricDef
	values map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]metric, len(defs))}
}

// set records a value under a name of the table; any other name is a bug.
func (s *metricSet) set(name string, v float64) {
	for _, d := range s.defs {
		if d.name == name {
			s.values[name] = metric{v, d.unit}
			return
		}
	}
	panic(fmt.Sprintf("bench: metric %q is not declared", name))
}

// done returns the values once every metric of the table has one.
func (s *metricSet) done() (map[string]metric, error) {
	for _, d := range s.defs {
		if _, ok := s.values[d.name]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
	}
	return s.values, nil
}

// ---- statistics ----

// quantile interpolates the q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

func median(values []float64) float64 { return quantile(sorted(values), 0.5) }

// quartiles returns the cut points of sorted values (at least two) as Python's
// statistics.quantiles(values, n=4) gives them, which is what the driver uses.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	cut := func(i int) float64 {
		m := len(sorted) + 1
		j, delta := i*m/4, i*m%4
		j = min(max(j, 1), len(sorted)-1)
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
