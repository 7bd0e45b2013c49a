package main

import (
	"context"
	"testing"
)

// smokeRun runs every workload's -smoke traced run (all checks on) and
// returns the reports by workload.
func smokeRun(t *testing.T, seed int64) map[string]*report {
	t.Helper()
	out := make(map[string]*report)
	for _, w := range workloads {
		rep, err := runWorkload(context.Background(), options{
			workload: w, seed: seed, trace: true, smoke: true, dataRoot: t.TempDir(),
		})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rep.Correct || rep.Failed != 0 {
			t.Fatalf("%s: %d of %d operations failed", w.name, rep.Failed, rep.Attempted)
		}
		out[w.name] = rep
	}
	return out
}

// TestSmokeDeterministic drives the whole harness against the engine, so that
// it breaks loudly when an internal API it calls moves, and pins what makes
// two runs comparable: the same seed gives the same bytes, calls, rows and
// plans; another seed gives different data of the same sizes.
func TestSmokeDeterministic(t *testing.T) {
	counts := []string{
		"link.down_bytes_per_query", "link.up_bytes_per_query", "link.sessions_per_query",
		"wire.result_bytes_per_query", "client.udf_calls_per_query", "exec.rows_out",
		"plan.semijoin_share", "plan.clientjoin_share", "plan.naive_share", "plan.sessions_planned",
		"storage.bytes_read_per_query", "storage.segments_scanned_per_query", "exec.spill_events",
	}
	// What may differ between seeds: hot_rw's answers grow with its seeded
	// inserts, and dictionary-coded column chunks of other strings need not
	// have the same size.
	seedDependent := map[string]bool{
		"hot_rw/wire.result_bytes_per_query":         true,
		"hot_rw/exec.rows_out":                       true,
		"scan_join_agg/storage.bytes_read_per_query": true,
	}
	first, again, other := smokeRun(t, 1), smokeRun(t, 1), smokeRun(t, 2)
	for _, w := range workloads {
		a, b, c := first[w.name], again[w.name], other[w.name]
		for _, name := range counts {
			if a.Metrics[name] != b.Metrics[name] {
				t.Errorf("%s: %s = %v and %v on the same seed", w.name, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
			if a.Metrics[name] != c.Metrics[name] && !seedDependent[w.name+"/"+name] {
				t.Errorf("%s: %s = %v on one seed and %v on another", w.name, name, a.Metrics[name].Value, c.Metrics[name].Value)
			}
		}
		if a.answers != b.answers {
			t.Errorf("%s: the same seed gave different answers", w.name)
		}
		if a.answers == c.answers {
			t.Errorf("%s: another seed gave the same answers", w.name)
		}
	}
	if v := first["udf_semijoin_lan"].Metrics["plan.semijoin_share"].Value; v != 1 {
		t.Errorf("udf_semijoin_lan: plan.semijoin_share = %v, want 1", v)
	}
	if v := first["udf_clientjoin_asym"].Metrics["plan.clientjoin_share"].Value; v != 1 {
		t.Errorf("udf_clientjoin_asym: plan.clientjoin_share = %v, want 1", v)
	}
}
