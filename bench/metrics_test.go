package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSON holds ../BENCHMARK.json and this package's tables
// together: the workloads, and every metric's name, unit, direction and bound.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the -seconds default is %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v, defined as %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, listed []jsonMetric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%d %s metrics listed, %d defined", len(listed), kind, len(defs))
		}
		for i, d := range defs {
			m := listed[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s metric %d is %+v, defined as %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != d.bound) {
				t.Errorf("%s metric %s: bound listed does not match %v", kind, d.name, d.bound)
			}
		}
	}
	check("end-to-end", doc.EndToEnd, endToEnd, true)
	check("per-layer", doc.PerLayer, perLayer, false)
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 4, 7, 11})
	if q1 != 1.5 || q2 != 4 || q3 != 9 {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 9", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
