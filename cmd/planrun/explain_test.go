package main

import (
	"flag"
	"os"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the EXPLAIN golden file")

// TestExplainFigure8Golden pins the three-layer EXPLAIN rendering for the
// Figure-8 workload: the logical tree, the rewritten tree (pushable predicate
// and projection absorbed into the UDF application), and the lowered physical
// plan with the chosen strategy and session fan-out. The plan is fully deterministic — fixed link observation, deterministic sample
// — so any drift in planning or rendering shows up as a diff.
//
// Regenerate with: go test ./cmd/planrun -run TestExplainFigure8Golden -update
func TestExplainFigure8Golden(t *testing.T) {
	got, err := explainFigure8()
	if err != nil {
		t.Fatal(err)
	}
	const path = "testdata/explain_figure8.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("EXPLAIN output drifted from golden file %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
