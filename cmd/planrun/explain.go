package main

import (
	"context"
	"fmt"
	"time"

	"csq/internal/exec"
	"csq/internal/plan"
)

// explainFigure8 plans one Figure-8-style workload point (I=1000B, A=50%,
// R=2000B, S=0.5 on a symmetric modem) and renders all three planning layers:
// the logical tree, the rewritten tree, and the lowered physical plan with
// the chosen strategy and session fan-out. The link
// observation is fixed (N=1 modem numbers) instead of probed, so the output
// is deterministic — it backs the -explain flag and the golden-file test.
func explainFigure8() (string, error) {
	s := figure8Sweep()
	pt := s.points[4] // S=0.5
	pq, err := newPointQuery(s, pt)
	if err != nil {
		return "", err
	}

	planner := plan.NewPlanner(nil) // planning only; nothing executes
	planner.Config.Link = &exec.LinkObservation{
		DownBytesPerSec: 3600,
		UpBytesPerSec:   3600,
		Asymmetry:       1,
		RTT:             200 * time.Millisecond,
	}
	tp, err := planner.PlanTree(context.Background(), pq.tree, pq.cat)
	if err != nil {
		return "", err
	}
	header := fmt.Sprintf("EXPLAIN figure8 %s (I=%dB, A=%d%%, R=%dB, N=1 modem)\n",
		pt.label, pt.argBytes+pt.nonArgBytes, 100*pt.argBytes/(pt.argBytes+pt.nonArgBytes), pt.resultBytes)
	return header + tp.Explain(), nil
}
