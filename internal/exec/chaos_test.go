//go:build chaos

package exec

import (
	"context"
	"errors"
	"testing"

	"csq/internal/netsim"
	"csq/internal/types"
)

// The chaos suite runs the acceptance scenarios of the fault-tolerant session
// layer under `go test -tags chaos`: multiple sessions killed mid-stream per
// strategy, degradation ladders down to a single survivor, and full
// exhaustion — each asserting byte-identical results (or a classified error)
// and zero leaked goroutines. The scenarios are deterministic: fault
// assignment is scripted by connection ordinal with seeded scripts.

// TestChaosKillTwoOfFourSessions kills sessions 1 and 2 of a four-session
// pool at staggered byte offsets while the query streams. Both redials
// succeed, so every strategy must return byte-identical rows in identical
// order, count both failovers, and leak nothing.
func TestChaosKillTwoOfFourSessions(t *testing.T) {
	rows := stockRows(512)
	for name, build := range strategyBuilders(rows, 4) {
		t.Run(name, func(t *testing.T) {
			baseline := grCount()
			want, _, err := runStrategy(t, build, fastLink(t))
			if err != nil {
				t.Fatalf("baseline run: %v", err)
			}
			script := netsim.NewFaultScript(7).
				Set(1, netsim.FaultConfig{DropAfterBytes: 1200}).
				Set(2, netsim.FaultConfig{DropAfterBytes: 2100})
			got, faults, err := runStrategy(t, build, faultyLink(t, script))
			if err != nil {
				t.Fatalf("chaos run: %v", err)
			}
			if len(got) != len(want) {
				t.Fatalf("chaos run returned %d rows, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("row %d differs after two mid-stream session kills", i)
				}
			}
			if faults.Failovers < 2 {
				t.Errorf("failovers = %d, want >= 2", faults.Failovers)
			}
			if faults.Redials < 2 {
				t.Errorf("redials = %d, want >= 2", faults.Redials)
			}
			if faults.FinalSessions != 4 {
				t.Errorf("final sessions = %d, want the full pool of 4", faults.FinalSessions)
			}
			assertNoLeak(t, baseline)
		})
	}
}

// TestChaosDegradeLadder kills three of four sessions with every redial
// refused: the pool must shrink 4→1 and the query still complete with
// identical results on the lone survivor.
func TestChaosDegradeLadder(t *testing.T) {
	rows := stockRows(512)
	for name, build := range strategyBuilders(rows, 4) {
		t.Run(name, func(t *testing.T) {
			baseline := grCount()
			want, _, err := runStrategy(t, build, fastLink(t))
			if err != nil {
				t.Fatalf("baseline run: %v", err)
			}
			script := netsim.NewFaultScript(7).
				Set(0, netsim.FaultConfig{}).
				Set(1, netsim.FaultConfig{DropAfterBytes: 1000}).
				Set(2, netsim.FaultConfig{DropAfterBytes: 1800}).
				Set(3, netsim.FaultConfig{DropAfterBytes: 2600}).
				SetDefault(netsim.FaultConfig{RefuseDial: true})
			got, faults, err := runStrategy(t, build, faultyLink(t, script))
			if err != nil {
				t.Fatalf("degraded run: %v", err)
			}
			if len(got) != len(want) {
				t.Fatalf("degraded run returned %d rows, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("row %d differs after degrading 4 sessions to 1", i)
				}
			}
			if faults.SessionsLost != 3 {
				t.Errorf("sessions lost = %d, want 3", faults.SessionsLost)
			}
			if faults.FinalSessions != 1 {
				t.Errorf("final sessions = %d, want the lone survivor", faults.FinalSessions)
			}
			assertNoLeak(t, baseline)
		})
	}
}

// TestChaosEveryRedialRefused kills all four sessions with redials refused:
// each strategy must degrade through the whole pool and then fail with a
// classified ErrSessionsExhausted — never hang, never leak.
func TestChaosEveryRedialRefused(t *testing.T) {
	rows := stockRows(512)
	for name, build := range strategyBuilders(rows, 4) {
		t.Run(name, func(t *testing.T) {
			baseline := grCount()
			script := netsim.NewFaultScript(7).
				Set(0, netsim.FaultConfig{DropAfterBytes: 900}).
				Set(1, netsim.FaultConfig{DropAfterBytes: 1300}).
				Set(2, netsim.FaultConfig{DropAfterBytes: 1700}).
				Set(3, netsim.FaultConfig{DropAfterBytes: 2100}).
				SetDefault(netsim.FaultConfig{RefuseDial: true})
			_, _, err := runStrategy(t, build, faultyLink(t, script))
			if err == nil {
				t.Fatal("query with every session dead and redials refused succeeded")
			}
			if !errors.Is(err, ErrSessionsExhausted) {
				t.Fatalf("error = %v, want ErrSessionsExhausted", err)
			}
			assertNoLeak(t, baseline)
		})
	}
}

// TestChaosSeededFlapping drives each strategy through a seeded probabilistic
// fault storm — roughly a third of all connections (initial and redialled
// alike) drop mid-stream — and requires byte-identical results as long as the
// failover budget holds out.
func TestChaosSeededFlapping(t *testing.T) {
	rows := stockRows(384)
	for name, build := range strategyBuilders(rows, 4) {
		t.Run(name, func(t *testing.T) {
			baseline := grCount()
			want, _, err := runStrategy(t, build, fastLink(t))
			if err != nil {
				t.Fatalf("baseline run: %v", err)
			}
			for seed := int64(1); seed <= 3; seed++ {
				script := netsim.NewFaultScript(seed).
					WithProbability(0.33, netsim.FaultConfig{DropAfterBytes: 1500})
				got, _, err := runStrategy(t, build, faultyLink(t, script))
				if err != nil {
					// The storm may legitimately exhaust the failover budget;
					// anything else is a bug.
					if !errors.Is(err, ErrSessionsExhausted) {
						t.Fatalf("seed %d: error = %v, want success or ErrSessionsExhausted", seed, err)
					}
					continue
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d: %d rows, want %d", seed, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d: row %d differs", seed, i)
					}
				}
			}
			assertNoLeak(t, baseline)
		})
	}
}

// TestChaosCancellationDuringRecovery cancels the query while sessions are
// being killed and redialled, asserting recovery stops promptly and cleanly.
func TestChaosCancellationDuringRecovery(t *testing.T) {
	rows := stockRows(512)
	for name, build := range strategyBuilders(rows, 4) {
		t.Run(name, func(t *testing.T) {
			baseline := grCount()
			script := netsim.NewFaultScript(7).
				Set(1, netsim.FaultConfig{DropAfterBytes: 1000}).
				Set(2, netsim.FaultConfig{DropAfterBytes: 1400})
			op, err := build(faultyLink(t, script))
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			if err := op.Open(ctx); err != nil {
				t.Fatalf("open: %v", err)
			}
			row := &types.Batch{Max: 1}
			for i := 0; i < 8; i++ {
				if n, err := op.NextBatch(row); err != nil || n != 1 {
					t.Fatalf("row %d: n=%d err=%v", i, n, err)
				}
			}
			cancel()
			for i := 0; ; i++ {
				n, err := op.NextBatch(row)
				if err != nil || n == 0 {
					break
				}
				if i > DefaultBatchSize*8 {
					t.Fatal("cancelled operator kept producing rows")
				}
			}
			if err := op.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			assertNoLeak(t, baseline)
		})
	}
}
