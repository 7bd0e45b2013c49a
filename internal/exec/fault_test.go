package exec

import (
	"context"
	"errors"
	"testing"

	"csq/internal/netsim"
	"csq/internal/types"
)

// faultyLink returns an in-process link whose per-session faults follow the
// script: ordinals 0..n-1 are the initial pool sessions, later ordinals are
// redials.
func faultyLink(t testing.TB, script *netsim.FaultScript) *InProcessLink {
	t.Helper()
	link := fastLink(t)
	link.Faults = script
	return link
}

// strategyBuilders constructs each client-site strategy over the same input
// with a pool of the given size.
func strategyBuilders(rows []types.Tuple, sessions int) map[string]func(link ClientLink) (Operator, error) {
	return map[string]func(link ClientLink) (Operator, error){
		"naive": func(link ClientLink) (Operator, error) {
			op, err := newNaive(NewValuesScan(stockSchema(), rows), link, []UDFBinding{analysisBinding()})
			if err != nil {
				return nil, err
			}
			op.Sessions = sessions
			return op, nil
		},
		"SemiJoin": func(link ClientLink) (Operator, error) {
			op, err := NewSemiJoin(NewValuesScan(stockSchema(), rows), link, []UDFBinding{analysisBinding()})
			if err != nil {
				return nil, err
			}
			op.Sessions = sessions
			op.ConcurrencyFactor = 16
			return op, nil
		},
		"ClientJoin": func(link ClientLink) (Operator, error) {
			op, err := NewClientJoin(NewValuesScan(stockSchema(), rows), link, []UDFBinding{analysisBinding()})
			if err != nil {
				return nil, err
			}
			op.Sessions = sessions
			op.ShipBatchSize = 4
			return op, nil
		},
	}
}

// runStrategy executes one build, returning ordered row keys and fault stats.
func runStrategy(t *testing.T, build func(link ClientLink) (Operator, error), link ClientLink) ([]string, FaultStats, error) {
	t.Helper()
	op, err := build(link)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	rows, err := Collect(context.Background(), op)
	return keysOf(rows), FaultStatsOf(op), err
}

// TestMidQueryFailoverIdenticalResults kills one of three sessions mid-stream
// for every strategy; the redial succeeds, and the results — including row
// order — must be byte-identical to a fault-free run.
func TestMidQueryFailoverIdenticalResults(t *testing.T) {
	rows := stockRows(256)
	for name, build := range strategyBuilders(rows, 3) {
		t.Run(name, func(t *testing.T) {
			want, base, err := runStrategy(t, build, fastLink(t))
			if err != nil {
				t.Fatalf("baseline run: %v", err)
			}
			if base.Failovers != 0 {
				t.Fatalf("baseline reported %d failovers", base.Failovers)
			}
			script := netsim.NewFaultScript(1).Set(1, netsim.FaultConfig{DropAfterBytes: 1000})
			got, faults, err := runStrategy(t, build, faultyLink(t, script))
			if err != nil {
				t.Fatalf("faulty run: %v", err)
			}
			if len(got) != len(want) {
				t.Fatalf("faulty run returned %d rows, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("row %d differs after failover", i)
				}
			}
			if faults.Failovers < 1 || faults.Redials < 1 {
				t.Errorf("fault stats = %+v, want at least one failover via redial", faults)
			}
			if faults.FinalSessions != 3 {
				t.Errorf("final sessions = %d, want the full pool of 3 restored", faults.FinalSessions)
			}
		})
	}
}

// TestDegradeToSurvivingSession refuses every redial after killing one of two
// sessions: the pool must shrink to the survivor and the query still succeed
// with identical results.
func TestDegradeToSurvivingSession(t *testing.T) {
	rows := stockRows(96)
	for name, build := range strategyBuilders(rows, 2) {
		t.Run(name, func(t *testing.T) {
			want, _, err := runStrategy(t, build, fastLink(t))
			if err != nil {
				t.Fatalf("baseline run: %v", err)
			}
			// The drop comes a few frames past the setup handshake: how the
			// frames split over the two lanes depends on scheduling, and on a
			// loaded machine the second lane of the naive strategy can carry under 1 kB
			// of the whole query.
			script := netsim.NewFaultScript(1).
				Set(0, netsim.FaultConfig{}).
				Set(1, netsim.FaultConfig{DropAfterBytes: 300}).
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
					t.Fatalf("row %d differs after degradation", i)
				}
			}
			if faults.SessionsLost != 1 {
				t.Errorf("sessions lost = %d, want 1", faults.SessionsLost)
			}
			if faults.FinalSessions != 1 {
				t.Errorf("final sessions = %d, want the lone survivor", faults.FinalSessions)
			}
		})
	}
}

// TestAllSessionsExhausted kills every session with redials refused: the
// query must fail with a classified ErrSessionsExhausted, not hang.
func TestAllSessionsExhausted(t *testing.T) {
	rows := stockRows(256)
	for name, build := range strategyBuilders(rows, 2) {
		t.Run(name, func(t *testing.T) {
			script := netsim.NewFaultScript(1).
				Set(0, netsim.FaultConfig{DropAfterBytes: 900}).
				Set(1, netsim.FaultConfig{DropAfterBytes: 1100}).
				SetDefault(netsim.FaultConfig{RefuseDial: true})
			_, _, err := runStrategy(t, build, faultyLink(t, script))
			if err == nil {
				t.Fatal("query with every session dead succeeded")
			}
			if !errors.Is(err, ErrSessionsExhausted) {
				t.Fatalf("error = %v, want ErrSessionsExhausted", err)
			}
		})
	}
}

// TestProbeRespectsBreaker verifies the circuit breaker guards asymmetry
// probing: after the link's breaker opens, ProbeAsymmetry fails fast instead
// of dialling.
func TestProbeRespectsBreaker(t *testing.T) {
	script := netsim.NewFaultScript(1).SetDefault(netsim.FaultConfig{RefuseDial: true})
	link := faultyLink(t, script)
	br := BreakerOf(link)
	if br == nil {
		t.Fatal("in-process link should expose a breaker")
	}
	var lastErr error
	for i := 0; i < 10; i++ {
		if _, lastErr = ProbeAsymmetry(context.Background(), link, 1024); lastErr == nil {
			t.Fatal("probe over a refusing link succeeded")
		}
	}
	if br.Trips() == 0 {
		t.Errorf("breaker never opened after repeated refused dials: %v", lastErr)
	}
}
