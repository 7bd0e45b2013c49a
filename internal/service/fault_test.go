package service

import (
	"context"
	"strings"
	"testing"

	"csq/internal/catalog"
	"csq/internal/exec"
	"csq/internal/netsim"
	"csq/internal/plan"
	"csq/internal/storage"
	"csq/internal/types"
)

// panicRelation is a storage.Relation whose iterator construction panics,
// standing in for any operator that blows up mid-query.
type panicRelation struct{ schema *types.Schema }

func (p *panicRelation) Name() string          { return "boom" }
func (p *panicRelation) Schema() *types.Schema { return p.schema }
func (p *panicRelation) Iterator() storage.RowIterator {
	panic("injected scan panic")
}

// TestServicePanicIsolation verifies that a panicking operator fails only its
// own query: the panic is converted to that query's error, and the service
// keeps planning and executing subsequent queries normally.
func TestServicePanicIsolation(t *testing.T) {
	fx := newServiceFixture(t)
	defer fx.cleanup()

	schema := types.NewSchema(types.Column{Name: "K", Kind: types.KindInt})
	if err := fx.cat.AddTable(&catalog.Table{
		Name:   "boom",
		Schema: schema,
		Stats:  catalog.TableStats{RowCount: 16, AvgRowSize: 8},
		Data:   &panicRelation{schema: schema},
	}); err != nil {
		t.Fatal(err)
	}

	svc := New(fx.cat, Config{Planner: plan.Config{Link: fixedLink()}})
	defer svc.Close()

	boomScan, err := scanByName(fx.cat, "boom", "")
	if err != nil {
		t.Fatal(err)
	}
	q, err := svc.Submit(context.Background(), Request{Tree: boomScan})
	if err != nil {
		t.Fatalf("submit panicking query: %v", err)
	}
	if _, err := q.Wait(); err == nil {
		t.Fatal("panicking query reported success")
	} else if !strings.Contains(err.Error(), "panic") {
		t.Fatalf("panicking query error = %v, want a converted panic", err)
	}

	// The process survived and the service still serves queries.
	res, err := svc.Execute(context.Background(), Request{Tree: joinAggTree(t, fx.cat, 2)})
	if err != nil {
		t.Fatalf("query after a panic: %v", err)
	}
	if res.RowCount == 0 {
		t.Fatal("query after a panic returned no rows")
	}
}

// TestServiceQueryStatsRecordFaults runs a UDF query over a link that kills
// one pooled session mid-stream and checks the lifecycle stats surface the
// planned pool sizes and the fault-tolerance counters.
func TestServiceQueryStatsRecordFaults(t *testing.T) {
	fx := newServiceFixture(t)
	defer fx.cleanup()
	svc := New(fx.cat, Config{Planner: plan.Config{Link: fixedLink()}})
	defer svc.Close()

	tree := udfQueryTree(t, fx, []exec.UDFBinding{scoreBinding()}, nil, nil, nil)
	want := encodeRows(t, referenceRun(t, fx, tree))

	// In-process link so the fault script can kill exactly one pooled session
	// (ordinal 1) and let its redial succeed.
	link := exec.NewInProcessLink(fx.runtime, netsim.LinkConfig{})
	link.Faults = netsim.NewFaultScript(1).Set(1, netsim.FaultConfig{DropAfterBytes: 1500})
	res, err := svc.Execute(context.Background(), Request{Tree: tree, Link: link})
	if err != nil {
		t.Fatalf("faulty-link query: %v", err)
	}
	if got := encodeRows(t, res.Rows); string(got) != string(want) {
		t.Fatal("results after mid-query session loss differ from the fault-free run")
	}
	st := res.Stats
	if len(st.SessionsPlanned) != len(st.Strategies) {
		t.Errorf("SessionsPlanned %v not aligned with Strategies %v", st.SessionsPlanned, st.Strategies)
	}
	if st.Faults.Failovers < 1 {
		t.Errorf("stats faults = %+v, want at least one failover recorded", st.Faults)
	}
}
