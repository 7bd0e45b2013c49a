package catalog

import (
	"sort"
	"strings"
	"sync"
	"testing"

	"csq/internal/types"
	"csq/internal/wire"
)

func stockSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "Name", Kind: types.KindString},
		types.Column{Name: "Quotes", Kind: types.KindTimeSeries},
		types.Column{Name: "Report", Kind: types.KindBytes},
	)
}

func TestTableRegistration(t *testing.T) {
	c := New()
	tbl := &Table{Name: "StockQuotes", Schema: stockSchema()}
	if err := c.AddTable(tbl); err != nil {
		t.Fatalf("AddTable: %v", err)
	}
	if err := c.AddTable(tbl); err == nil {
		t.Error("duplicate AddTable should fail")
	}
	if err := c.AddTable(&Table{Name: "stockquotes", Schema: stockSchema()}); err == nil {
		t.Error("case-insensitive duplicate should fail")
	}
	got, err := c.Table("STOCKQUOTES")
	if err != nil || got != tbl {
		t.Errorf("Table lookup = %v, %v", got, err)
	}
	if _, err := c.Table("missing"); err == nil {
		t.Error("missing table lookup should fail")
	}
	if err := c.AddTable(&Table{Name: "", Schema: stockSchema()}); err == nil {
		t.Error("empty table name should fail")
	}
	if err := c.AddTable(&Table{Name: "empty", Schema: types.NewSchema()}); err == nil {
		t.Error("table with no columns should fail")
	}
	if err := c.AddTable(nil); err == nil {
		t.Error("nil table should fail")
	}

}

func TestUDFRegistration(t *testing.T) {
	c := New()
	reg := &wire.RegisterUDF{
		Name:        "ClientAnalysis",
		ArgKinds:    []types.Kind{types.KindTimeSeries},
		ResultKind:  types.KindInt,
		ResultSize:  100,
		Selectivity: 0.5,
	}
	udf, err := c.RegisterClientUDF(reg)
	if err != nil {
		t.Fatalf("RegisterClientUDF: %v", err)
	}
	got, err := c.UDF("clientanalysis")
	if err != nil || got != udf || got.ResultSize != 100 {
		t.Errorf("UDF lookup = %v, %v", got, err)
	}
	if _, err := c.UDF("nothing"); err == nil {
		t.Error("missing UDF lookup should fail")
	}
	// A re-announcement replaces the metadata: the client is the authority.
	again := *reg
	again.ResultSize = 7
	if _, err := c.RegisterClientUDF(&again); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.UDF("ClientAnalysis"); got.ResultSize != 7 || len(c.UDFs()) != 1 {
		t.Errorf("re-announced UDF = %+v, %d UDFs", got, len(c.UDFs()))
	}
}

func TestUDFValidation(t *testing.T) {
	cases := []struct {
		name string
		udf  UDF
	}{
		{"empty name", UDF{Name: "", ResultKind: types.KindInt}},
		{"no result kind", UDF{Name: "f"}},
		{"bad arg kind", UDF{Name: "f", ResultKind: types.KindInt, ArgKinds: []types.Kind{types.KindInvalid}}},
		{"bad selectivity", UDF{Name: "f", ResultKind: types.KindInt, Selectivity: 1.5}},
		{"negative result size", UDF{Name: "f", ResultKind: types.KindInt, ResultSize: -1}},
	}
	for _, c := range cases {
		if err := c.udf.Validate(); err == nil {
			t.Errorf("%s: Validate should fail", c.name)
		}
	}
	ok := UDF{Name: "f", ResultKind: types.KindInt, ArgKinds: []types.Kind{types.KindTimeSeries}, Selectivity: 0.3}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid UDF rejected: %v", err)
	}
	cat := New()
	if _, err := cat.RegisterClientUDF(nil); err == nil {
		t.Error("RegisterClientUDF(nil) should fail")
	}
	if _, err := cat.RegisterClientUDF(&wire.RegisterUDF{Name: ""}); err == nil {
		t.Error("RegisterClientUDF of an invalid UDF should fail")
	}
}

func TestCatalogConcurrency(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := strings.Repeat("t", i+1)
			_ = c.AddTable(&Table{Name: name, Schema: stockSchema()})
			_, _ = c.Table(name)
			_, _ = c.RegisterClientUDF(&wire.RegisterUDF{Name: name, ResultKind: types.KindInt})
			_, _ = c.UDF(name)
			_ = c.UDFs()
		}(i)
	}
	wg.Wait()
	for i := 0; i < 8; i++ {
		if _, err := c.Table(strings.Repeat("t", i+1)); err != nil {
			t.Errorf("concurrent registration lost a table: %v", err)
		}
	}
	if len(c.UDFs()) != 8 {
		t.Errorf("concurrent registration lost UDFs: %d", len(c.UDFs()))
	}
}

// UDFs returns all registered UDFs sorted by name.
func (c *Catalog) UDFs() []*UDF {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*UDF, 0, len(c.udfs))
	for _, u := range c.udfs {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return key(out[i].Name) < key(out[j].Name) })
	return out
}
