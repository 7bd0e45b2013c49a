// Package catalog implements the system catalog: the registry of tables and
// of the client-site user-defined functions (UDFs) the client runtime
// announces, with the per-UDF metadata the cost model needs (result size,
// selectivity, per-call processing cost).
package catalog

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"csq/internal/types"
	"csq/internal/wire"
)

// UDF describes a client-site user-defined function: its body is only
// available at the client, and every invocation crosses the network.
type UDF struct {
	// Name is the function's SQL name, case-insensitive.
	Name string
	// ArgKinds are the declared parameter types.
	ArgKinds []types.Kind
	// ResultKind is the declared return type.
	ResultKind types.Kind

	// Cost metadata used by the optimizer and cost model. All sizes in bytes.

	// ResultSize is the typical encoded size of one result (R in the paper).
	ResultSize int
	// PerCallCost is the client CPU cost of one invocation, in arbitrary
	// work units comparable across UDFs (used to detect client bottlenecks).
	PerCallCost float64
	// Selectivity is the fraction of tuples that satisfy the UDF when it is
	// used as a predicate (only meaningful for boolean-returning UDFs).
	Selectivity float64

	// Pure declares the function deterministic and side-effect free: equal
	// arguments always produce equal results. Only queries whose UDFs are all
	// declared pure are eligible for the service's result cache — an impure
	// UDF (random, time-dependent, stateful) must re-execute on every query.
	Pure bool
}

// Validate checks that the UDF declaration is self-consistent.
func (u *UDF) Validate() error {
	if strings.TrimSpace(u.Name) == "" {
		return fmt.Errorf("catalog: UDF with empty name")
	}
	if u.ResultKind == types.KindInvalid {
		return fmt.Errorf("catalog: UDF %q has no result kind", u.Name)
	}
	for i, k := range u.ArgKinds {
		if k == types.KindInvalid {
			return fmt.Errorf("catalog: UDF %q argument %d has invalid kind", u.Name, i)
		}
	}
	if u.Selectivity < 0 || u.Selectivity > 1 {
		return fmt.Errorf("catalog: UDF %q selectivity %g outside [0,1]", u.Name, u.Selectivity)
	}
	if u.ResultSize < 0 {
		return fmt.Errorf("catalog: UDF %q negative result size", u.Name)
	}
	return nil
}

// Table describes a stored relation.
type Table struct {
	// Name is the table's SQL name, case-insensitive.
	Name string
	// Schema is the table's column layout.
	Schema *types.Schema
	// Stats carries simple statistics maintained by the storage layer.
	Stats TableStats
	// Data optionally carries the storage engine's handle for the table's
	// rows (normally a *storage.HeapTable). It is typed as any because the
	// storage engine itself depends on the catalog for its statistics types;
	// the physical lowering layer asserts it back to the engine's table type
	// when it instantiates a logical Scan node.
	Data any
}

// TableStats holds per-table statistics used for costing.
type TableStats struct {
	// RowCount is the number of rows currently stored.
	RowCount int
	// AvgRowSize is the average encoded row size in bytes (I in the paper).
	AvgRowSize int
}

// Catalog is a thread-safe registry of tables and UDFs. Every mutation —
// table or UDF registration — advances the catalog version; the planner's
// cross-query statistics cache keys on it so cached samples and cost
// metadata go stale the moment the catalog changes.
type Catalog struct {
	version atomic.Uint64

	mu     sync.RWMutex
	tables map[string]*Table
	udfs   map[string]*UDF
}

// Version returns the catalog's mutation counter. It changes on every
// AddTable/RegisterClientUDF call.
func (c *Catalog) Version() uint64 { return c.version.Load() }

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables: make(map[string]*Table),
		udfs:   make(map[string]*UDF),
	}
}

func key(name string) string { return strings.ToLower(strings.TrimSpace(name)) }

// AddTable registers a table. It fails if a table with the same
// (case-insensitive) name already exists.
func (c *Catalog) AddTable(t *Table) error {
	if t == nil || strings.TrimSpace(t.Name) == "" {
		return fmt.Errorf("catalog: table with empty name")
	}
	if t.Schema == nil || t.Schema.Len() == 0 {
		return fmt.Errorf("catalog: table %q has no columns", t.Name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(t.Name)
	if _, ok := c.tables[k]; ok {
		return fmt.Errorf("catalog: table %q already exists", t.Name)
	}
	c.tables[k] = t
	c.version.Add(1)
	return nil
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[key(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: table %q does not exist", name)
	}
	return t, nil
}

// RegisterClientUDF records (or refreshes) a client-site UDF from a wire
// announcement. This is how the planner's cost metadata (result size,
// selectivity, per-call cost) reaches the server without being hand-supplied:
// the client declares it with MsgRegisterUDF and the server upserts it here.
// Re-announcing a name replaces the stored metadata, because a reconnecting
// client is the authority on its own functions.
func (c *Catalog) RegisterClientUDF(r *wire.RegisterUDF) (*UDF, error) {
	if r == nil {
		return nil, fmt.Errorf("catalog: nil UDF registration")
	}
	u := &UDF{
		Name:        r.Name,
		ArgKinds:    append([]types.Kind(nil), r.ArgKinds...),
		ResultKind:  r.ResultKind,
		ResultSize:  r.ResultSize,
		PerCallCost: r.PerCallCost,
		Selectivity: r.Selectivity,
		Pure:        r.Pure,
	}
	if err := u.Validate(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.udfs[key(u.Name)] = u
	c.version.Add(1)
	return u, nil
}

// UDF looks up a UDF by name.
func (c *Catalog) UDF(name string) (*UDF, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	u, ok := c.udfs[key(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: UDF %q does not exist", name)
	}
	return u, nil
}
