package main

import (
	"fmt"
	"math/rand"
	"time"

	"csq/internal/client"
	"csq/internal/service"
	"csq/internal/storage"
	"csq/internal/types"
)

// workload is one traffic mix: its data, its queries, the link its client
// site sits behind and the server configuration it runs against.
type workload struct {
	name string
	why  string
	// clients is the number of closed-loop requesters; each has its own link.
	clients int
	// link is the client link of every requester; nil when no query of the
	// workload has a client-site UDF.
	link *linkSpec
	// caches selects the hot-query serving configuration instead of the
	// daemon's defaults.
	caches bool
	// warmup, traced and smoke are operation counts per client: before the
	// timed run, in the traced run, and in a -smoke run.
	warmup, traced, smoke int
	// build loads the workload's tables into e.cat, registers its UDF bodies
	// in e.funcs, and sets e.prepared and e.next.
	build func(e *env, rng *rand.Rand) error
}

// operation is one request of a workload's fixed sequence.
type operation struct {
	// text is the query; stmt >= 0 executes e.prepared[stmt] (the same text,
	// prepared once) instead of submitting the text.
	text string
	stmt int
	// want is the oracle's answer at the time the operation is issued.
	want answer
}

// daemonMemBudget is udfserverd's default -mem-budget.
const daemonMemBudget = 64 << 20

// serviceConfig is the server configuration of a workload: udfserverd's flag
// defaults, plus its hot-query flags for workloads that ask for the caches.
func (w *workload) serviceConfig(tempDir string) service.Config {
	cfg := service.Config{
		MaxConcurrent: service.DefaultMaxConcurrent,
		MaxQueued:     service.DefaultMaxQueued,
		MemBudget:     daemonMemBudget,
		TempDir:       tempDir,
	}
	if w.caches {
		cfg.PlanCacheEntries = 64
		cfg.ResultCacheBytes = 64 << 20
		cfg.SharedScans = true
	}
	if w.link != nil {
		cfg.Planner.Link = w.link.observation()
	}
	return cfg
}

// keyUDF makes a client UDF body of a function of one BYTES argument.
func keyUDF(f func(key []byte) types.Value) func([]types.Value) (types.Value, error) {
	return func(args []types.Value) (types.Value, error) {
		key, err := args[0].Bytes()
		if err != nil {
			return types.Value{}, err
		}
		return f(key), nil
	}
}

var workloads = []*workload{
	{
		name:    "udf_semijoin_lan",
		why:     "duplicate UDF arguments over a fast link: semi-join, so operator, codec and client CPU set the latency",
		clients: 1,
		link:    &linkSpec{DownBytesPerSec: 40e6, UpBytesPerSec: 40e6, Delay: 200 * time.Microsecond},
		warmup:  40, traced: 40, smoke: 8,
		build: func(e *env, rng *rand.Rand) error {
			d, err := genEvents(rng, e.cat)
			if err != nil {
				return err
			}
			e.funcs = []*client.Func{{
				Name: "tag", ArgKinds: []types.Kind{types.KindBytes}, ResultKind: types.KindBytes,
				ResultSize: tagBytes + 2, PerCallCost: 1, Pure: true,
				Body: keyUDF(func(key []byte) types.Value { return types.NewBytes(tagUDF(key)) }),
			}}
			op := operation{text: "t(Id,T) :- events(Id,Key,_), udf tag(Key) as T.", stmt: -1, want: d.expectTagged()}
			e.next = func(int, int) (operation, error) { return op, nil }
			return nil
		},
	},
	{
		name:    "udf_clientjoin_asym",
		why:     "unique 512 B arguments and a selective pushable predicate over a 50:1 link: client-site join, so uplink bytes set the latency",
		clients: 2,
		link:    &linkSpec{DownBytesPerSec: 20e6, UpBytesPerSec: 0.4e6, Delay: 2 * time.Millisecond},
		warmup:  5, traced: 40, smoke: 2,
		build: func(e *env, rng *rand.Rand) error {
			d, err := genImgs(rng, e.cat)
			if err != nil {
				return err
			}
			keyArg := []types.Kind{types.KindBytes}
			e.funcs = []*client.Func{
				{
					Name: "rank", ArgKinds: keyArg, ResultKind: types.KindFloat,
					ResultSize: 9, Selectivity: 0.1, PerCallCost: 1, Pure: true,
					Body: keyUDF(func(key []byte) types.Value { return types.NewFloat(rankUDF(key)) }),
				},
				{
					Name: "render", ArgKinds: keyArg, ResultKind: types.KindBytes,
					ResultSize: renderBytes + 3, PerCallCost: 4, Pure: true,
					Body: keyUDF(func(key []byte) types.Value { return types.NewBytes(renderUDF(key)) }),
				},
			}
			op := operation{
				text: fmt.Sprintf("t(Id,R,Img) :- imgs(Id,_,Key,_), udf rank(Key) as R, udf render(Key) as Img, R < %d.", rankCutoff),
				stmt: -1, want: d.expectRanked(),
			}
			e.next = func(int, int) (operation, error) { return op, nil }
			return nil
		},
	},
	{
		name:    "scan_join_agg",
		why:     "UDF-free columnar scan, join and aggregate: no client site at all, the bypass for every link optimisation",
		clients: 1,
		warmup:  5, traced: 20, smoke: 3,
		build: func(e *env, rng *rand.Rand) error {
			rows := 400000
			if e.opts.smoke {
				rows = 40000
			}
			d, table, err := genFact(rng, e.cat, e.dir, rows)
			if err != nil {
				return err
			}
			e.closers = append(e.closers, func() { _ = table.Close() })
			width := int64(rows / 4)
			e.next = func(_, i int) (operation, error) {
				lo := int64(i) * 7919 % int64(rows/2)
				return operation{
					text: fmt.Sprintf("r(Tier,Region,sum(Qty) as Q,count(Ts) as N) :- fact(Ts,Cust,Region,Qty,_,_), cust(Cust,Tier,_), Ts >= %d, Ts < %d.", lo, lo+width),
					stmt: -1, want: d.expectRollup(lo, lo+width),
				}, nil
			}
			return nil
		},
	},
	{
		name:    "hot_rw",
		why:     "repeated range reads served from the version-keyed caches beside writes that invalidate them: hits set the median, miss-and-replan the tail",
		clients: 1,
		caches:  true,
		warmup:  hotShapes * 16, traced: 40, smoke: hotInsertEvery,
		build: func(e *env, rng *rand.Rand) error {
			table, err := genHot(e.cat)
			if err != nil {
				return err
			}
			model := newHotModel(hotRows, hotShapes, hotStride, hotSpan)
			for g := 0; g < hotShapes; g++ {
				lo := g * hotStride
				e.prepared = append(e.prepared, fmt.Sprintf("r(K,G,V) :- hot(K,G,V), K >= %d, K < %d.", lo, lo+hotSpan))
			}
			// Every block of hotShapes operations visits each shape once, in a
			// seeded order, so the share of operations that follow a write
			// without a cached answer is the same on every seed.
			var order []int
			e.next = func(_, i int) (operation, error) {
				if i%e.insertEvery == 0 {
					if err := e.insertHot(table, model, int64(rng.Intn(hotInsertMax))); err != nil {
						return operation{}, err
					}
				}
				for len(order) <= i {
					order = append(order, rng.Perm(hotShapes)...)
				}
				g := order[i]
				op := operation{text: e.prepared[g], stmt: -1, want: model.expect(g)}
				if i%2 == 0 {
					op.stmt = g
				}
				return op, nil
			}
			return nil
		},
	},
}

// hotInsertEvery is how often an operation of hot_rw is preceded by a write.
const hotInsertEvery = 64

// insertHot writes one row to the hot table, timing the write, and tells the
// model about it.
func (e *env) insertHot(table *storage.HeapTable, model *hotModel, k int64) error {
	start := time.Now()
	if err := table.Insert(hotRow(k)); err != nil {
		return err
	}
	e.insertNs += time.Since(start).Nanoseconds()
	e.inserts++
	model.insert(k)
	return nil
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
