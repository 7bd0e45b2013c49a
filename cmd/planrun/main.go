// Command planrun replays the paper's evaluation workloads end-to-end through
// the cost-based planner and checks its choices against the analytic winner
// from the deterministic simulator (internal/sim) — with no hand-supplied
// cost parameters anywhere:
//
//   - the relation is a real heap table whose records are sized like the
//     figure's workload; the planner samples it for I, A and D;
//   - the UDF metadata (result size R, predicate selectivity S) reaches the
//     server catalog through the client runtime's wire announcements;
//   - the network asymmetry N is measured by probing the same shaped link the
//     query then executes over.
//
// Each sweep varies one workload axis (the size of the returned data object
// for the Figure 10 sweep, the pushable-predicate selectivity for the
// Figure 8 and Figure 9 sweeps) and asserts that the planner's strategy flips
// at the same sample point as the simulator's winner, within one point of the
// crossover. The chosen operator is also executed over the shaped link and
// its row count verified.
//
// Usage:
//
//	go run ./cmd/planrun [-sweep figure10|figure8|figure9|all] [-timescale 2000] [-noexec] [-v]
package main

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"time"

	"csq/internal/catalog"
	"csq/internal/client"
	"csq/internal/demo"
	"csq/internal/exec"
	"csq/internal/expr"
	"csq/internal/logical"
	"csq/internal/netsim"
	"csq/internal/plan"
	"csq/internal/sim"
	"csq/internal/storage"
	"csq/internal/types"
)

// point is one sample of a sweep: the workload for the simulator and the
// matching physical setup for the planner.
type point struct {
	label       string
	argBytes    int
	nonArgBytes int
	resultBytes int
	selectivity float64
}

// sweep is one figure reproduction.
type sweep struct {
	name    string
	descr   string
	rows    int
	network sim.Network // simulator-side link
	link    netsim.LinkConfig
	points  []point
	// minN and maxN bracket the probe's measured asymmetry.
	minN, maxN float64
	// scaleDiv slows this sweep's link relative to the global -timescale so
	// that a very fast downlink stays measurable against scheduling noise.
	scaleDiv float64
	// probeBytes overrides the probe payload (0 selects the default).
	probeBytes int
}

// timescale returns the sweep's effective netsim time scale.
func (s sweep) timescale(global float64) float64 {
	if s.scaleDiv > 1 {
		return global / s.scaleDiv
	}
	return global
}

const valueHeader = 6 // encoded overhead of one bytes-valued column

func figure10Sweep() sweep {
	s := sweep{
		name:    "figure10",
		descr:   "result-object size sweep (I=500B, A=20%, S=0.5, symmetric modem)",
		rows:    100,
		network: sim.Modem28_8(),
		link:    netsim.Modem28_8(),
		minN:    0.5, maxN: 2,
	}
	for r := 200; r <= 2000; r += 200 {
		s.points = append(s.points, point{
			label:       fmt.Sprintf("R=%d", r),
			argBytes:    100,
			nonArgBytes: 400,
			resultBytes: r,
			selectivity: 0.5,
		})
	}
	return s
}

func figure8Sweep() sweep {
	s := sweep{
		name:    "figure8",
		descr:   "selectivity sweep (I=1000B, A=50%, R=2000B, symmetric modem)",
		rows:    100,
		network: sim.Modem28_8(),
		link:    netsim.Modem28_8(),
		minN:    0.5, maxN: 2,
	}
	for i := 1; i <= 10; i++ {
		s.points = append(s.points, point{
			label:       fmt.Sprintf("S=%.1f", float64(i)/10),
			argBytes:    500,
			nonArgBytes: 500,
			resultBytes: 2000,
			selectivity: float64(i) / 10,
		})
	}
	return s
}

func figure9Sweep() sweep {
	s := sweep{
		name:    "figure9",
		descr:   "selectivity sweep on the asymmetric link (N=100, I=5000B, A=80%, R=1000B)",
		rows:    100,
		network: sim.Asymmetric(3600, 100, 50*time.Millisecond),
		link:    netsim.AsymmetricCable(100),
		minN:    20, maxN: 500,
		// The N=100 downlink would run at hundreds of MB/s under the default
		// scale, drowning the shaping in pipe overhead; slow this sweep down
		// and probe with a larger payload.
		scaleDiv:   10,
		probeBytes: 256 << 10,
	}
	for i := 1; i <= 10; i++ {
		s.points = append(s.points, point{
			label:       fmt.Sprintf("S=%.1f", float64(i)/10),
			argBytes:    4000,
			nonArgBytes: 1000,
			resultBytes: 1000,
			selectivity: float64(i) / 10,
		})
	}
	return s
}

// simWinner runs the simulator on the point's workload and returns the
// analytically faster strategy.
func simWinner(s sweep, pt point) (plan.Strategy, error) {
	w := sim.Workload{
		Rows:               s.rows,
		ArgBytes:           pt.argBytes,
		NonArgBytes:        pt.nonArgBytes,
		ResultBytes:        pt.resultBytes,
		DistinctFraction:   1,
		Selectivity:        pt.selectivity,
		ReturnArguments:    false,
		ClientTimePerTuple: 2 * time.Millisecond,
		PerMessageOverhead: 26,
	}
	_, _, rel, err := sim.Compare(s.network, w, sim.DefaultFigureConcurrency)
	if err != nil {
		return 0, err
	}
	if rel < 1 {
		return plan.StrategyClientJoin, nil
	}
	return plan.StrategySemiJoin, nil
}

// buildRows materialises the point's relation: every argument distinct (the
// figures set D=1), record sizes matching the workload exactly, and the row
// index embedded in the argument so the Keep UDF can realise the configured
// selectivity deterministically.
func buildRows(s sweep, pt point) []types.Tuple {
	rows := make([]types.Tuple, s.rows)
	for i := range rows {
		arg := make([]byte, pt.argBytes-valueHeader)
		binary.LittleEndian.PutUint32(arg, uint32(i))
		extra := make([]byte, pt.nonArgBytes-valueHeader)
		rows[i] = types.NewTuple(types.NewBytes(arg), types.NewBytes(extra))
	}
	return rows
}

// newRuntime hosts the point's two client UDFs: Produce returns the derived
// data object of the configured size, Keep is the pushable predicate with the
// configured selectivity (deterministic in the row index carried by the
// argument).
func newRuntime(pt point) (*client.Runtime, error) {
	rt := client.NewRuntime()
	if err := rt.Register(&client.Func{
		Name:       "Produce",
		ArgKinds:   []types.Kind{types.KindBytes},
		ResultKind: types.KindBytes,
		ResultSize: pt.resultBytes,
		Body: func(args []types.Value) (types.Value, error) {
			return types.NewBytes(make([]byte, pt.resultBytes-valueHeader)), nil
		},
	}); err != nil {
		return nil, err
	}
	sel := pt.selectivity
	if err := rt.Register(&client.Func{
		Name:        "Keep",
		ArgKinds:    []types.Kind{types.KindBytes},
		ResultKind:  types.KindBool,
		ResultSize:  3,
		Selectivity: sel,
		Body: func(args []types.Value) (types.Value, error) {
			b, err := args[0].Bytes()
			if err != nil {
				return types.Value{}, err
			}
			idx := binary.LittleEndian.Uint32(b)
			return types.NewBool(float64(idx%100) < sel*100), nil
		},
	}); err != nil {
		return nil, err
	}
	return rt, nil
}

// expectedRows is how many rows the query should deliver under the point's
// deterministic Keep predicate.
func expectedRows(s sweep, pt point) int {
	n := 0
	for i := 0; i < s.rows; i++ {
		if float64(i%100) < pt.selectivity*100 {
			n++
		}
	}
	return n
}

// pointQuery is one sweep point's planner input: the client runtime hosting
// the point's UDFs, a catalog holding the point's heap table and the
// runtime's announced UDF metadata, and the query's logical tree.
type pointQuery struct {
	rt   *client.Runtime
	cat  *catalog.Catalog
	tree logical.Node
}

// newPointQuery builds the point's relation, runtime, catalog and query tree.
func newPointQuery(s sweep, pt point) (*pointQuery, error) {
	schema := types.NewSchema(
		types.Column{Name: "Arg", Kind: types.KindBytes},
		types.Column{Name: "Extra", Kind: types.KindBytes},
	)
	table, err := storage.NewHeapTable("objects", schema)
	if err != nil {
		return nil, err
	}
	if err := table.InsertBatch(buildRows(s, pt)); err != nil {
		return nil, err
	}
	catTable := &catalog.Table{Name: "objects", Schema: schema, Stats: table.Stats(), Data: table}
	cat := catalog.New()
	if err := cat.AddTable(catTable); err != nil {
		return nil, err
	}
	rt, err := newRuntime(pt)
	if err != nil {
		return nil, err
	}
	if err := demo.Announce(rt, cat); err != nil {
		return nil, err
	}
	scan, err := logical.NewScan(catTable, "")
	if err != nil {
		return nil, err
	}
	udfs := []exec.UDFBinding{
		{Name: "Produce", ArgOrdinals: []int{0}, ResultKind: types.KindBytes},
		{Name: "Keep", ArgOrdinals: []int{0}, ResultKind: types.KindBool},
	}
	// Extended schema: 0 Arg, 1 Extra, 2 Produce, 3 Keep. The pushable
	// predicate keeps qualifying rows; the pushable projection returns the
	// non-argument column plus the produced object, i.e. P·(I+R) = I·(1−A)+R
	// as in the figures.
	tree, err := logical.NewApplyQuery(scan, nil, udfs, expr.NewBoundColumnRef(3, types.KindBool), []int{1, 2})
	if err != nil {
		return nil, err
	}
	return &pointQuery{rt: rt, cat: cat, tree: tree}, nil
}

// runPoint plans (and optionally executes) one sweep point, returning the
// planner's decision and the executed operator's link traffic (zero with
// -noexec).
func runPoint(s sweep, pt point, link *exec.LinkObservation, timescale float64, execute bool) (*plan.Decision, exec.NetStats, error) {
	pq, err := newPointQuery(s, pt)
	if err != nil {
		return nil, exec.NetStats{}, err
	}
	cfg := s.link
	cfg.TimeScale = s.timescale(timescale)
	planner := plan.NewPlanner(exec.NewInProcessLink(pq.rt, cfg))
	planner.Config.Link = link

	tp, err := planner.PlanTree(context.Background(), pq.tree, pq.cat)
	if err != nil {
		return nil, exec.NetStats{}, err
	}
	d := tp.Applies[0].Decision
	var traffic exec.NetStats
	if execute {
		op, err := tp.NewOperator()
		if err != nil {
			return nil, exec.NetStats{}, err
		}
		got, err := exec.Collect(context.Background(), op)
		if err != nil {
			return nil, exec.NetStats{}, fmt.Errorf("executing %s: %w", d.Strategy, err)
		}
		if want := expectedRows(s, pt); len(got) != want {
			return nil, exec.NetStats{}, fmt.Errorf("%s returned %d rows, want %d", d.Strategy, len(got), want)
		}
		traffic = exec.NetStatsOf(op)
	}
	return d, traffic, nil
}

// checkSweep verifies the planner's choices against the simulator's winners:
// a disagreement is tolerated only at a point adjacent to a winner flip in
// the simulator's own series ("within one sample point of the crossover").
func checkSweep(s sweep, simW, planW []plan.Strategy) []string {
	var problems []string
	flipAdjacent := func(i int) bool {
		if i > 0 && simW[i] != simW[i-1] {
			return true
		}
		if i+1 < len(simW) && simW[i] != simW[i+1] {
			return true
		}
		return false
	}
	for i := range simW {
		if planW[i] != simW[i] && !flipAdjacent(i) {
			problems = append(problems,
				fmt.Sprintf("%s %s: planner chose %s, simulator winner is %s (not at a crossover)",
					s.name, s.points[i].label, planW[i], simW[i]))
		}
	}
	return problems
}

func hasFlip(ws []plan.Strategy) bool {
	for i := 1; i < len(ws); i++ {
		if ws[i] != ws[i-1] {
			return true
		}
	}
	return false
}

func main() {
	sweepName := flag.String("sweep", "all", "figure10, figure8, figure9 or all")
	timescale := flag.Float64("timescale", 2000, "netsim time scale (shaping runs this much faster than nominal)")
	noexec := flag.Bool("noexec", false, "skip executing the planned operators; plan only")
	explain := flag.Bool("explain", false, "print the logical, rewritten and physical plan for a Figure-8 workload and exit")
	query := flag.String("query", "", "compile and run a textual query (docs/QUERYLANG.md) against the demo dataset; with -explain, print its plans instead")
	repeat := flag.Int("repeat", 1, "with -query: run it this many times through a caching service, printing per-run wall time and plan/result cache hits")
	verbose := flag.Bool("v", false, "print every sample point")
	flag.Parse()

	if *query != "" {
		var out string
		var err error
		switch {
		case *explain:
			out, err = explainQuery(*query)
		case *repeat > 1:
			out, err = runQueryRepeat(*query, *repeat)
		default:
			out, err = runQuery(*query)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
		return
	}

	if *explain {
		out, err := explainFigure8()
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
		return
	}

	sweeps := []sweep{}
	switch *sweepName {
	case "figure10":
		sweeps = append(sweeps, figure10Sweep())
	case "figure8":
		sweeps = append(sweeps, figure8Sweep())
	case "figure9":
		sweeps = append(sweeps, figure9Sweep())
	case "all":
		sweeps = append(sweeps, figure10Sweep(), figure8Sweep(), figure9Sweep())
	default:
		fmt.Fprintf(os.Stderr, "planrun: unknown sweep %q\n", *sweepName)
		os.Exit(2)
	}

	failed := false
	for _, s := range sweeps {
		// Probe the sweep's link once; every point of a sweep shares the
		// physical network, as in the paper's testbed.
		probeRT, err := newRuntime(s.points[0])
		if err != nil {
			fatal(err)
		}
		cfg := s.link
		cfg.TimeScale = s.timescale(*timescale)
		obs, err := exec.ProbeAsymmetry(context.Background(), exec.NewInProcessLink(probeRT, cfg), s.probeBytes)
		if err != nil {
			fatal(fmt.Errorf("%s: probe: %w", s.name, err))
		}
		fmt.Printf("%s: %s\n", s.name, s.descr)
		fmt.Printf("  probed link: N=%.2f (down %.0f B/s, up %.0f B/s at scale %g)\n",
			obs.Asymmetry, obs.DownBytesPerSec, obs.UpBytesPerSec, cfg.TimeScale)
		if obs.Asymmetry < s.minN || obs.Asymmetry > s.maxN {
			fmt.Printf("  FAIL: measured asymmetry %.2f outside expected [%g, %g]\n", obs.Asymmetry, s.minN, s.maxN)
			failed = true
			continue
		}

		simW := make([]plan.Strategy, len(s.points))
		planW := make([]plan.Strategy, len(s.points))
		traffic := map[plan.Strategy]exec.NetStats{}
		points := map[plan.Strategy]int{}
		for i, pt := range s.points {
			if simW[i], err = simWinner(s, pt); err != nil {
				fatal(err)
			}
			d, tr, err := runPoint(s, pt, &obs, *timescale, !*noexec)
			if err != nil {
				fatal(fmt.Errorf("%s %s: %w", s.name, pt.label, err))
			}
			planW[i] = d.Strategy
			total := traffic[d.Strategy]
			total.Add(tr)
			traffic[d.Strategy] = total
			points[d.Strategy]++
			if *verbose {
				match := "match"
				if planW[i] != simW[i] {
					match = "MISMATCH"
				}
				fmt.Printf("  %-8s sim=%-16s plan=%-16s D=%.2f S=%.2f I=%.0f R=%.0f T=%d down=%dB up=%dB  %s\n",
					pt.label, simW[i], planW[i],
					d.Params.DistinctFraction, d.Params.Selectivity,
					d.Params.InputSize, d.Params.ResultSize,
					d.Sessions, tr.BytesDown, tr.BytesUp, match)
			}
		}
		if !*noexec {
			// Per-strategy link traffic of the executed plans: the end-to-end
			// bandwidth picture the byte-level optimisations (batching,
			// deduplication) show up in.
			for _, st := range []plan.Strategy{plan.StrategySemiJoin, plan.StrategyClientJoin, plan.StrategyNaive} {
				if points[st] == 0 {
					continue
				}
				tr := traffic[st]
				fmt.Printf("  traffic[%s]: %d points, %d B down / %d B up (%d frames, %d invocations)\n",
					st, points[st], tr.BytesDown, tr.BytesUp, tr.Messages, tr.Invocations)
			}
		}
		problems := checkSweep(s, simW, planW)
		for _, p := range problems {
			fmt.Printf("  FAIL: %s\n", p)
			failed = true
		}
		if !hasFlip(simW) {
			fmt.Printf("  FAIL: simulator series has no strategy crossover — sweep misconfigured\n")
			failed = true
		} else if !hasFlip(planW) {
			fmt.Printf("  FAIL: planner never flips strategy across the sweep\n")
			failed = true
		}
		matches := 0
		for i := range simW {
			if simW[i] == planW[i] {
				matches++
			}
		}
		fmt.Printf("  planner matched the simulator's winner at %d/%d points\n", matches, len(s.points))
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("planrun: all sweeps reproduce the analytic strategy crossover")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "planrun: %v\n", err)
	os.Exit(1)
}
