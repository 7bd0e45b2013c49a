package sim

import (
	"fmt"
	"time"
)

// This file parameterises the simulator with the exact setups of the paper's
// evaluation section. Each FigureN function regenerates one figure's curves;
// the package's tests (TestFigure2, TestFigure8Shape, ...) regenerate every
// figure and check the shape the paper reports.

// Point is one (x, y) sample of a figure's series.
type Point struct {
	X float64
	Y float64
}

// Series is one labelled curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Figure is a regenerated figure: a set of curves plus axis descriptions.
type Figure struct {
	Name   string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Figure6Workload is the setup of the concurrency experiment (Section 4.1):
// "Relation is a table of 100 DataObjects, each of the same size. UDF is a
// simple function that returns another object of the same size", over the
// 28.8 Kbit connection.
func Figure6Workload(objectBytes int) Workload {
	return Workload{
		Rows:               100,
		ArgBytes:           objectBytes,
		NonArgBytes:        1, // the record is essentially just the object
		ResultBytes:        objectBytes,
		DistinctFraction:   1,
		Selectivity:        1,
		ClientTimePerTuple: 2 * time.Millisecond,
		PerMessageOverhead: 26,
	}
}

// Figure6 regenerates "Effect of Concurrency": total execution time of
// SELECT UDF(R.DataObject) FROM Relation R against the pipeline concurrency
// factor, for object sizes 100, 500 and 1000 bytes.
func Figure6(maxConcurrency int) (Figure, error) {
	if maxConcurrency < 1 {
		maxConcurrency = 21
	}
	fig := Figure{
		Name:   "figure6",
		Title:  "Effect of the pipeline concurrency factor (28.8 Kbit link, 100 rows)",
		XLabel: "pipeline concurrency factor",
		YLabel: "execution time (ms)",
	}
	net := Modem28_8()
	for _, objectBytes := range []int{100, 500, 1000} {
		s := Series{Label: fmt.Sprintf("%d bytes", objectBytes)}
		w := Figure6Workload(objectBytes)
		for factor := 1; factor <= maxConcurrency; factor++ {
			res, err := Run(Config{Network: net, Workload: w, Strategy: StrategySemiJoin, ConcurrencyFactor: factor})
			if err != nil {
				return Figure{}, err
			}
			s.Points = append(s.Points, Point{X: float64(factor), Y: float64(res.Duration.Milliseconds())})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Figure2 regenerates the timeline contrast of Figure 2: naive
// (non-concurrent) execution versus concurrent execution with a factor of 5,
// for the Figure 6 workload with 1000-byte objects.
func Figure2() (Figure, error) {
	fig := Figure{
		Name:   "figure2",
		Title:  "Naive (concurrency 1) versus concurrent (factor 5) execution",
		XLabel: "strategy (1 = naive, 5 = concurrency factor 5)",
		YLabel: "execution time (ms)",
	}
	net := Modem28_8()
	w := Figure6Workload(1000)
	s := Series{Label: "1000-byte objects"}
	for _, factor := range []int{1, 5} {
		res, err := Run(Config{Network: net, Workload: w, Strategy: StrategySemiJoin, ConcurrencyFactor: factor})
		if err != nil {
			return Figure{}, err
		}
		s.Points = append(s.Points, Point{X: float64(factor), Y: float64(res.Duration.Milliseconds())})
	}
	fig.Series = append(fig.Series, s)
	return fig, nil
}

// figure7Workload is the measured query of Figure 7 shared by the Figure 8
// and Figure 9 experiments: two data objects per row, UDF1 a pushable
// predicate of varying selectivity, UDF2 returning a result of known size,
// with P·(I+R) = I·(1−A)+R (arguments are never returned).
func figure7Workload(rows, argBytes, nonArgBytes, resultBytes int, selectivity float64) Workload {
	return Workload{
		Rows:               rows,
		ArgBytes:           argBytes,
		NonArgBytes:        nonArgBytes,
		ResultBytes:        resultBytes,
		DistinctFraction:   1, // "In this, as in all other experiments, we set D=1."
		Selectivity:        selectivity,
		ReturnArguments:    false,
		ClientTimePerTuple: 2 * time.Millisecond,
		PerMessageOverhead: 26,
	}
}

// Figure8 regenerates "Client-Site Join versus Semi-Join on a Symmetric
// Network": relative time (CSJ/SJ) against the selectivity of UDF1, for
// result sizes 100, 1000, 2000 and 5000 bytes. I = 1000 bytes, A = 50%.
func Figure8(points int) (Figure, error) {
	if points < 2 {
		points = 11
	}
	fig := Figure{
		Name:   "figure8",
		Title:  "Client-site join vs semi-join, symmetric network (I=1000B, A=50%)",
		XLabel: "selectivity of the pushable predicate",
		YLabel: "relative time (CSJ/SJ)",
	}
	net := Modem28_8()
	for _, resultBytes := range []int{100, 1000, 2000, 5000} {
		s := Series{Label: fmt.Sprintf("%d bytes", resultBytes)}
		for i := 0; i < points; i++ {
			sel := float64(i) / float64(points-1)
			w := figure7Workload(100, 500, 500, resultBytes, sel)
			_, _, rel, err := Compare(net, w, DefaultFigureConcurrency)
			if err != nil {
				return Figure{}, err
			}
			s.Points = append(s.Points, Point{X: sel, Y: rel})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// DefaultFigureConcurrency is the semi-join concurrency factor used when
// regenerating the comparison figures; it is large enough that latency is
// fully hidden on the simulated links, as in the paper's threaded
// implementation.
const DefaultFigureConcurrency = 32

// Figure9 regenerates the asymmetric-network comparison (N=100): relative
// time against selectivity for result sizes 500, 1000 and 5000 bytes.
// I = 5000 bytes with A = 80% (4000-byte arguments, 1000-byte non-arguments).
func Figure9(points int) (Figure, error) {
	if points < 2 {
		points = 11
	}
	fig := Figure{
		Name:   "figure9",
		Title:  "Client-site join vs semi-join, asymmetric network (N=100, I=5000B, A=80%)",
		XLabel: "selectivity of the pushable predicate",
		YLabel: "relative time (CSJ/SJ)",
	}
	net := Asymmetric(3600, 100, 50*time.Millisecond)
	for _, resultBytes := range []int{500, 1000, 5000} {
		s := Series{Label: fmt.Sprintf("%d bytes", resultBytes)}
		for i := 0; i < points; i++ {
			sel := float64(i) / float64(points-1)
			w := figure7Workload(100, 4000, 1000, resultBytes, sel)
			_, _, rel, err := Compare(net, w, DefaultFigureConcurrency)
			if err != nil {
				return Figure{}, err
			}
			s.Points = append(s.Points, Point{X: sel, Y: rel})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Figure10 regenerates "Influence of the Result Size": relative time against
// the result size (0..2000 bytes) for selectivities 25%, 50%, 75% and 100%.
// The arguments are 100 bytes of a 500-byte record; the network is symmetric.
func Figure10(step int) (Figure, error) {
	if step < 1 {
		step = 200
	}
	fig := Figure{
		Name:   "figure10",
		Title:  "Influence of the result size (I=500B, A=20%, symmetric network)",
		XLabel: "result size (bytes)",
		YLabel: "relative time (CSJ/SJ)",
	}
	net := Modem28_8()
	for _, sel := range []float64{0.25, 0.5, 0.75, 1.0} {
		s := Series{Label: fmt.Sprintf("%.2f", sel)}
		for r := 0; r <= 2000; r += step {
			w := figure7Workload(100, 100, 400, r, sel)
			_, _, rel, err := Compare(net, w, DefaultFigureConcurrency)
			if err != nil {
				return Figure{}, err
			}
			s.Points = append(s.Points, Point{X: float64(r), Y: rel})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// AblationDuplicates sweeps the distinct-argument fraction D (Section 3.2.2):
// the semi-join exploits argument duplicates while the client-site join
// cannot, so the relative time should fall as duplicates disappear (D→1) and
// rise as they multiply (D→0).
func AblationDuplicates(points int) (Figure, error) {
	if points < 2 {
		points = 10
	}
	fig := Figure{
		Name:   "ablation-duplicates",
		Title:  "Effect of argument duplicates (D sweep) on CSJ/SJ",
		XLabel: "distinct-argument fraction D",
		YLabel: "relative time (CSJ/SJ)",
	}
	net := Modem28_8()
	s := Series{Label: "R=1000B, S=0.5"}
	for i := 1; i <= points; i++ {
		d := float64(i) / float64(points)
		w := figure7Workload(100, 500, 500, 1000, 0.5)
		w.DistinctFraction = d
		_, _, rel, err := Compare(net, w, DefaultFigureConcurrency)
		if err != nil {
			return Figure{}, err
		}
		s.Points = append(s.Points, Point{X: d, Y: rel})
	}
	fig.Series = append(fig.Series, s)
	return fig, nil
}

// AblationProjection sweeps the pushable-projection effectiveness: it
// compares the client-site join with and without returning the argument
// columns, showing how much uplink bandwidth the pushable projection saves.
func AblationProjection(points int) (Figure, error) {
	if points < 2 {
		points = 11
	}
	fig := Figure{
		Name:   "ablation-projection",
		Title:  "Pushable projection: CSJ with vs without argument projection",
		XLabel: "selectivity of the pushable predicate",
		YLabel: "relative time (CSJ/SJ)",
	}
	net := Modem28_8()
	for _, returnArgs := range []bool{false, true} {
		label := "arguments projected away"
		if returnArgs {
			label = "arguments returned"
		}
		s := Series{Label: label}
		for i := 0; i < points; i++ {
			sel := float64(i) / float64(points-1)
			w := figure7Workload(100, 500, 500, 1000, sel)
			w.ReturnArguments = returnArgs
			_, _, rel, err := Compare(net, w, DefaultFigureConcurrency)
			if err != nil {
				return Figure{}, err
			}
			s.Points = append(s.Points, Point{X: sel, Y: rel})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}
