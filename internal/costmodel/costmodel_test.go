package costmodel

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

// figure8Params reproduces the setup of Figure 8: I = 1000 bytes, A = 50%,
// D = 1, symmetric network, P chosen so that P·(I+R) = I·(1−A)+R.
func figure8Params(resultSize, selectivity float64) Params {
	i := 1000.0
	a := 0.5
	p := (i*(1-a) + resultSize) / (i + resultSize)
	return Params{
		Rows:               100,
		InputSize:          i,
		ArgFraction:        a,
		DistinctFraction:   1,
		Selectivity:        selectivity,
		ProjectionFraction: p,
		ResultSize:         resultSize,
		Asymmetry:          1,
	}
}

// figure9Params reproduces Figure 9: I = 5000 bytes, A = 80%, N = 100.
func figure9Params(resultSize, selectivity float64) Params {
	i := 5000.0
	a := 0.8
	p := (i*(1-a) + resultSize) / (i + resultSize)
	return Params{
		Rows:               100,
		InputSize:          i,
		ArgFraction:        a,
		DistinctFraction:   1,
		Selectivity:        selectivity,
		ProjectionFraction: p,
		ResultSize:         resultSize,
		Asymmetry:          100,
	}
}

func TestValidate(t *testing.T) {
	good := figure8Params(1000, 0.5)
	if err := good.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	bad := []Params{
		{Rows: -1, InputSize: 1, ArgFraction: 0.5, DistinctFraction: 1, Selectivity: 1, ProjectionFraction: 1, Asymmetry: 1},
		{InputSize: 0, ArgFraction: 0.5, DistinctFraction: 1, Selectivity: 1, ProjectionFraction: 1, Asymmetry: 1},
		{InputSize: 1, ArgFraction: 0, DistinctFraction: 1, Selectivity: 1, ProjectionFraction: 1, Asymmetry: 1},
		{InputSize: 1, ArgFraction: 0.5, DistinctFraction: 1.5, Selectivity: 1, ProjectionFraction: 1, Asymmetry: 1},
		{InputSize: 1, ArgFraction: 0.5, DistinctFraction: 1, Selectivity: 2, ProjectionFraction: 1, Asymmetry: 1},
		{InputSize: 1, ArgFraction: 0.5, DistinctFraction: 1, Selectivity: 1, ProjectionFraction: -0.1, Asymmetry: 1},
		{InputSize: 1, ArgFraction: 0.5, DistinctFraction: 1, Selectivity: 1, ProjectionFraction: 1, ResultSize: -1, Asymmetry: 1},
		{InputSize: 1, ArgFraction: 0.5, DistinctFraction: 1, Selectivity: 1, ProjectionFraction: 1, Asymmetry: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestStrategyString(t *testing.T) {
	if StrategySemiJoin.String() != "semi-join" || StrategyClientJoin.String() != "client-site-join" {
		t.Error("strategy names wrong")
	}
}

func TestPaperFormulas(t *testing.T) {
	// Spot-check against the paper's formulas with hand-computed numbers.
	p := Params{
		Rows: 100, InputSize: 1000, ArgFraction: 0.5, DistinctFraction: 0.8,
		Selectivity: 0.6, ProjectionFraction: 0.7, ResultSize: 200, Asymmetry: 10,
	}
	sj := SemiJoinCost(p)
	if math.Abs(sj.Downlink-0.8*0.5*1000) > 1e-9 {
		t.Errorf("semi-join downlink = %g, want %g", sj.Downlink, 0.8*0.5*1000)
	}
	if math.Abs(sj.Uplink-10*0.8*200) > 1e-9 {
		t.Errorf("semi-join uplink = %g, want %g", sj.Uplink, 10.0*0.8*200)
	}
	cj := ClientJoinCost(p)
	if math.Abs(cj.Downlink-1000) > 1e-9 {
		t.Errorf("client-join downlink = %g, want 1000", cj.Downlink)
	}
	want := 10 * 0.6 * (1000 + 200) * 0.7
	if math.Abs(cj.Uplink-want) > 1e-9 {
		t.Errorf("client-join uplink = %g, want %g", cj.Uplink, want)
	}
	if Cost(StrategySemiJoin, p) != sj || Cost(StrategyClientJoin, p) != cj {
		t.Error("Cost dispatch wrong")
	}
	// Bottleneck picks the max.
	if sj.Bottleneck() != sj.Uplink {
		t.Errorf("semi-join bottleneck should be the uplink here")
	}
	down, up, err := TotalBytes(StrategySemiJoin, p)
	if err != nil {
		t.Fatalf("TotalBytes: %v", err)
	}
	if math.Abs(down-sj.Downlink*100) > 1e-9 || math.Abs(up-0.8*200*100) > 1e-9 {
		t.Errorf("TotalBytes = %g, %g", down, up)
	}
}

// TestDecideValidates pins the regression where zero-valued Asymmetry or
// DistinctFraction slipped through to the cost formulas and produced NaN (via
// TotalBytes' division by N) or silently-zero costs instead of an error.
func TestDecideValidates(t *testing.T) {
	p := figure8Params(1000, 0.5)
	s, sj, cj, err := Decide(p)
	if err != nil {
		t.Fatalf("Decide rejected valid params: %v", err)
	}
	if ws, wsj, wcj := Choose(p); s != ws || sj != wsj || cj != wcj {
		t.Error("Decide disagrees with Choose on valid params")
	}

	zeroAsym := p
	zeroAsym.Asymmetry = 0
	if _, _, _, err := Decide(zeroAsym); err == nil {
		t.Error("Decide accepted zero asymmetry")
	}
	if _, _, err := TotalBytes(StrategySemiJoin, zeroAsym); err == nil {
		t.Error("TotalBytes accepted zero asymmetry (would be NaN)")
	}

	zeroDistinct := p
	zeroDistinct.DistinctFraction = 0
	if _, _, _, err := Decide(zeroDistinct); err == nil {
		t.Error("Decide accepted zero distinct fraction")
	}

	// The validated path never returns non-finite costs for any accepted input.
	if math.IsNaN(sj.Bottleneck()) || math.IsNaN(cj.Bottleneck()) ||
		math.IsInf(sj.Bottleneck(), 0) || math.IsInf(cj.Bottleneck(), 0) {
		t.Errorf("Decide returned non-finite costs: %+v %+v", sj, cj)
	}
}

// TestFigure8Shape verifies the qualitative behaviour the paper reports for
// the symmetric network (Figure 8): each curve is flat while the downlink is
// the CSJ bottleneck, then rises linearly; larger results push the knee to
// lower selectivities and deepen the flat part.
func TestFigure8Shape(t *testing.T) {
	for _, r := range []float64{100, 1000, 2000, 5000} {
		atZero := relativeTime(figure8Params(r, 0))
		atOne := relativeTime(figure8Params(r, 1))
		if atOne < atZero {
			t.Errorf("R=%g: relative time should not decrease with selectivity (%.3f -> %.3f)", r, atZero, atOne)
		}
	}
	// Larger result sizes make the CSJ relatively cheaper at low selectivity
	// (deeper flat part).
	if !(relativeTime(figure8Params(5000, 0.1)) < relativeTime(figure8Params(1000, 0.1))) {
		t.Error("larger results should favour the client-site join at low selectivity")
	}
	// The paper reports the knee for R=1000 at about S=0.6: below it the
	// curve is flat (downlink-bound), above it it grows.
	flatA := relativeTime(figure8Params(1000, 0.2))
	flatB := relativeTime(figure8Params(1000, 0.5))
	rising := relativeTime(figure8Params(1000, 0.9))
	if math.Abs(flatA-flatB) > 1e-9 {
		t.Errorf("R=1000 curve should be flat below the knee: %.3f vs %.3f", flatA, flatB)
	}
	if rising <= flatB {
		t.Errorf("R=1000 curve should rise beyond the knee: %.3f vs %.3f", rising, flatB)
	}
	knee := crossoverSelectivity(figure8Params(1000, 0))
	if knee < 0.5 || knee > 0.8 {
		t.Errorf("R=1000 knee at selectivity %.3f, paper reports ≈0.6", knee)
	}
	// For the 2000-byte curve the flat level is about 0.5 (1000 bytes on the
	// semi-join downlink vs 2000 on its uplink), per the paper's discussion.
	level := relativeTime(figure8Params(2000, 0.1))
	if math.Abs(level-0.5) > 0.1 {
		t.Errorf("R=2000 flat level = %.3f, paper reports ≈0.5", level)
	}
}

// TestFigure9Shape verifies the asymmetric-network behaviour (Figure 9): with
// N=100 the downlink never forms the bottleneck, so the relative time rises
// essentially linearly from very small selectivities.
func TestFigure9Shape(t *testing.T) {
	for _, r := range []float64{500, 1000, 5000} {
		knee := crossoverSelectivity(figure9Params(r, 0))
		if knee > 0.05 {
			t.Errorf("R=%g: knee at %.4f; with N=100 the flat part should be almost absent", r, knee)
		}
		// Linearity: f(0.8) ≈ 2·f(0.4) once uplink-bound.
		f4 := relativeTime(figure9Params(r, 0.4))
		f8 := relativeTime(figure9Params(r, 0.8))
		if math.Abs(f8/f4-2) > 0.05 {
			t.Errorf("R=%g: relative time not linear in selectivity: f(0.8)/f(0.4) = %.3f", r, f8/f4)
		}
	}
	// The paper's prediction for the lowest curve (R=5000): downlink becomes
	// the bottleneck only below S ≈ I/(N·P·(R+I)) = 0.0083.
	knee := crossoverSelectivity(figure9Params(5000, 0))
	if math.Abs(knee-0.0083) > 0.002 {
		t.Errorf("R=5000 knee = %.4f, paper predicts ≈0.0083", knee)
	}
}

// TestFigure10Shape verifies the result-size experiment (Figure 10): curves
// fall steeply with R, cross 1.0 where S·(I·(1−A)+R) = R, approach S
// asymptotically, and the S=1 curve never crosses 1.0.
func TestFigure10Shape(t *testing.T) {
	params := func(r, s float64) Params {
		i := 500.0
		a := 0.2 // 100-byte arguments of a 500-byte record
		p := (i*(1-a) + r) / (i + r)
		return Params{
			Rows: 100, InputSize: i, ArgFraction: a, DistinctFraction: 1,
			Selectivity: s, ProjectionFraction: p, ResultSize: r, Asymmetry: 1,
		}
	}
	for _, s := range []float64{0.25, 0.5, 0.75} {
		// Decreasing in R.
		prev := math.Inf(1)
		for _, r := range []float64{50, 200, 800, 2000} {
			v := relativeTime(params(r, s))
			if v > prev+1e-9 {
				t.Errorf("S=%g: relative time should fall with result size (R=%g: %.3f > %.3f)", s, r, v, prev)
			}
			prev = v
		}
		// Asymptotically approaches S for very large results.
		asym := relativeTime(params(1e7, s))
		if math.Abs(asym-s) > 0.05 {
			t.Errorf("S=%g: asymptote = %.3f, want ≈%g", s, asym, s)
		}
		// Crossover: in the uplink-bound regime where S·(I·(1−A)+R) = R, i.e.
		// R = S·I·(1−A)/(1−S) (the paper's observation); the client-site
		// join's downlink floor of I bytes caps how early it can happen.
		rCross := math.Max(s*500*0.8/(1-s), 500)
		below := relativeTime(params(rCross*0.8, s))
		above := relativeTime(params(rCross*1.3, s))
		if !(below > 1 && above < 1) {
			t.Errorf("S=%g: crossover around R=%.0f not observed (%.3f, %.3f)", s, rCross, below, above)
		}
	}
	// The S=1 curve never crosses the 1.0 line.
	for _, r := range []float64{10, 500, 2000, 100000} {
		if relativeTime(params(r, 1)) < 1 {
			t.Errorf("S=1 curve crossed 1.0 at R=%g", r)
		}
	}
}

func TestChoose(t *testing.T) {
	// High selectivity and asymmetric network: semi-join should win.
	s, sj, cj := Choose(figure9Params(500, 0.9))
	if s != StrategySemiJoin {
		t.Errorf("expected semi-join, got %s (sj=%v cj=%v)", s, sj, cj)
	}
	// Very selective pushable predicate on a symmetric network with large
	// results: client-site join should win.
	s, _, _ = Choose(figure8Params(5000, 0.05))
	if s != StrategyClientJoin {
		t.Errorf("expected client-site join, got %s", s)
	}
}

func TestRelativeTimeDegenerate(t *testing.T) {
	p := figure8Params(0, 0.5)
	p.ResultSize = 0
	p.ArgFraction = 1e-12
	// Semi-join cost collapses towards zero; relative time explodes but must
	// not panic.
	if v := relativeTime(Params{
		Rows: 1, InputSize: 1, ArgFraction: 1, DistinctFraction: 1e-300,
		Selectivity: 1, ProjectionFraction: 1, ResultSize: 0, Asymmetry: 1,
	}); !math.IsInf(v, 1) && v <= 0 {
		t.Errorf("degenerate relative time = %g", v)
	}
	if !math.IsInf(crossoverSelectivity(Params{InputSize: 1, Asymmetry: 1}), 1) {
		t.Error("crossover with zero denominator should be +Inf")
	}
}

func TestPipelineModel(t *testing.T) {
	// The Figure 6 setup: 28.8 Kbit/s ≈ 3600 B/s both ways, 1000-byte
	// objects in both directions. The paper observes the optimal concurrency
	// at ≈5 for 1000-byte objects and ≈10 for 500-byte objects, i.e. a
	// bandwidth·latency product of about 5000 bytes.
	mk := func(objBytes float64) PipelineParams {
		return PipelineParams{
			DownBandwidth: 3600,
			UpBandwidth:   3600,
			Latency:       700 * time.Millisecond,
			ArgBytes:      objBytes,
			ResultBytes:   objBytes,
		}
	}
	w1000 := OptimalConcurrency(mk(1000))
	w500 := OptimalConcurrency(mk(500))
	w100 := OptimalConcurrency(mk(100))
	if w1000 < 3 || w1000 > 8 {
		t.Errorf("optimal concurrency for 1000-byte objects = %d, paper observes ≈5", w1000)
	}
	if w500 < 7 || w500 > 14 {
		t.Errorf("optimal concurrency for 500-byte objects = %d, paper observes ≈10", w500)
	}
	if w100 < 35 || w100 > 70 {
		t.Errorf("optimal concurrency for 100-byte objects = %d, paper extrapolates ≈50", w100)
	}
	if !(w100 > w500 && w500 > w1000) {
		t.Error("smaller objects must need a larger concurrency factor")
	}
	// Degenerate pipelines.
	if OptimalConcurrency(PipelineParams{}) != 1 {
		t.Error("empty pipeline should default to concurrency 1")
	}
	if mk(1000).RoundTripTime() <= 2*700*time.Millisecond {
		t.Error("round trip should include transfer time on top of latency")
	}
	if math.IsInf(mk(1000).BottleneckBandwidth(), 1) {
		t.Error("bottleneck bandwidth should be finite")
	}
}

// TestQuickCostModelInvariants property: for any valid parameters, costs are
// non-negative, the chosen strategy indeed has the smaller bottleneck, and
// duplicate elimination (smaller D) never hurts the semi-join.
func TestQuickCostModelInvariants(t *testing.T) {
	f := func(rows uint16, iRaw, aRaw, dRaw, sRaw, pRaw, rRaw, nRaw uint16) bool {
		p := Params{
			Rows:               int(rows%1000) + 1,
			InputSize:          float64(iRaw%10000) + 1,
			ArgFraction:        (float64(aRaw%1000) + 1) / 1000,
			DistinctFraction:   (float64(dRaw%1000) + 1) / 1000,
			Selectivity:        float64(sRaw%1001) / 1000,
			ProjectionFraction: float64(pRaw%1001) / 1000,
			ResultSize:         float64(rRaw % 10000),
			Asymmetry:          (float64(nRaw%2000) + 1) / 10,
		}
		if err := p.Validate(); err != nil {
			return true // skip the rare invalid combination
		}
		sj, cj := SemiJoinCost(p), ClientJoinCost(p)
		if sj.Downlink < 0 || sj.Uplink < 0 || cj.Downlink < 0 || cj.Uplink < 0 {
			return false
		}
		choice, s, c := Choose(p)
		if choice == StrategyClientJoin && c.Bottleneck() >= s.Bottleneck() {
			return false
		}
		if choice == StrategySemiJoin && s.Bottleneck() > c.Bottleneck() {
			return false
		}
		// More duplicates (smaller D) never increases semi-join cost.
		smaller := p
		smaller.DistinctFraction = p.DistinctFraction / 2
		if SemiJoinCost(smaller).Bottleneck() > sj.Bottleneck()+1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPipelineSessions(t *testing.T) {
	base := PipelineParams{
		DownBandwidth: 3600,
		UpBandwidth:   3600,
		Latency:       50 * time.Millisecond,
		ArgBytes:      100,
		ResultBytes:   100,
	}
	b1 := base.BottleneckBandwidth()
	par := base
	par.Sessions = 4
	if got := par.BottleneckBandwidth(); got != 4*b1 {
		t.Errorf("4 sessions bottleneck = %g, want %g (every stage parallelises)", got, 4*b1)
	}
	// Sessions scale the total in-flight window linearly.
	if w1, w4 := OptimalConcurrency(base), OptimalConcurrency(par); w4 < 3*w1 {
		t.Errorf("concurrency with 4 sessions = %d, want ~4x the single-session %d", w4, w1)
	}
	// Zero and negative session counts behave as 1.
	neg := base
	neg.Sessions = -3
	if neg.BottleneckBandwidth() != b1 {
		t.Error("negative session count must behave as 1")
	}
}

func TestOptimalSessions(t *testing.T) {
	rtt := 100 * time.Millisecond
	// A 216 KB transfer at 3600 B/s takes 60 s; with 8 RTTs (0.8 s) as the
	// per-session floor, 60/0.8 = 75 sessions are justified before the cap.
	if got := OptimalSessions(216_000, 3600, rtt, 8); got != 8 {
		t.Errorf("capped sessions = %d, want 8", got)
	}
	if got := OptimalSessions(216_000, 3600, rtt, 1000); got != 75 {
		t.Errorf("uncapped sessions = %d, want 75", got)
	}
	// A transfer that fits in a few round trips stays single-session.
	if got := OptimalSessions(1000, 3600, rtt, 8); got != 1 {
		t.Errorf("tiny transfer sessions = %d, want 1", got)
	}
	// Unmeasured inputs never guess parallelism.
	for _, got := range []int{
		OptimalSessions(0, 3600, rtt, 8),
		OptimalSessions(216_000, 0, rtt, 8),
		OptimalSessions(216_000, 3600, 0, 8),
	} {
		if got != 1 {
			t.Errorf("unmeasured input sessions = %d, want 1", got)
		}
	}
	if got := OptimalSessions(216_000, 3600, rtt, 0); got != 1 {
		t.Errorf("max < 1 sessions = %d, want 1", got)
	}
}

// relativeTime returns the execution time of the client-site join relative to
// the semi-join (the quantity plotted on the y axis of Figures 8, 9 and 10).
// Values below 1 mean the client-site join is faster.
func relativeTime(p Params) float64 {
	sj := SemiJoinCost(p).Bottleneck()
	if sj == 0 {
		return math.Inf(1)
	}
	return ClientJoinCost(p).Bottleneck() / sj
}

// crossoverSelectivity returns the pushable-predicate selectivity at which
// the client-site join's uplink cost equals the semi-join's bottleneck cost —
// the knee of the curves in Figure 8. It returns +Inf when the client-site
// join never becomes uplink-bound within [0,1].
func crossoverSelectivity(p Params) float64 {
	// Uplink(CSJ) = N·S·P·(I+R); equate with max(downlink CSJ, bottleneck SJ)
	// to find where the flat part of the relative-time curve ends.
	denom := p.Asymmetry * p.ProjectionFraction * (p.InputSize + p.ResultSize)
	if denom == 0 {
		return math.Inf(1)
	}
	s := ClientJoinCost(Params{
		Rows: p.Rows, InputSize: p.InputSize, ArgFraction: p.ArgFraction,
		DistinctFraction: p.DistinctFraction, Selectivity: 0, ProjectionFraction: p.ProjectionFraction,
		ResultSize: p.ResultSize, Asymmetry: p.Asymmetry, PerTupleOverhead: p.PerTupleOverhead,
	}).Downlink / denom
	return s
}
