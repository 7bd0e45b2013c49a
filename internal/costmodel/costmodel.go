// Package costmodel implements the bandwidth-based cost model of Section 3.2
// of the paper, plus the pipeline-concurrency analysis of Section 3.1.2.
//
// The model characterises one client-site UDF application over a relation by
// the parameters the paper names:
//
//	A — size of the argument columns / total input record size
//	D — number of distinct argument tuples / input cardinality
//	S — selectivity of the pushable predicates
//	P — column selectivity of the pushable projections
//	    (size of the projected returned record / size of the unprojected one)
//	I — size of one input record (bytes)
//	R — size of one UDF result (bytes)
//	N — network asymmetry: downlink bandwidth / uplink bandwidth
//
// Per-tuple bottleneck costs (bytes, normalised to downlink bandwidth):
//
//	semi-join:        downlink D·A·I        uplink N·D·R
//	client-site join: downlink I            uplink N·(I+R)·P·S
//
// The strategy with the smaller maximum of its two link costs wins.
package costmodel

import (
	"fmt"
	"math"
	"time"
)

// Params are the cost-model inputs for one UDF application.
type Params struct {
	// Rows is the cardinality of the input relation.
	Rows int
	// InputSize is I, the size of one input record in bytes.
	InputSize float64
	// ArgFraction is A, the fraction of the record occupied by the UDF's
	// argument columns (0..1].
	ArgFraction float64
	// DistinctFraction is D, the fraction of rows with distinct argument
	// values (0..1].
	DistinctFraction float64
	// Selectivity is S, the selectivity of the pushable predicates (0..1].
	// Use 1 when no predicate can be pushed.
	Selectivity float64
	// ProjectionFraction is P, the column selectivity of the pushable
	// projections applied to the returned record (0..1].
	// Use 1 when nothing can be projected away.
	ProjectionFraction float64
	// ResultSize is R, the size of one UDF result in bytes.
	ResultSize float64
	// Asymmetry is N, downlink bandwidth divided by uplink bandwidth (>= 1
	// for the asymmetric links the paper considers, but any positive value
	// is accepted).
	Asymmetry float64
	// PerTupleOverhead is the fixed per-message framing overhead in bytes
	// (headers); the paper folds this into its constants, we expose it so
	// the model can be validated against the implementation's byte counters.
	PerTupleOverhead float64
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.Rows < 0 {
		return fmt.Errorf("costmodel: negative row count")
	}
	if p.InputSize <= 0 {
		return fmt.Errorf("costmodel: input size must be positive")
	}
	if p.ArgFraction <= 0 || p.ArgFraction > 1 {
		return fmt.Errorf("costmodel: argument fraction %g outside (0,1]", p.ArgFraction)
	}
	if p.DistinctFraction <= 0 || p.DistinctFraction > 1 {
		return fmt.Errorf("costmodel: distinct fraction %g outside (0,1]", p.DistinctFraction)
	}
	if p.Selectivity < 0 || p.Selectivity > 1 {
		return fmt.Errorf("costmodel: selectivity %g outside [0,1]", p.Selectivity)
	}
	if p.ProjectionFraction < 0 || p.ProjectionFraction > 1 {
		return fmt.Errorf("costmodel: projection fraction %g outside [0,1]", p.ProjectionFraction)
	}
	if p.ResultSize < 0 {
		return fmt.Errorf("costmodel: negative result size")
	}
	if p.Asymmetry <= 0 {
		return fmt.Errorf("costmodel: asymmetry must be positive")
	}
	return nil
}

// Strategy identifies a client-site UDF execution strategy.
type Strategy uint8

// Strategies compared by the model.
const (
	// StrategySemiJoin ships duplicate-free arguments down, bare results up.
	StrategySemiJoin Strategy = iota
	// StrategyClientJoin ships full records down, filtered/projected records up.
	StrategyClientJoin
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	if s == StrategyClientJoin {
		return "client-site-join"
	}
	return "semi-join"
}

// LinkCost is the per-tuple bandwidth cost of one strategy, expressed in
// downlink-equivalent bytes (uplink bytes are multiplied by N).
type LinkCost struct {
	// Downlink is the average number of bytes sent server→client per input
	// tuple.
	Downlink float64
	// Uplink is the average number of bytes sent client→server per input
	// tuple, already weighted by the asymmetry factor N.
	Uplink float64
}

// Bottleneck is the larger of the two link costs — the quantity that
// determines the turnaround time of the join execution (Section 3.2.1).
func (c LinkCost) Bottleneck() float64 { return math.Max(c.Downlink, c.Uplink) }

// SemiJoinCost returns the per-tuple link costs of the semi-join strategy.
func SemiJoinCost(p Params) LinkCost {
	return LinkCost{
		Downlink: p.DistinctFraction * (p.ArgFraction*p.InputSize + p.PerTupleOverhead),
		Uplink:   p.Asymmetry * p.DistinctFraction * (p.ResultSize + p.PerTupleOverhead),
	}
}

// ClientJoinCost returns the per-tuple link costs of the client-site join.
func ClientJoinCost(p Params) LinkCost {
	returned := (p.InputSize + p.ResultSize) * p.ProjectionFraction
	return LinkCost{
		Downlink: p.InputSize + p.PerTupleOverhead,
		Uplink:   p.Asymmetry * p.Selectivity * (returned + p.PerTupleOverhead),
	}
}

// Cost returns the per-tuple link costs of the given strategy.
func Cost(s Strategy, p Params) LinkCost {
	if s == StrategyClientJoin {
		return ClientJoinCost(p)
	}
	return SemiJoinCost(p)
}

// Choose returns the cheaper strategy under the model along with both costs.
// Ties go to the semi-join (Choose picks the client-site join only when it is
// strictly cheaper). Choose does not validate p; callers with untrusted or
// measured parameters should use Decide, which rejects the zero-valued
// Asymmetry/DistinctFraction inputs that would otherwise silently produce
// zero, infinite or NaN costs.
func Choose(p Params) (Strategy, LinkCost, LinkCost) {
	sj := SemiJoinCost(p)
	cj := ClientJoinCost(p)
	if cj.Bottleneck() < sj.Bottleneck() {
		return StrategyClientJoin, sj, cj
	}
	return StrategySemiJoin, sj, cj
}

// Decide is the validating form of Choose: it checks the parameters first and
// returns a descriptive error instead of the NaN/zero costs that zero-valued
// Asymmetry or DistinctFraction would produce.
func Decide(p Params) (Strategy, LinkCost, LinkCost, error) {
	if err := p.Validate(); err != nil {
		return 0, LinkCost{}, LinkCost{}, err
	}
	s, sj, cj := Choose(p)
	return s, sj, cj, nil
}

// TotalBytes scales the per-tuple costs to the whole relation, returning raw
// (unweighted) downlink and uplink byte counts for a strategy. It is used to
// validate the model against the implementation's byte counters. Because the
// uplink cost is stored weighted by N, TotalBytes divides by the asymmetry and
// therefore rejects invalid parameters (a zero Asymmetry would yield NaN).
func TotalBytes(s Strategy, p Params) (down, up float64, err error) {
	if err := p.Validate(); err != nil {
		return 0, 0, err
	}
	c := Cost(s, p)
	down = c.Downlink * float64(p.Rows)
	up = c.Uplink / p.Asymmetry * float64(p.Rows)
	return down, up, nil
}

// PipelineParams describe the semi-join pipeline for the concurrency-factor
// analysis of Section 3.1.2 and the Figure 6 experiment.
type PipelineParams struct {
	// DownBandwidth and UpBandwidth are the per-channel link bandwidths in
	// bytes/second.
	DownBandwidth float64
	UpBandwidth   float64
	// Latency is the one-way network latency.
	Latency time.Duration
	// ArgBytes and ResultBytes are the per-tuple payload sizes in each
	// direction.
	ArgBytes    float64
	ResultBytes float64
	// Sessions is the number of concurrent client sessions the operator fans
	// its frames across. Every pipeline stage parallelises with it: the
	// client processes sessions on independent workers, and each session
	// travels its own channel of the (multiplexed) link — the paper's
	// asymmetric-cable scenario, where the provider bonds many modem-grade
	// uplinks. Zero or negative means 1.
	Sessions int
}

// sessions returns the effective session fan-out.
func (p PipelineParams) sessions() float64 {
	if p.Sessions < 1 {
		return 1
	}
	return float64(p.Sessions)
}

// BottleneckBandwidth returns B: the throughput (tuples/second) of the
// slowest pipeline stage, across all sessions.
func (p PipelineParams) BottleneckBandwidth() float64 {
	t := p.sessions()
	stages := []float64{}
	if p.DownBandwidth > 0 && p.ArgBytes > 0 {
		stages = append(stages, t*p.DownBandwidth/p.ArgBytes)
	}
	if p.UpBandwidth > 0 && p.ResultBytes > 0 {
		stages = append(stages, t*p.UpBandwidth/p.ResultBytes)
	}
	if len(stages) == 0 {
		return math.Inf(1)
	}
	min := stages[0]
	for _, s := range stages[1:] {
		if s < min {
			min = s
		}
	}
	return min
}

// RoundTripTime returns T: the time for one tuple to traverse the whole
// pipeline (downlink transfer + latency, client processing, uplink transfer +
// latency).
func (p PipelineParams) RoundTripTime() time.Duration {
	t := 2 * p.Latency
	if p.DownBandwidth > 0 {
		t += time.Duration(p.ArgBytes / p.DownBandwidth * float64(time.Second))
	}
	if p.UpBandwidth > 0 {
		t += time.Duration(p.ResultBytes / p.UpBandwidth * float64(time.Second))
	}
	return t
}

// OptimalConcurrency returns B·T — the paper's prescription for the pipeline
// concurrency factor (the buffer size between sender and receiver): the
// number of tuples the pipeline can process during one tuple's round trip.
// The result is at least 1. With Sessions > 1 this is the total in-flight
// window across the whole session pool.
func OptimalConcurrency(p PipelineParams) int {
	b := p.BottleneckBandwidth()
	if math.IsInf(b, 1) {
		return 1
	}
	w := math.Round(b * p.RoundTripTime().Seconds())
	if w < 1 {
		return 1
	}
	return int(w)
}

// MinTransferRTTs is the smallest worthwhile per-session transfer, measured
// in round-trip times: splitting a transfer below this leaves each session
// spending comparable time on its setup handshake as on payload, so more
// sessions stop paying for themselves.
const MinTransferRTTs = 8

// OptimalSessions derives the session fan-out T from measured link
// characteristics: a transfer whose bottleneck direction carries
// bottleneckBytes at bytesPerSec keeps benefiting from one more parallel
// channel until each channel's share of the transfer no longer dominates a
// setup round trip. T is the largest session count that still leaves at
// least MinTransferRTTs round trips' worth of transfer time per session,
// clamped to [1, max]. Unmeasured inputs (zero bytes, bandwidth or RTT)
// yield 1 — parallelism is never guessed, only derived.
func OptimalSessions(bottleneckBytes, bytesPerSec float64, rtt time.Duration, max int) int {
	if max < 1 {
		max = 1
	}
	if bottleneckBytes <= 0 || bytesPerSec <= 0 || rtt <= 0 {
		return 1
	}
	transfer := bottleneckBytes / bytesPerSec
	t := int(transfer / (MinTransferRTTs * rtt.Seconds()))
	if t < 1 {
		return 1
	}
	if t > max {
		return max
	}
	return t
}
