package types

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// TimeSeries is an ordered sequence of float64 samples, modelling the
// S.Quotes column of the paper's StockQuotes relation. It is the typical
// argument type for the ClientAnalysis and Volatility client-site UDFs.
type TimeSeries []float64

// Len returns the number of samples.
func (ts TimeSeries) Len() int { return len(ts) }

// First returns the first sample, or 0 for an empty series.
func (ts TimeSeries) First() float64 {
	if len(ts) == 0 {
		return 0
	}
	return ts[0]
}

// Last returns the last sample, or 0 for an empty series.
func (ts TimeSeries) Last() float64 {
	if len(ts) == 0 {
		return 0
	}
	return ts[len(ts)-1]
}

// Mean returns the arithmetic mean of the samples, or 0 for an empty series.
func (ts TimeSeries) Mean() float64 {
	if len(ts) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range ts {
		sum += v
	}
	return sum / float64(len(ts))
}

// Min returns the smallest sample, or +Inf for an empty series.
func (ts TimeSeries) Min() float64 {
	min := math.Inf(1)
	for _, v := range ts {
		if v < min {
			min = v
		}
	}
	return min
}

// Max returns the largest sample, or -Inf for an empty series.
func (ts TimeSeries) Max() float64 {
	max := math.Inf(-1)
	for _, v := range ts {
		if v > max {
			max = v
		}
	}
	return max
}

// StdDev returns the population standard deviation of the samples.
func (ts TimeSeries) StdDev() float64 {
	if len(ts) < 2 {
		return 0
	}
	mean := ts.Mean()
	sum := 0.0
	for _, v := range ts {
		d := v - mean
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(ts)))
}

// Returns computes the period-over-period relative changes of the series.
// The result has Len()-1 samples (empty for series shorter than 2). Periods
// starting at zero yield a 0 return to keep the result finite.
func (ts TimeSeries) Returns() TimeSeries {
	if len(ts) < 2 {
		return TimeSeries{}
	}
	out := make(TimeSeries, 0, len(ts)-1)
	for i := 1; i < len(ts); i++ {
		prev := ts[i-1]
		if prev == 0 {
			out = append(out, 0)
			continue
		}
		out = append(out, (ts[i]-prev)/prev)
	}
	return out
}

// Volatility returns the standard deviation of the period returns — the
// quantity the paper's Volatility(S.Quotes, S.FuturePrices) UDF estimates.
func (ts TimeSeries) Volatility() float64 {
	return ts.Returns().StdDev()
}

// String renders a short, human-readable preview of the series.
func (ts TimeSeries) String() string {
	var sb strings.Builder
	sb.WriteString("[")
	for i, v := range ts {
		if i > 0 {
			sb.WriteString(" ")
		}
		if i >= 4 && len(ts) > 5 {
			fmt.Fprintf(&sb, "... +%d", len(ts)-i)
			break
		}
		fmt.Fprintf(&sb, "%.4g", v)
	}
	sb.WriteString("]")
	return sb.String()
}

// compare orders two series deterministically without allocating. The order
// is byte-lexicographic over the samples' little-endian float64 bits, so
// compare == 0 exactly when the bit patterns (and therefore the hashes)
// match.
func (ts TimeSeries) compare(other TimeSeries) int {
	n := len(ts)
	if len(other) < n {
		n = len(other)
	}
	for i := 0; i < n; i++ {
		ab := math.Float64bits(ts[i])
		bb := math.Float64bits(other[i])
		if ab == bb {
			continue
		}
		// Little-endian byte order: the byte-reversed values compare the way
		// the encoded bytes would.
		if bits.ReverseBytes64(ab) < bits.ReverseBytes64(bb) {
			return -1
		}
		return 1
	}
	switch {
	case len(ts) < len(other):
		return -1
	case len(ts) > len(other):
		return 1
	default:
		return 0
	}
}
