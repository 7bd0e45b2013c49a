package plan

import (
	"math"
	"sort"
)

// DistinctSketch estimates the number of distinct 64-bit hashes in a stream
// with bounded memory (a KMV — k minimum values — sketch). While fewer than k
// distinct hashes have been seen the count is exact; beyond that the k-th
// smallest hash value estimates the distinct count as (k−1)/normalised(kth).
//
// The planner feeds it the hash of each argument tuple to measure D, the
// distinct-argument fraction of Section 3.2.2, during the sampling pass.
type DistinctSketch struct {
	k    int
	mins []uint64 // sorted ascending, distinct; at most k entries
	rows int
}

// NewDistinctSketch returns a sketch keeping at most k minimum hash values.
// Values of k below 16 are raised to 16.
func NewDistinctSketch(k int) *DistinctSketch {
	if k < 16 {
		k = 16
	}
	return &DistinctSketch{k: k, mins: make([]uint64, 0, k)}
}

// Add feeds one element's hash into the sketch.
func (s *DistinctSketch) Add(h uint64) {
	s.rows++
	i := sort.Search(len(s.mins), func(i int) bool { return s.mins[i] >= h })
	if i < len(s.mins) && s.mins[i] == h {
		return
	}
	if len(s.mins) < s.k {
		s.mins = append(s.mins, 0)
		copy(s.mins[i+1:], s.mins[i:])
		s.mins[i] = h
		return
	}
	if i >= s.k {
		return // larger than every kept minimum
	}
	copy(s.mins[i+1:], s.mins[i:])
	s.mins[i] = h
}

// Estimate returns the estimated number of distinct elements added.
func (s *DistinctSketch) Estimate() float64 {
	if len(s.mins) < s.k {
		return float64(len(s.mins)) // exact below capacity
	}
	kth := float64(s.mins[s.k-1]) / float64(math.MaxUint64)
	if kth <= 0 {
		return float64(s.k)
	}
	return float64(s.k-1) / kth
}

// DistinctFraction returns the estimated distinct count divided by the number
// of rows added, clamped to (0, 1]. It returns 1 when nothing was added.
func (s *DistinctSketch) DistinctFraction() float64 {
	if s.rows == 0 {
		return 1
	}
	d := s.Estimate() / float64(s.rows)
	if d > 1 {
		return 1
	}
	if d <= 0 {
		return 1 / float64(s.rows)
	}
	return d
}
