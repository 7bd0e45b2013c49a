package exec

import "csq/internal/types"

// Hash-chained tuple containers shared by the duplicate-eliminating and
// caching operators. They key on types.Tuple.Hash and resolve collisions with
// value comparison (types.CompareOn == 0: NULLs compare equal, numeric
// kinds compare by value), replacing the previous string-key maps that
// re-encoded every key tuple per lookup.

// crossEqual reports whether a's values at aKeys equal b's values at bKeys,
// column by column. It is the equality the hash join and aggregation use to
// resolve hash collisions.
func crossEqual(a types.Tuple, aKeys []int, b types.Tuple, bKeys []int) bool {
	for i := range aKeys {
		c, err := types.Compare(a[aKeys[i]], b[bKeys[i]])
		if err != nil || c != 0 {
			return false
		}
	}
	return true
}

// tupleSet is a set of tuples keyed on a fixed ordinal list (all columns when
// nil). It is the hash-based replacement for map[string]struct{} keyed by
// Tuple.Key.
type tupleSet struct {
	ords []int
	m    map[uint64][]types.Tuple
}

func newTupleSet(ords []int) *tupleSet {
	return &tupleSet{ords: ords, m: make(map[uint64][]types.Tuple)}
}

// add inserts t (keyed on the set's ordinals) and reports whether it was not
// already present, along with the key hash so callers that need it do not
// hash twice.
func (s *tupleSet) add(t types.Tuple) (added bool, hash uint64) {
	if s.ords == nil {
		s.ords = allOrdinals(t.Len())
	}
	h := t.Hash(s.ords)
	chain := s.m[h]
	for _, have := range chain {
		if crossEqual(have, s.ords, t, s.ords) {
			return false, h
		}
	}
	s.m[h] = append(chain, t)
	return true, h
}

// argCache maps duplicate-free argument tuples to cached UDF result tuples.
// The semi-join's result table uses it, which at a concurrency factor of 1 is
// the [HN97]-style cache of the naive strategy. Keys are whole argument
// tuples.
type argCache struct {
	ords []int // lazily initialised full-width ordinal list
	m    map[uint64][]argResult
}

type argResult struct {
	args   types.Tuple
	result types.Tuple
}

func newArgCache() *argCache {
	return &argCache{m: make(map[uint64][]argResult)}
}

// get looks up the cached result for args, whose full-tuple hash is h.
func (c *argCache) get(args types.Tuple, h uint64) (types.Tuple, bool) {
	for _, e := range c.m[h] {
		if c.ords == nil {
			c.ords = allOrdinals(args.Len())
		}
		if len(e.args) == len(args) && crossEqual(args, c.ords, e.args, c.ords) {
			return e.result, true
		}
	}
	return nil, false
}

// put records the result for args, whose full-tuple hash is h.
func (c *argCache) put(args types.Tuple, h uint64, result types.Tuple) {
	c.m[h] = append(c.m[h], argResult{args: args, result: result})
}
