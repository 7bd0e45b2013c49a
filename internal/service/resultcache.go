package service

import (
	"csq/internal/plan"
	"csq/internal/wire"
)

// cachedResult is one stored answer. It is immutable once stored and shared
// by every query it serves.
type cachedResult struct {
	// frames is the result stream, in order.
	frames []wire.ResultFrame
	// stream tells which encoder produced frames: the stream-dictionary one,
	// or the plain one (the query that filled the entry came from a peer
	// without wire.CapResultStream).
	stream bool
	// rows is the answer's row count, what the stream's End frame reports.
	rows int64
	// bytes is the summed length of the frame bodies: the entry's charge.
	bytes int64
}

// newResultCache returns the service's result cache, a plan.Cache of answers
// bounded to budget bytes of frames: a deterministic query whose UDFs are all
// catalog-declared pure can serve its entire result from memory when an
// identical query ran before over unchanged data. Keys come from
// plan.TreeVersionKey, so any write or catalog mutation invalidates
// implicitly: the stale entry simply stops being found and ages out of the
// LRU.
//
// What is stored is the answer as it left the server: the encoded frames of
// its result stream, minus the query ID each payload starts with. A stream
// starts with empty dictionaries, so the sequence is self-contained, and a
// hit on the wire path is a write of the stored bytes under the new query's
// ID — nothing is encoded. Callers that want tuples decode the frames.
//
// Every stored result is charged the exact length of its frames; a result
// larger than the cache's MaxEntry is not cached at all.
func newResultCache(budget int64) *plan.Cache[*cachedResult] {
	return plan.NewCache(budget, func(r *cachedResult) int64 { return r.bytes })
}
