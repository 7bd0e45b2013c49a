package exec

import (
	"context"
	"fmt"
	"sort"

	"csq/internal/types"
	"csq/internal/wire"
)

// NaiveUDF is the traditional, tuple-at-a-time execution of a client-site
// UDF: for every input tuple the argument columns are shipped to the client
// and the operator blocks until the result comes back (Section 2.1 of the
// paper). It exists as the baseline whose poor behaviour motivates the
// semi-join and client-site join operators; it is equivalent to a semi-join
// with a pipeline concurrency factor of 1 and no sender/receiver overlap.
//
// An optional result cache eliminates duplicate invocations, following the
// caching technique of [HN97] that the paper cites for server-site UDFs.
//
// What goes down the shipping pool is one frame per argument tuple, with a
// window of one unacked frame per lane — the defining one invocation per
// round trip; a reply is handed to its window entry, and the operator blocks
// on the entry at the head of the window. With Sessions > 1 up to T tuples
// are in flight on T sessions before the first result is awaited, overlapping
// their round trips while preserving the exact output order. Sessions <= 1
// is the paper's strict ping-pong.
type NaiveUDF struct {
	baseState
	input Operator
	udfs  []UDFBinding
	link  ClientLink

	// EnableCache caches results by argument key, skipping round trips for
	// argument duplicates.
	EnableCache bool
	// Sessions is the number of concurrent wire sessions, each carrying at
	// most one in-flight round trip.
	Sessions int
	// Retry governs mid-query session re-establishment; the zero value
	// enables fault tolerance with defaults.
	Retry RetryConfig

	schema      *types.Schema
	argOrdinals []int          // union of all argument ordinals, sorted
	remapped    []wire.UDFSpec // specs with ordinals into the shipped tuple

	pool     *shipPool[*naivePending]
	window   []*naivePending          // FIFO of read-ahead input tuples
	inflight map[uint64][]types.Tuple // argument tuples with a round trip in flight, by hash
	inBuf    []types.Tuple            // reused input batch
	ahead    []types.Tuple            // pulled input not yet in the window (a tail of inBuf)
	inputEOF bool
	cache    *argCache
	mem      memAccount // result-cache memory charge
}

// naivePending is one read-ahead input tuple of the in-flight window.
type naivePending struct {
	in   types.Tuple
	args types.Tuple
	hash uint64
	res  types.Tuple      // non-nil once resolved (from the cache at read time)
	box  chan types.Tuple // the round trip's result (capacity 1); nil when none was launched
}

// NewNaiveUDF builds the operator. The UDF bindings reference columns of the
// input schema; each UDF contributes one result column appended to the input.
func NewNaiveUDF(input Operator, link ClientLink, udfs []UDFBinding) (*NaiveUDF, error) {
	if len(udfs) == 0 {
		return nil, fmt.Errorf("exec: naive UDF operator needs at least one UDF")
	}
	op := &NaiveUDF{input: input, link: link, udfs: udfs}
	var err error
	op.argOrdinals, op.remapped, err = shipArgumentColumns(input.Schema(), udfs)
	if err != nil {
		return nil, err
	}
	op.schema = extendSchema(input.Schema(), udfs)
	return op, nil
}

// shipArgumentColumns computes the sorted union of argument ordinals and
// rewrites the UDF specs so their ordinals index the shipped (argument-only)
// tuple rather than the full input tuple.
func shipArgumentColumns(schema *types.Schema, udfs []UDFBinding) ([]int, []wire.UDFSpec, error) {
	seen := map[int]bool{}
	for _, u := range udfs {
		if len(u.ArgOrdinals) == 0 {
			return nil, nil, fmt.Errorf("exec: UDF %s has no argument columns", u.Name)
		}
		for _, o := range u.ArgOrdinals {
			if o < 0 || o >= schema.Len() {
				return nil, nil, fmt.Errorf("exec: UDF %s argument ordinal %d out of range", u.Name, o)
			}
			seen[o] = true
		}
	}
	union := make([]int, 0, len(seen))
	for o := range seen {
		union = append(union, o)
	}
	sort.Ints(union)
	pos := make(map[int]int, len(union))
	for i, o := range union {
		pos[o] = i
	}
	specs := make([]wire.UDFSpec, len(udfs))
	for i, u := range udfs {
		spec := wire.UDFSpec{Name: u.Name}
		for _, o := range u.ArgOrdinals {
			spec.ArgOrdinals = append(spec.ArgOrdinals, pos[o])
		}
		specs[i] = spec
	}
	return union, specs, nil
}

// ExtendedSchema returns the schema of an input extended with one result
// column per UDF binding — the output shape shared by every client-site
// strategy before any pushable projection. The planner uses it to bind
// pushable predicates and projections without instantiating an operator.
func ExtendedSchema(in *types.Schema, udfs []UDFBinding) *types.Schema {
	return extendSchema(in, udfs)
}

// extendSchema appends one result column per UDF to the input schema.
func extendSchema(in *types.Schema, udfs []UDFBinding) *types.Schema {
	out := in.Clone()
	for _, u := range udfs {
		name := u.ResultName
		if name == "" {
			name = u.Name
		}
		out.Columns = append(out.Columns, types.Column{Name: name, Kind: u.ResultKind})
	}
	return out
}

// Schema implements Operator.
func (n *NaiveUDF) Schema() *types.Schema { return n.schema }

// Open implements Operator.
func (n *NaiveUDF) Open(ctx context.Context) error {
	if n.link == nil {
		return fmt.Errorf("exec: naive UDF operator has no client link")
	}
	if err := n.input.Open(ctx); err != nil {
		return err
	}
	shipped, err := n.input.Schema().Project(n.argOrdinals)
	if err != nil {
		return err
	}
	n.pool, err = openShipPool(ctx, n.link, shipPolicy[*naivePending]{
		setup: &wire.SetupRequest{
			Mode:        wire.ModeNaive,
			InputSchema: shipped,
			UDFs:        n.remapped,
		},
		sessions: n.Sessions,
		window:   1,
		retry:    n.Retry,
		onReply:  n.settle,
	})
	if err != nil {
		_ = n.input.Close()
		return err
	}
	n.window = n.window[:0]
	n.inflight = make(map[uint64][]types.Tuple)
	n.ahead = nil
	n.inputEOF = false
	n.mem = memAccount{t: MemTrackerFrom(ctx)}
	if n.EnableCache {
		n.cache = newArgCache()
	}
	n.markOpen(ctx)
	return nil
}

// fillWindow reads ahead and launches round trips until every session has one
// in flight (or the input is exhausted). Cache hits and duplicates of
// in-flight arguments join the window without consuming a session; the
// read-ahead itself is bounded so a duplicate-heavy stream cannot buffer the
// whole input. An empty window always reads on: deal then waits for a lane,
// or reports that none is left.
func (n *NaiveUDF) fillWindow() error {
	limit := len(n.pool.lanes) + DefaultBatchSize
	for !n.inputEOF && len(n.window) < limit && (len(n.window) == 0 || n.pool.hasRoom()) {
		if len(n.ahead) == 0 {
			// Pull no more than the window has room for, so the window and
			// the unread input together stay within the read-ahead bound.
			room := limit - len(n.window)
			if cap(n.inBuf) < room {
				n.inBuf = make([]types.Tuple, room)
			}
			k, err := n.input.NextBatch(n.inBuf[:room])
			if err != nil {
				return err
			}
			if k == 0 {
				n.inputEOF = true
				return nil
			}
			n.ahead = n.inBuf[:k]
		}
		in := n.ahead[0]
		n.ahead = n.ahead[1:]
		args, err := in.Project(n.argOrdinals)
		if err != nil {
			return err
		}
		p := &naivePending{in: in, args: args, hash: hashArgs(args)}
		n.window = append(n.window, p)
		if n.EnableCache {
			if cached, hit := n.cache.get(args, p.hash); hit {
				p.res = cached
				continue
			}
			if tupleInFlight(n.inflight[p.hash], args) {
				// An equal argument launched by an earlier window entry is
				// already on its way; entries resolve in FIFO order, so the
				// cache will hold the result by the time this one is emitted.
				continue
			}
		}
		p.box = make(chan types.Tuple, 1)
		if err := n.pool.deal([]types.Tuple{args}, p); err != nil {
			return err
		}
		n.inflight[p.hash] = append(n.inflight[p.hash], args)
	}
	return nil
}

// settle is the pool's reply policy: the one result of a round trip goes to
// the window entry that launched it.
func (n *NaiveUDF) settle(f shipFrame[*naivePending], reply []types.Tuple) error {
	if len(reply) != 1 {
		return fmt.Errorf("exec: naive UDF expected one result, got %d", len(reply))
	}
	if reply[0].Len() != len(n.udfs) {
		return fmt.Errorf("exec: naive UDF expected %d result columns, got %d", len(n.udfs), reply[0].Len())
	}
	f.tag.box <- reply[0]
	return nil
}

// tupleInFlight reports whether an argument tuple equal to args is in chain.
func tupleInFlight(chain []types.Tuple, args types.Tuple) bool {
	for _, t := range chain {
		if t.Equal(args) {
			return true
		}
	}
	return false
}

// resolve produces the result tuple for the window head, blocking until its
// round trip has come back.
func (n *NaiveUDF) resolve(p *naivePending) (types.Tuple, error) {
	if p.res != nil {
		return p.res, nil
	}
	if p.box == nil {
		// Deferred duplicate of an earlier in-flight argument, which has
		// resolved (and been cached) by now — entries resolve in FIFO order.
		cached, hit := n.cache.get(p.args, p.hash)
		if !hit {
			return nil, fmt.Errorf("exec: naive UDF window lost a deferred duplicate result")
		}
		return cached, nil
	}
	var results types.Tuple
	select {
	case <-n.pool.failed:
		return nil, n.pool.failure()
	case results = <-p.box:
	}
	if n.EnableCache {
		// Clone before caching: the decoded result may share a codec buffer
		// with the rest of its frame, and cached entries outlive the frame.
		// The cache retains both tuples for the query's lifetime; charge them.
		results = results.Clone()
		if err := n.mem.grow(tupleMemSize(p.args) + tupleMemSize(results)); err != nil {
			return nil, err
		}
		n.cache.put(p.args, p.hash, results)
	}
	n.removeInFlight(p.hash, p.args)
	return results, nil
}

// removeInFlight drops one entry equal to args from the in-flight chain.
func (n *NaiveUDF) removeInFlight(hash uint64, args types.Tuple) {
	chain := n.inflight[hash]
	for i, t := range chain {
		if t.Equal(args) {
			chain[i] = chain[len(chain)-1]
			n.inflight[hash] = chain[:len(chain)-1]
			return
		}
	}
}

// NextBatch implements Operator: one blocking round trip per non-cached
// tuple, with up to Sessions round trips overlapped by the read-ahead window.
// Window heads resolve into dst in input order; all output tuples of one
// batch are carved out of a single backing arena.
func (n *NaiveUDF) NextBatch(dst []types.Tuple) (int, error) {
	width := n.schema.Len()
	var arena []types.Value
	for out := range dst {
		// Each tuple can wait a full round trip; re-check the query context
		// per tuple so cancellation never rides out a whole batch.
		if err := n.checkOpen(); err != nil {
			return out, err
		}
		if err := n.fillWindow(); err != nil {
			return out, err
		}
		if len(n.window) == 0 {
			return out, nil
		}
		p := n.window[0]
		n.window = n.window[1:]
		res, err := n.resolve(p)
		if err != nil {
			return out, err
		}
		if arena == nil {
			arena = make([]types.Value, 0, len(dst)*width)
		}
		arena, dst[out] = types.ConcatInto(arena, p.in, res)
	}
	return len(dst), nil
}

// Close implements Operator. The lane readers are always draining, so round
// trips abandoned by an early close just finish; the End handshake follows
// them unless the pool has already failed.
func (n *NaiveUDF) Close() error {
	if n.closed {
		return nil
	}
	n.closed = true
	if n.pool != nil {
		_ = n.pool.end()
		n.pool.close()
		n.window = n.window[:0]
	}
	n.inBuf, n.ahead = nil, nil
	n.cache = nil
	n.mem.releaseAll()
	return n.input.Close()
}

// NetStats implements NetReporter. Every shipped tuple is its own
// synchronous round trip.
func (n *NaiveUDF) NetStats() NetStats {
	out := n.pool.netStats()
	out.RoundTrips = out.Invocations
	return out
}

// FaultStats implements FaultReporter.
func (n *NaiveUDF) FaultStats() FaultStats { return n.pool.faultStats() }
