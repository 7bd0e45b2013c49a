package exec

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"csq/internal/types"
	"csq/internal/wire"
)

// DefaultConcurrencyFactor is the pipeline concurrency factor used when none
// is configured. The paper's analysis (Section 3.1.2) puts the optimum at
// bandwidth × latency ÷ argument size; 16 is a safe default for the link
// speeds in the evaluation.
const DefaultConcurrencyFactor = 16

// sendBatchSize is the most duplicate-free argument tuples the sender packs
// per downlink frame. Batching amortises frame headers, encode buffers and
// channel operations across tuples.
const sendBatchSize = 32

// SemiJoin executes a client-site UDF with the semi-join strategy of
// Section 2.3.1: the sender ships duplicate-free argument columns on the
// downlink while the receiver joins returned results with the buffered full
// records. Sender and receiver run concurrently, and at most
// ConcurrencyFactor argument tuples are dealt and not yet answered across all
// sessions: the paper's pipeline concurrency factor, which is what hides the
// network latency (Figure 2(b) / Figure 3 of the paper).
//
// Both halves of the pipeline are batched: the sender reads input batches,
// ships argument tuples sendBatchSize at a time and parks full records in
// whole-batch channel sends; the receiver drains one parked batch at a time.
// Parked records are copied into columns of their own and charged to the
// query's memory tracker until the receiver has drained their batch.
// Duplicate elimination is one keyTable of the argument columns, which the
// sender alone touches: each record's arguments are hashed and compared
// once, there, and the record carries the index of its distinct argument
// tuple from then on.
//
// What goes down the shipping pool is one frame of duplicate-free argument
// tuples per input batch, tagged with their indices and dealt once the
// pool's window has room for it; a reply carries one result per argument of
// its frame and is published by index in a shared result table, and the
// receiver waits on the pool for the index it needs — the lane readers
// always drain their sessions, which is also what keeps a multi-session
// client from ever blocking on an unread uplink write. With Sessions > 1 the frames travel in parallel, yet
// output order stays exactly the input order.
//
// A concurrency factor of 1 is the paper's naive strategy (Section 2.1): one
// argument tuple per frame and one frame in flight, so every invocation is a
// blocking round trip; duplicates are answered from the result table.
type SemiJoin struct {
	baseState
	input Operator
	udfs  []UDFBinding
	link  ClientLink

	// ConcurrencyFactor bounds the number of argument tuples dealt to the
	// client and not yet answered, across all sessions. At 1 one frame of
	// one tuple is in flight at a time: the naive strategy.
	ConcurrencyFactor int
	// Sessions is the number of concurrent wire sessions (the paper's T
	// parallel channels) argument frames are fanned out across. Values below
	// 2 keep the classic single-session pipeline.
	Sessions int
	// Retry governs mid-query session re-establishment; the zero value
	// enables fault tolerance with defaults.
	Retry RetryConfig

	schema      *types.Schema
	argOrdinals []int
	remapped    []wire.UDFSpec

	pool    *shipPool[[]int32] // a frame's tag is its argument tuples' indices
	args    keyTable           // the distinct argument tuples; the sender's alone
	resMu   sync.Mutex
	results []types.Tuple // published results by argument index; guarded by resMu
	buffer  chan *parkedBatch
	mem     memAccount // argument table, result table and parked records

	cur    *parkedBatch // receiver's current parked batch
	curPos int          // its next record
	res    []types.Vec  // its result columns, filled up to curPos
	cols   []types.Vec
}

// parkedBatch is one input batch's records parked between sender and
// receiver, with each record's argument index and the memory charged for
// them.
type parkedBatch struct {
	records types.Batch
	args    []int32
	charge  int64
}

// NewSemiJoin builds the operator.
func NewSemiJoin(input Operator, link ClientLink, udfs []UDFBinding) (*SemiJoin, error) {
	if len(udfs) == 0 {
		return nil, fmt.Errorf("exec: semi-join operator needs at least one UDF")
	}
	op := &SemiJoin{
		input:             input,
		link:              link,
		udfs:              udfs,
		ConcurrencyFactor: DefaultConcurrencyFactor,
	}
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
func (s *SemiJoin) Schema() *types.Schema { return s.schema }

// Open implements Operator: it opens the shipping pool, which starts the
// sender.
func (s *SemiJoin) Open(ctx context.Context) error {
	if s.link == nil {
		return fmt.Errorf("exec: semi-join operator has no client link")
	}
	if s.ConcurrencyFactor < 1 {
		return fmt.Errorf("exec: concurrency factor must be at least 1, got %d", s.ConcurrencyFactor)
	}
	if err := s.input.Open(ctx); err != nil {
		return err
	}
	shipped, err := s.input.Schema().Project(s.argOrdinals)
	if err != nil {
		return err
	}
	s.mem = memAccount{t: MemTrackerFrom(ctx)}
	s.results = nil
	// The pool's window bounds the pipeline; the buffer only keeps the deal
	// order of the records, and a full one just pauses the sender.
	s.buffer = make(chan *parkedBatch, dealOrderDepth)
	s.cur, s.curPos = &parkedBatch{}, 0
	s.pool = newShipPool(shipPolicy[[]int32]{
		setup: &wire.SetupRequest{
			Mode:        wire.ModeSemiJoin,
			InputSchema: shipped,
			UDFs:        s.remapped,
		},
		sessions: s.Sessions,
		window:   s.ConcurrencyFactor,
		retry:    s.Retry,
		onReply:  s.publish,
		send:     s.send,
		done:     func() { close(s.buffer) },
	})
	if err := s.pool.open(ctx, s.link); err != nil {
		s.mem.releaseAll()
		_ = s.input.Close()
		return err
	}
	s.markOpen(ctx)
	return nil
}

// senderReadBatch is how many input records the sender moves per channel
// send, and therefore also the maximum argument tuples per downlink frame.
// It never exceeds the concurrency factor or sendBatchSize, so a factor of 1
// degrades to the tuple-at-a-time pipeline of the paper's Figure 3.
func (s *SemiJoin) senderReadBatch() int {
	return min(DefaultBatchSize, s.ConcurrencyFactor, sendBatchSize)
}

// send is the sender thread of Figure 3: it reads input record batches,
// ships each batch's distinct argument tuples downlink in one frame and
// parks the full records in the buffer for the receiver. A deal waits for
// room in the pool's window, which the lane readers make as replies arrive,
// and otherwise only on link transfer, never on an unread reply.
func (s *SemiJoin) send(ctx context.Context) error {
	w := len(s.argOrdinals)
	s.args.reset(w, allOrdinals(w))
	batch := &types.Batch{Max: s.senderReadBatch()}
	var hashes []uint64
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := s.input.NextBatch(batch)
		if err != nil || n == 0 {
			return err
		}
		live := batch.Live()
		parked := &parkedBatch{args: make([]int32, n)}
		parked.records.Reset(len(batch.Cols))
		for c := range batch.Cols {
			parked.records.Cols[c].AppendRows(&batch.Cols[c], live)
		}
		parked.records.N = n
		parked.charge = parked.records.MemSize(0)
		// The frame keeps its argument tuples until it is answered, so each
		// input batch gets fresh ones, carved out of one backing array.
		var args []types.Tuple
		var tags []int32
		var vals []types.Value
		var grown int64
		hashes = batch.HashRows(live, s.argOrdinals, hashes)
		for i, r := range live {
			idx, g := s.args.find(batch, r, s.argOrdinals, hashes[i])
			parked.args[i] = idx
			if g == 0 {
				continue
			}
			// Step 1 of the paper's pipeline: ship the duplicate-free
			// argument values downlink.
			grown += g
			if args == nil {
				vals = make([]types.Value, 0, (n-i)*w)
				args, tags = make([]types.Tuple, 0, n-i), make([]int32, 0, n-i)
			}
			vals = s.args.rows.Row(int(idx), vals)
			args = append(args, vals[len(vals)-w:len(vals):len(vals)])
			tags = append(tags, idx)
		}
		// The argument table keeps its rows for the query's lifetime, and
		// the records stay parked until the receiver has drained their batch.
		if err := s.mem.grow(grown + parked.charge); err != nil {
			return err
		}
		if len(args) > 0 {
			if err := s.pool.deal(args, tags); err != nil {
				return err
			}
		}
		select {
		case s.buffer <- parked:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// publish is the pool's reply policy: the per-channel half of the merge join
// the paper describes for the receiver. A reply holds one result per argument
// tuple of its frame, in order; they go into the shared result table at their
// arguments' indices. A result already there (a replayed frame's) is not
// charged again.
func (s *SemiJoin) publish(f shipFrame[[]int32], reply []types.Tuple) error {
	if len(reply) != len(f.tuples) {
		return fmt.Errorf("exec: semi-join sent %d arguments, got %d results", len(f.tuples), len(reply))
	}
	for _, res := range reply {
		if res.Len() != len(s.udfs) {
			return fmt.Errorf("exec: semi-join expected %d result columns, got %d", len(s.udfs), res.Len())
		}
	}
	var charge int64
	s.resMu.Lock()
	for i, res := range reply {
		idx := int(f.tag[i])
		if idx >= len(s.results) {
			s.results = append(s.results, make([]types.Tuple, idx+1-len(s.results))...)
		}
		if s.results[idx] == nil {
			s.results[idx] = res
			charge += int64(res.MemSize())
		}
	}
	s.resMu.Unlock()
	// The result table retains the results for the query's lifetime.
	return s.mem.grow(charge)
}

// result returns the published result of argument idx, waiting on the pool
// — every acknowledged frame wakes it — until it is there.
func (s *SemiJoin) result(idx int32) (res types.Tuple, err error) {
	lookup := func() bool {
		s.resMu.Lock()
		if int(idx) < len(s.results) {
			res = s.results[idx]
		}
		s.resMu.Unlock()
		return res != nil
	}
	if !lookup() {
		err = s.pool.await(lookup)
	}
	return res, err
}

// NextBatch implements Operator: it is the receiver thread of Figure 3,
// joining parked records with the result stream the session readers
// publish. The records' columns go out as they were parked, beside result
// columns of the operator's own; a call returns within one parked batch,
// which keeps the pipeline moving instead of blocking on the sender for a
// full batch.
func (s *SemiJoin) NextBatch(b *types.Batch) (int, error) {
	if err := s.checkOpen(); err != nil {
		return 0, err
	}
	for s.curPos >= s.cur.records.N {
		s.mem.shrink(s.cur.charge)
		s.cur.charge = 0
		select {
		case <-s.pool.failed:
			return 0, s.pool.failure()
		case batch, ok := <-s.buffer:
			if !ok {
				// Input exhausted, unless the sender stopped on an error.
				b.View(s.cols, 0)
				return 0, s.pool.failure()
			}
			s.cur, s.curPos = batch, 0
			s.res = slices.Grow(s.res[:0], len(s.udfs))[:len(s.udfs)]
			for u := range s.res {
				s.res[u].Reset()
			}
		}
	}
	lo := s.curPos
	for s.curPos < min(s.cur.records.N, lo+b.Max) {
		res, err := s.result(s.cur.args[s.curPos])
		if err != nil {
			return 0, err
		}
		for u := range s.res {
			s.res[u].Append(res[u])
		}
		s.curPos++
	}
	s.cols = append(append(s.cols[:0], s.cur.records.Cols...), s.res...)
	b.View(s.cols, s.curPos)
	b.Window(lo, s.curPos-lo)
	return b.N, nil
}

// Close implements Operator. It works both after a clean drain and when the
// caller abandons the stream early (a consumer that stops after a few rows): closing
// the pool stops the sender wherever it is parked.
func (s *SemiJoin) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.pool != nil {
		s.pool.close() // which waits for the sender
	}
	s.args.release()
	s.mem.releaseAll()
	return s.input.Close()
}

// NetStats implements NetReporter.
func (s *SemiJoin) NetStats() NetStats { return s.pool.netStats() }

// FaultStats implements FaultReporter.
func (s *SemiJoin) FaultStats() FaultStats { return s.pool.faultStats() }
