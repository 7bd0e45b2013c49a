package exec

import (
	"context"
	"fmt"
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
// Parked records are charged to the query's memory tracker until the
// receiver has drained their batch. Duplicate elimination and the result
// table are hash-keyed (collision chains resolved by value comparison), so
// the steady state allocates no key strings.
//
// What goes down the shipping pool is one frame of duplicate-free argument
// tuples per input batch, dealt once the pool's window has room for it; a
// reply carries one result per argument of its frame and is published in a
// shared result table, and the receiver waits on the pool for the entry of
// the argument it needs — the lane readers always drain their sessions,
// which is also what keeps a multi-session client from ever blocking on an
// unread uplink write. With Sessions > 1 the frames travel in parallel, yet
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

	pool    *shipPool[[]uint64] // a frame's tag is the hashes of its argument tuples
	resMu   sync.Mutex
	results *argCache // published results by argument tuple; guarded by resMu
	buffer  chan parkedBatch
	mem     memAccount // dedup set, result table and parked records

	cur    parkedBatch // receiver's current parked batch
	curPos int
	out    types.Batch
	row    types.Tuple
}

// parkedBatch is one input batch's records parked between sender and
// receiver, with the memory charged for them.
type parkedBatch struct {
	records []bufferedRecord
	charge  int64
}

// bufferedRecord is one full record parked between sender and receiver,
// together with its projected argument tuple and that tuple's hash.
type bufferedRecord struct {
	tuple types.Tuple
	args  types.Tuple
	hash  uint64
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
	s.results = newArgCache()
	// The pool's window bounds the pipeline; the buffer only keeps the deal
	// order of the records, and a full one just pauses the sender.
	s.buffer = make(chan parkedBatch, dealOrderDepth)
	s.cur, s.curPos = parkedBatch{}, 0
	s.pool = newShipPool(shipPolicy[[]uint64]{
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
	seen := newTupleSet(nil)
	batch := &types.Batch{Max: s.senderReadBatch()}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := s.input.NextBatch(batch)
		if err != nil || n == 0 {
			return err
		}
		parked := parkedBatch{records: make([]bufferedRecord, 0, n)}
		// The frame keeps its argument tuples until it is answered, so each
		// input batch gets fresh ones, carved out of one backing array; they
		// escape into the dedup set, the frame and the result table.
		var args []types.Tuple
		var hashes []uint64
		vals := make([]types.Value, 0, n*len(s.argOrdinals))
		for i, t := range batch.Tuples() {
			for _, o := range s.argOrdinals {
				vals = append(vals, t[o])
			}
			arg := types.Tuple(vals[len(vals)-len(s.argOrdinals) : len(vals) : len(vals)])
			added, hash := seen.add(arg)
			if added {
				// The dedup set retains the argument tuple for the query's
				// lifetime; charge it against the memory budget.
				if err := s.mem.grow(int64(arg.MemSize())); err != nil {
					return err
				}
				// Step 1 of the paper's pipeline: ship the duplicate-free
				// argument values downlink.
				if args == nil {
					args, hashes = make([]types.Tuple, 0, n-i), make([]uint64, 0, n-i)
				}
				args = append(args, arg)
				hashes = append(hashes, hash)
			}
			parked.records = append(parked.records, bufferedRecord{tuple: t, args: arg, hash: hash})
			parked.charge += int64(t.MemSize())
		}
		// The records stay parked until the receiver has drained their batch.
		if err := s.mem.grow(parked.charge); err != nil {
			return err
		}
		if len(args) > 0 {
			if err := s.pool.deal(args, hashes); err != nil {
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
// tuple of its frame, in order; they go into the shared result table.
func (s *SemiJoin) publish(f shipFrame[[]uint64], reply []types.Tuple) error {
	if len(reply) != len(f.tuples) {
		return fmt.Errorf("exec: semi-join sent %d arguments, got %d results", len(f.tuples), len(reply))
	}
	for _, res := range reply {
		if res.Len() != len(s.udfs) {
			return fmt.Errorf("exec: semi-join expected %d result columns, got %d", len(s.udfs), res.Len())
		}
		// The result table retains the result for the query's lifetime.
		if err := s.mem.grow(int64(res.MemSize())); err != nil {
			return err
		}
	}
	s.resMu.Lock()
	for i, res := range reply {
		s.results.put(f.tuples[i], f.tag[i], res)
	}
	s.resMu.Unlock()
	return nil
}

// result returns the published result for rec's argument tuple, waiting on
// the pool — every acknowledged frame wakes it — until it is there.
func (s *SemiJoin) result(rec bufferedRecord) (res types.Tuple, err error) {
	lookup := func() (ok bool) {
		s.resMu.Lock()
		res, ok = s.results.get(rec.args, rec.hash)
		s.resMu.Unlock()
		return ok
	}
	if !lookup() {
		err = s.pool.await(lookup)
	}
	return res, err
}

// nextRecord returns the next parked record, pulling a new batch from the
// sender when the current one is drained, whose charge it then releases. ok
// is false when the input is exhausted.
func (s *SemiJoin) nextRecord() (bufferedRecord, bool, error) {
	for s.curPos >= len(s.cur.records) {
		s.mem.shrink(s.cur.charge)
		s.cur.charge = 0
		select {
		case <-s.pool.failed:
			return bufferedRecord{}, false, s.pool.failure()
		case batch, ok := <-s.buffer:
			if !ok {
				// Input exhausted, unless the sender stopped on an error.
				return bufferedRecord{}, false, s.pool.failure()
			}
			s.cur, s.curPos = batch, 0
		}
	}
	rec := s.cur.records[s.curPos]
	s.curPos++
	return rec, true, nil
}

// NextBatch implements Operator: it is the receiver thread of Figure 3,
// joining buffered records with the result stream the session readers
// publish, into columns of its own. It returns at the end of the current
// parked batch.
func (s *SemiJoin) NextBatch(b *types.Batch) (int, error) {
	if err := s.checkOpen(); err != nil {
		return 0, err
	}
	s.out.Reset(s.schema.Len())
	for s.out.N < b.Max {
		rec, ok, err := s.nextRecord()
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		results, err := s.result(rec)
		if err != nil {
			return 0, err
		}
		s.row = append(append(s.row[:0], rec.tuple...), results...)
		s.out.AppendRows(s.row)
		// Returning at a parked-batch boundary keeps the pipeline moving
		// instead of blocking on the sender for a full batch.
		if s.curPos >= len(s.cur.records) {
			break
		}
	}
	b.View(s.out.Cols, s.out.N)
	return s.out.N, nil
}

// Close implements Operator. It works both after a clean drain and when the
// caller abandons the stream early (e.g. a LIMIT above the operator): closing
// the pool stops the sender wherever it is parked.
func (s *SemiJoin) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.pool != nil {
		s.pool.close()
	}
	s.mem.releaseAll()
	return s.input.Close()
}

// NetStats implements NetReporter.
func (s *SemiJoin) NetStats() NetStats { return s.pool.netStats() }

// FaultStats implements FaultReporter.
func (s *SemiJoin) FaultStats() FaultStats { return s.pool.faultStats() }
