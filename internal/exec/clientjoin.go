package exec

import (
	"context"
	"fmt"
	"slices"

	"csq/internal/expr"
	"csq/internal/types"
	"csq/internal/wire"
)

// DefaultShipBatchSize is how many full records the client-site join ships
// per downlink frame when not configured otherwise. Batching amortises frame
// headers without changing the bytes-per-tuple accounting materially.
const DefaultShipBatchSize = 8

// ClientJoin executes a client-site UDF with the "join at the client"
// strategy of Section 2.3.2: full records are shipped downlink, the client
// applies the UDFs plus any pushable predicates and projections, and the
// (possibly filtered and narrowed) records come back on the uplink.
//
// Both directions are batched: the sender pulls whole input batches and ships
// ShipBatchSize records per frame, and the receiver forwards whole decoded
// result batches instead of one tuple per send.
//
// What goes down the shipping pool is one frame of ShipBatchSize whole
// records, with no window on the tuples in flight; the records a frame
// holds are charged to the query's memory tracker until its reply is merged.
// A reply (possibly empty after filtering) is dropped in its frame's one-shot
// box, and the receiver opens the boxes in deal order — so with Sessions > 1
// the frames travel in parallel and the global record order is reconstructed
// without sequence bookkeeping on the wire, even for a frame replayed on a
// different session. The stream ends when the input does and every box is
// opened: every reply is in, and Close retires the sessions; no End crosses
// the link.
type ClientJoin struct {
	baseState
	input Operator
	udfs  []UDFBinding
	link  ClientLink

	// Pushable is an optional predicate evaluated at the client over the
	// shipped record extended with the UDF result columns. Rows failing it
	// are dropped before using any uplink bandwidth.
	Pushable expr.Expr
	// ProjectOrdinals optionally narrows the returned record (a pushable
	// projection); ordinals index the extended record. Empty returns
	// everything. Invalid ordinals are rejected by Open.
	ProjectOrdinals []int
	// ShipBatchSize is the number of records per downlink frame.
	ShipBatchSize int
	// Sessions is the number of concurrent wire sessions record frames are
	// dealt across. Values below 2 keep the single-session pipeline.
	Sessions int
	// Retry governs mid-query session re-establishment; the zero value
	// enables fault tolerance with defaults.
	Retry RetryConfig

	schema    *types.Schema
	outSchema *types.Schema // extended schema narrowed by ProjectOrdinals

	pool   *shipPool[replyBox]
	order  chan dealtFrame // dealt frames in deal order; the merge follows it
	mem    memAccount      // records held in flight, until their frame is merged
	cur    []types.Tuple   // receiver batch currently being drained
	curPos int
	out    types.Batch
}

// replyBox is a frame's one-shot reply slot (capacity 1: exactly one reply
// per frame).
type replyBox chan []types.Tuple

// dealtFrame is a dealt frame as the merge sees it: its reply box and the
// memory charged for the records it holds.
type dealtFrame struct {
	box    replyBox
	charge int64
}

// NewClientJoin builds the operator. UDF argument ordinals reference the
// input schema directly (the whole record is shipped).
func NewClientJoin(input Operator, link ClientLink, udfs []UDFBinding) (*ClientJoin, error) {
	if len(udfs) == 0 {
		return nil, fmt.Errorf("exec: client-site join needs at least one UDF")
	}
	for _, u := range udfs {
		for _, o := range u.ArgOrdinals {
			if o < 0 || o >= input.Schema().Len() {
				return nil, fmt.Errorf("exec: UDF %s argument ordinal %d out of range", u.Name, o)
			}
		}
	}
	op := &ClientJoin{
		input:         input,
		link:          link,
		udfs:          udfs,
		ShipBatchSize: DefaultShipBatchSize,
	}
	op.schema = extendSchema(input.Schema(), udfs)
	return op, nil
}

// projectedSchema narrows the extended schema by ProjectOrdinals, failing on
// out-of-range ordinals.
func (c *ClientJoin) projectedSchema() (*types.Schema, error) {
	if len(c.ProjectOrdinals) == 0 {
		return c.schema, nil
	}
	s, err := c.schema.Project(c.ProjectOrdinals)
	if err != nil {
		return nil, fmt.Errorf("exec: client-site join pushable projection: %w", err)
	}
	return s, nil
}

// Schema implements Operator. With a pushable projection configured the
// output schema is the projected extended schema. Invalid projection ordinals
// are reported by Open; before that, Schema falls back to the unprojected
// extended schema rather than guessing.
func (c *ClientJoin) Schema() *types.Schema {
	if c.outSchema != nil {
		return c.outSchema
	}
	s, err := c.projectedSchema()
	if err != nil {
		return c.schema
	}
	return s
}

// Open implements Operator: it validates the pushable projection and opens
// the shipping pool, which starts the sender.
func (c *ClientJoin) Open(ctx context.Context) error {
	if c.link == nil {
		return fmt.Errorf("exec: client-site join has no client link")
	}
	outSchema, err := c.projectedSchema()
	if err != nil {
		return err
	}
	c.outSchema = outSchema
	if c.ShipBatchSize < 1 {
		c.ShipBatchSize = 1
	}
	if err := c.input.Open(ctx); err != nil {
		return err
	}
	specs := make([]wire.UDFSpec, len(c.udfs))
	for i, u := range c.udfs {
		specs[i] = wire.UDFSpec{Name: u.Name, ArgOrdinals: u.ArgOrdinals}
	}
	req := &wire.SetupRequest{
		Mode:            wire.ModeClientJoin,
		InputSchema:     c.input.Schema(),
		UDFs:            specs,
		ProjectOrdinals: c.ProjectOrdinals,
	}
	if c.Pushable != nil {
		data, err := expr.Marshal(c.Pushable)
		if err != nil {
			_ = c.input.Close()
			return fmt.Errorf("exec: marshal pushable predicate: %w", err)
		}
		req.PushablePredicate = data
	}
	c.order = make(chan dealtFrame, dealOrderDepth)
	c.mem = memAccount{t: MemTrackerFrom(ctx)}
	c.cur, c.curPos = nil, 0
	c.pool = newShipPool(shipPolicy[replyBox]{
		setup:    req,
		sessions: c.Sessions,
		retry:    c.Retry,
		onReply: func(f shipFrame[replyBox], reply []types.Tuple) error {
			if i := slices.IndexFunc(reply, func(t types.Tuple) bool { return t.Len() != c.Schema().Len() }); i >= 0 {
				return fmt.Errorf("exec: client-site join expected %d result columns, got %d", c.Schema().Len(), reply[i].Len())
			}
			// The box's consumer owns its batch; the pool recycles reply.
			f.tag <- slices.Clone(reply)
			return nil
		},
		send: c.send,
		done: func() { close(c.order) },
	})
	if err := c.pool.open(ctx, c.link); err != nil {
		c.mem.releaseAll()
		_ = c.input.Close()
		return err
	}
	c.markOpen(ctx)
	return nil
}

// send ships the full input stream downlink, one frame per ShipBatchSize
// records, charging each frame's records and recording the deal order for
// the merging receiver.
func (c *ClientJoin) send(ctx context.Context) error {
	batch := &types.Batch{Max: c.ShipBatchSize}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := c.input.NextBatch(batch)
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
		// The frame keeps its own copy of the records until it is answered.
		records := batch.Tuples()
		f := dealtFrame{box: make(replyBox, 1)}
		for _, t := range records {
			f.charge += int64(t.MemSize())
		}
		if err := c.mem.grow(f.charge); err != nil {
			return err
		}
		// The deal order must be on record before the reply can be merged;
		// the channel is sized far above any sane frame count, but keep the
		// cancellation escape for when it fills.
		select {
		case c.order <- f:
		case <-ctx.Done():
			return ctx.Err()
		}
		if err := c.pool.deal(records, f.box); err != nil {
			return err
		}
	}
}

// nextResultBatch blocks until the merge delivers the next non-empty result
// batch: it follows the sender's deal order, opening exactly one reply box
// per sent frame. ok is false when the stream has ended cleanly. Every wait
// is selected against the pool's failure: a frame can be on record in the
// deal order but unanswerable (its lane died and no replacement or survivor
// could carry it), in which case the only wake-up is the recovery error.
func (c *ClientJoin) nextResultBatch() ([]types.Tuple, bool, error) {
	for {
		var f dealtFrame
		select {
		case <-c.pool.failed:
			return nil, false, c.pool.failure()
		case next, ok := <-c.order:
			if !ok {
				// All frames merged, unless the sender stopped on an error.
				return nil, false, c.pool.failure()
			}
			f = next
		}
		select {
		case <-c.pool.failed:
			return nil, false, c.pool.failure()
		case batch := <-f.box:
			c.mem.shrink(f.charge)
			if len(batch) > 0 {
				return batch, true, nil
			}
		}
	}
}

// NextBatch implements Operator: it copies the merged batches into columns
// of its own.
func (c *ClientJoin) NextBatch(b *types.Batch) (int, error) {
	if err := c.checkOpen(); err != nil {
		return 0, err
	}
	for c.curPos >= len(c.cur) {
		batch, ok, err := c.nextResultBatch()
		if err != nil || !ok {
			return 0, err
		}
		c.cur, c.curPos = batch, 0
	}
	n := min(b.Max, len(c.cur)-c.curPos)
	c.curPos += n
	return emitRows(b, &c.out, c.Schema().Len(), c.cur[c.curPos-n:c.curPos]), nil
}

// Close implements Operator. Closing the pool's connections unblocks the
// sender wherever it is parked, and folds each session's counters into the
// stats, so the final NetStats reflects the traffic actually put on the wire
// (early close included).
func (c *ClientJoin) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.pool != nil {
		c.pool.close()
	}
	c.mem.releaseAll()
	return c.input.Close()
}

// NetStats implements NetReporter.
func (c *ClientJoin) NetStats() NetStats { return c.pool.netStats() }

// FaultStats implements FaultReporter.
func (c *ClientJoin) FaultStats() FaultStats { return c.pool.faultStats() }
