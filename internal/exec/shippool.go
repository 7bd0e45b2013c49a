package exec

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"csq/internal/types"
	"csq/internal/wire"
)

// shipFrame is one downlink frame: the tuples that crossed the link — kept
// until the frame's reply arrives, which is what makes replay possible — and
// the owning strategy's handle for rejoining that reply with its stream.
type shipFrame[T any] struct {
	tuples []types.Tuple
	tag    T
}

// shipPolicy is everything that distinguishes one client-site strategy from
// another below the operator: what the client runs on each session, how many
// lanes carry frames, how many argument tuples may await their answer across
// all of them, where a reply goes and what feeds the pool.
type shipPolicy[T any] struct {
	setup    *wire.SetupRequest
	sessions int // lanes; values below 1 mean one
	// window is the paper's pipeline concurrency factor: the most tuples
	// dealt and not yet answered, across the whole pool. A frame is dealt
	// when it fits, or when nothing is in flight; 0 is unbounded.
	window int
	retry  RetryConfig // mid-query session re-establishment
	// onReply receives each frame with the client's reply to it, on the
	// lane's reader goroutine, once per frame and in the lane's send order.
	// The reply slice is recycled after the call; the tuples in it are not.
	// It must not block; an error fails the pool.
	onReply func(f shipFrame[T], reply []types.Tuple) error
	// send is the owning operator's sender, which the open starts once every
	// lane's Setup is out and close waits for; done runs when it returns.
	// A nil send starts nothing.
	send func(context.Context) error
	done func()
}

// dealOrderDepth is the capacity of an operator's deal-order channel, which
// hands what its sender has dealt or parked, in input order, to the receiver
// that rejoins the replies with it. The pool's window and the query's memory
// tracker bound what is held; the depth only decides how far the sender may
// run ahead, and a full channel just pauses it until the receiver catches
// up.
const dealOrderDepth = 4096

// shipLane is one lane of the session pool: the session currently serving it
// and the FIFO of frames sent but not yet answered on it, which is exactly
// what must be replayed if the session dies. Two locks split the lane's
// concerns: sendMu serializes whole park-frames-then-send sequences (so the
// wire order always equals the FIFO order, even when the dealer, a migration
// and a replay compete for the lane), while mu guards the fields themselves
// and is only ever held for pointer-sized critical sections — never across
// blocking I/O. The lane's reader takes only mu, so it can always drain
// replies; a sender blocked mid-transfer therefore cannot deadlock against
// the client blocked writing a reply, which is what an unbuffered link does
// to it. Lock order: sendMu before mu before the pool's own mu, which is
// only ever taken under sendMu (to count a dealt frame) and never held while
// taking a lane lock.
type shipLane[T any] struct {
	sendMu  sync.Mutex
	mu      sync.Mutex
	sess    *udfSession
	unacked []shipFrame[T]
	dead    bool // the lane is retired; no replacement could be dialled
}

// shipPool is the one shipping mechanism under the client-site operators. It
// deals frames across a pool of sessions, keeps each lane's unacknowledged
// frames, runs one reader per lane that matches every reply frame with the
// lane's oldest unacked frame (the client answers each frame with exactly one
// reply frame), and survives session loss: redial and replay, else degrade
// onto the surviving lanes, else fail with ErrSessionsExhausted. Traffic and
// fault counters are kept here for all of them.
//
// The pool fails at most once: the first error — from a session, a reply
// callback, the owning operator (fail), cancellation of the query context or
// close — is latched, closes failed and wakes every waiter.
type shipPool[T any] struct {
	shipPolicy[T]
	lanes   []*shipLane[T]
	factory sessionFactory
	faults  faultCounters
	ctx     context.Context // the query context, cancelled by close
	cancel  context.CancelFunc
	failed  chan struct{} // closed once err is set
	wg      sync.WaitGroup
	next    int // deal cursor; deal is called from one goroutine

	mu       sync.Mutex
	cond     *sync.Cond // signalled on every ack and failure
	err      error
	dealt    int64    // frames dealt
	acked    int64    // frames answered
	inflight int      // tuples dealt and not yet answered; replay moves none
	stats    NetStats // frames and tuples dealt, bytes of retired sessions
	live     int      // lanes still serving when the pool closed
}

// errShipPoolClosed is what close latches so that later errors (connection
// teardown noise) are dropped and every waiter wakes.
var errShipPoolClosed = errors.New("exec: client-site operator closed")

// newShipPool builds a pool that runs pol; open starts it. The two steps let
// the owning operator hold the pool before its sender starts.
func newShipPool[T any](pol shipPolicy[T]) *shipPool[T] {
	p := &shipPool[T]{shipPolicy: pol, failed: make(chan struct{})}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// open opens the sessions — each with its own Setup and session ID, all
// bound to the query context — and starts the pool. The lanes are
// dialled in lane order, so lane i is the link's i-th open (fault scripts
// count on it). Then every lane's Setup goes out at once, the lane readers
// start, and so does the policy's sender, before any SetupAck is in: a frame
// sent behind a Setup is served after it, so T lanes cost no setup round
// trip on the critical path. Each reader takes its session's first message
// as the ack. The open returns once every lane's setup has resolved — acked,
// replaced by recovery or retired — so a rejected setup or the query
// context still fails it: every session is then closed, the sender stopped,
// and the lowest failing lane's error returned.
func (p *shipPool[T]) open(ctx context.Context, link ClientLink) error {
	p.factory = sessionFactory{link: link, req: p.setup, retry: p.retry, stats: &p.faults}
	p.ctx, p.cancel = context.WithCancel(ctx)
	abandon := func(err error) error {
		p.close()
		return err
	}
	for range max(p.sessions, 1) {
		sess, err := dialUDFSession(ctx, link)
		if err != nil {
			return abandon(err)
		}
		p.lanes = append(p.lanes, &shipLane[T]{sess: sess})
	}
	setups := make([][]byte, len(p.lanes))
	for i, lane := range p.lanes {
		var err error
		if setups[i], err = lane.sess.setup(p.setup); err != nil {
			return abandon(err)
		}
	}
	// The Setups go out concurrently: a shaped link makes a session's first
	// write wait out the latency. A session lost here is recovered by its
	// reader like one lost later.
	var sent sync.WaitGroup
	for i, lane := range p.lanes {
		sent.Add(1)
		go func() {
			defer sent.Done()
			if lane.sess.conn.Send(wire.MsgSetup, setups[i]) != nil {
				lane.sess.abort()
			}
		}()
	}
	sent.Wait()
	p.wg.Add(len(p.lanes) + 1)
	// Waiters park on cond or failed, not on the context.
	go func() {
		defer p.wg.Done()
		select {
		case <-p.ctx.Done():
			p.fail(p.ctx.Err())
		case <-p.failed:
		}
	}()
	errs := make([]error, len(p.lanes))
	var resolved sync.WaitGroup
	resolved.Add(len(p.lanes))
	for i, lane := range p.lanes {
		go p.read(lane, func(err error) {
			errs[i] = err
			resolved.Done()
		})
	}
	if p.send != nil {
		p.start(p.send, p.done)
	}
	resolved.Wait()
	if err := cmp.Or(errs...); err != nil { // the lowest failing lane's
		return abandon(err)
	}
	return nil
}

// fail latches the pool's first error.
func (p *shipPool[T]) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
		close(p.failed)
	}
	p.mu.Unlock()
	p.cond.Broadcast()
}

// failure returns the latched error, if any.
func (p *shipPool[T]) failure() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// await blocks until ready holds or the pool fails. ready runs under the
// pool's lock after every acknowledged frame, so it may read the pool's
// counters, or anything a reply callback changed: a reply is handed to the
// policy before its frame counts as acknowledged.
func (p *shipPool[T]) await(ready func() bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.err == nil && !ready() {
		p.cond.Wait()
	}
	return p.err
}

// start runs the owning operator's sender on the pool, which close then
// waits for. Whatever stops send short — a panicking input operator
// included — fails the pool, and does so before done runs, so a receiver
// that done wakes cannot mistake the stop for a clean end of the stream.
func (p *shipPool[T]) start(send func(context.Context) error, done func()) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer done()
		defer func() {
			if rec := recover(); rec != nil {
				p.fail(fmt.Errorf("exec: client-site sender panicked: %v", rec))
			}
		}()
		if err := send(p.ctx); err != nil {
			p.fail(err)
		}
	}()
}

// ship parks frames on the lane's FIFO, runs parked (when non-nil), and then
// sends them; it reports false, parking nothing, on a dead lane. The send runs outside mu — the reader needs mu to drain
// replies, and a reply being drained is what unblocks this send on an
// unbuffered link — but under sendMu, so park+send stays atomic against
// recovery and migration. A send error is not reported: the frames are
// already parked, so the reader's recovery replays them; aborting the
// captured session (recovery may have swapped lane.sess already) is what
// kicks that reader out of its blocked receive.
func (lane *shipLane[T]) ship(frames []shipFrame[T], parked func()) bool {
	lane.sendMu.Lock()
	defer lane.sendMu.Unlock()
	lane.mu.Lock()
	if lane.dead {
		lane.mu.Unlock()
		return false
	}
	lane.unacked = append(lane.unacked, frames...)
	sess := lane.sess
	lane.mu.Unlock()
	if parked != nil {
		parked()
	}
	if err := replay(sess, frames); err != nil {
		sess.abort()
	}
	return true
}

// replay sends frames on sess.
func replay[T any](sess *udfSession, frames []shipFrame[T]) error {
	for _, f := range frames {
		if err := sess.sendBatch(f.tuples); err != nil {
			return err
		}
	}
	return nil
}

// deal ships one frame on the next live lane, round-robin, once the pool's
// window has room for its tuples: it waits until the frame fits beside the
// tuples in flight, or nothing is in flight. The frame counts as dealt and in
// flight once a lane has parked it, before its send, so a send blocked on
// link transfer is counted and a frame waiting for room is not. Only the
// dealer raises the count, so the room it waited for is still there when the
// frame is parked. It fails only when the pool has failed or no live lane is
// left.
func (p *shipPool[T]) deal(tuples []types.Tuple, tag T) error {
	if p.window > 0 {
		room := func() bool { return p.inflight == 0 || p.inflight+len(tuples) <= p.window }
		if err := p.await(room); err != nil {
			return err
		}
	}
	frame := []shipFrame[T]{{tuples: tuples, tag: tag}}
	count := func() {
		p.mu.Lock()
		p.dealt++
		p.inflight += len(tuples)
		p.stats.Messages++
		p.stats.Invocations += int64(len(tuples))
		p.mu.Unlock()
	}
	for i := range p.lanes {
		at := (p.next + i) % len(p.lanes)
		if p.lanes[at].ship(frame, count) {
			p.next = at + 1
			return nil
		}
	}
	// Latched here so that no waiter waits for a frame nobody carries.
	err := exhausted(fmt.Errorf("exec: no live session to send on"))
	p.fail(err)
	return err
}

// read drains one lane's reply stream, handing each reply to the policy with
// the lane's oldest unacknowledged frame — empty replies included, they keep
// the FIFO aligned — until the lane is retired or the pool fails. The first
// message of the lane's first session is its SetupAck; resolve reports the
// lane's setup exactly once: nil once the ack is in, the session replaced or
// the lane retired, else the error that stopped it. When the session dies mid-query —
// before its ack or after — the reader is also the recovery agent: being
// the sole consumer of the lane's FIFO, it can replay the unacked tail with
// no risk of racing its own pops.
func (p *shipPool[T]) read(lane *shipLane[T], resolve func(error)) {
	defer p.wg.Done()
	defer func() {
		if rec := recover(); rec != nil {
			p.fail(fmt.Errorf("exec: session reader panicked: %v", rec))
		}
		if resolve != nil {
			resolve(p.failure())
		}
	}()
	// The Tuples slice is recycled across frames; the decoded values live in
	// per-frame arenas and stay valid.
	var recv wire.TupleBatch
	for {
		lane.mu.Lock()
		sess, dead := lane.sess, lane.dead
		lane.mu.Unlock()
		if dead {
			return
		}
		msg, err := sess.conn.Receive()
		if err != nil {
			if !p.recoverLane(lane, sess, err) {
				return
			}
			if resolve != nil {
				// The replacement shook hands before it was installed.
				resolve(nil)
				resolve = nil
			}
			continue
		}
		if resolve != nil {
			err := sess.acknowledge(msg)
			resolve(err)
			resolve = nil
			if err != nil {
				p.fail(err)
				return
			}
			continue
		}
		switch msg.Type {
		case wire.MsgResultBatch:
			err = wire.DecodeTupleBatchInto(&recv, msg.Payload)
		case wire.MsgError:
			var e *wire.ErrorMsg
			if e, err = wire.DecodeError(msg.Payload); err == nil {
				err = fmt.Errorf("exec: client error: %s", e.Message)
			}
		default:
			err = fmt.Errorf("exec: unexpected message %s", msg.Type)
		}
		if err != nil {
			p.fail(err)
			return
		}
		lane.mu.Lock()
		if len(lane.unacked) == 0 {
			lane.mu.Unlock()
			p.fail(fmt.Errorf("exec: received more replies than frames sent"))
			return
		}
		frame := lane.unacked[0]
		lane.unacked[0] = shipFrame[T]{} // acknowledged: release the replay copy
		lane.unacked = lane.unacked[1:]
		lane.mu.Unlock()
		if err := p.onReply(frame, recv.Tuples); err != nil {
			p.fail(err)
			return
		}
		p.mu.Lock()
		p.acked++
		p.inflight -= len(frame.tuples)
		p.mu.Unlock()
		p.cond.Broadcast()
	}
}

// failoverBudget bounds the total session losses one query may absorb, so a
// link that keeps flapping cannot make recovery loop forever.
func (p *shipPool[T]) failoverBudget() int64 { return int64(4*len(p.lanes) + 16) }

// recoverLane handles a dead session on lane: replay the unacked FIFO on a
// redialled replacement, or degrade by migrating the FIFO to a surviving
// lane. It returns whether the lane's reader should keep reading.
func (p *shipPool[T]) recoverLane(lane *shipLane[T], failed *udfSession, cause error) bool {
	// First unblock anyone mid-send on the dead connection: recovery below
	// waits on the lane's send lock, and its holder can only release it once
	// its blocked write errors out.
	failed.abort()
	// Teardown and cancellation are not faults.
	if err := p.ctx.Err(); err != nil {
		p.fail(err)
		return false
	}
	if wire.Classify(cause) != wire.ClassRetryable {
		p.fail(cause)
		return false
	}
	if p.faults.failovers.Load() >= p.failoverBudget() {
		p.fail(fmt.Errorf("exec: failover budget exhausted: %w", cause))
		return false
	}
	p.faults.failovers.Add(1)
	repl, rerr := p.factory.redial(p.ctx)
	if rerr != nil && wire.Classify(rerr) == wire.ClassCanceled {
		p.fail(rerr)
		return false
	}
	lane.sendMu.Lock()
	lane.mu.Lock()
	if lane.dead {
		// close retired the lane while we redialled; nothing left to do.
		lane.mu.Unlock()
		lane.sendMu.Unlock()
		repl.close()
		return false
	}
	if rerr == nil {
		lane.sess = repl
		frames := slices.Clone(lane.unacked)
		lane.mu.Unlock()
		// Replay in its own goroutine while this reader resumes draining the
		// replacement: over an unbuffered link the client blocks writing its
		// reply to the first replayed frame until someone receives it, so a
		// synchronous replay here would deadlock. Holding the send lock until
		// the replay finishes keeps new frames behind the replayed tail in
		// wire order. FIFO acks guarantee a frame is only acknowledged (and
		// its replay copy released) after this loop has already re-sent it.
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			defer lane.sendMu.Unlock()
			if err := replay(repl, frames); err != nil {
				// The replacement died during replay; the reader's next
				// receive errors and recovery runs again, bounded by the
				// budget.
				repl.abort()
			}
		}()
		p.retire(failed)
		p.faults.replayed.Add(int64(len(frames)))
		return true
	}
	// Degradation: the lane is gone; re-deal its unacked frames to the first
	// surviving lane. The pool shrinks — possibly down to one session — and
	// only when frames are owed and no survivor is left does the query fail.
	p.faults.lost.Add(1)
	lane.dead = true
	orphans := lane.unacked
	lane.unacked = nil
	lane.mu.Unlock()
	lane.sendMu.Unlock()
	p.retire(failed)
	if !p.migrate(orphans) {
		p.fail(exhausted(cause))
	}
	return false
}

// migrate re-deals orphaned frames onto the first surviving lane. A failed
// send is not fatal here either: the frames are parked on the survivor first,
// so the survivor's own reader replays them. Owing nothing always succeeds:
// losing the last session after its final reply arrived is not an error.
func (p *shipPool[T]) migrate(orphans []shipFrame[T]) bool {
	if len(orphans) == 0 {
		return true
	}
	for _, lane := range p.lanes {
		if lane.ship(orphans, nil) {
			p.faults.replayed.Add(int64(len(orphans)))
			return true
		}
	}
	return false
}

// retire folds a finished session's traffic into the pool's stats and closes
// it.
func (p *shipPool[T]) retire(sess *udfSession) {
	p.mu.Lock()
	p.stats.BytesDown += sess.conn.BytesSent()
	p.stats.BytesUp += sess.conn.BytesReceived()
	p.mu.Unlock()
	sess.close()
}

// close retires every lane and returns once the readers and replays have
// exited. Closing the connections is what unblocks them (and a dealer that
// is mid-send) wherever they are parked, so it works both after a clean
// drain and when the consumer abandons the stream early.
func (p *shipPool[T]) close() {
	p.fail(errShipPoolClosed)
	p.cancel()
	live := 0
	for _, lane := range p.lanes {
		lane.mu.Lock()
		sess, dead := lane.sess, lane.dead
		lane.dead = true
		lane.mu.Unlock()
		if !dead {
			live++
			p.retire(sess)
		}
	}
	p.mu.Lock()
	p.live = live
	p.mu.Unlock()
	p.wg.Wait()
}

// netStats reports the pool's traffic: retired sessions' bytes are already
// folded into stats, sessions still serving contribute their running
// counters.
func (p *shipPool[T]) netStats() NetStats {
	if p == nil {
		return NetStats{}
	}
	p.mu.Lock()
	out := p.stats
	p.mu.Unlock()
	for _, lane := range p.lanes {
		lane.mu.Lock()
		if !lane.dead {
			out.BytesDown += lane.sess.conn.BytesSent()
			out.BytesUp += lane.sess.conn.BytesReceived()
		}
		lane.mu.Unlock()
	}
	return out
}

// faultStats reports the pool's fault-tolerance activity and how many lanes
// are still serving — or were when the pool closed, which retires them all.
func (p *shipPool[T]) faultStats() FaultStats {
	if p == nil {
		return FaultStats{}
	}
	p.mu.Lock()
	live := p.live
	p.mu.Unlock()
	for _, lane := range p.lanes {
		lane.mu.Lock()
		if !lane.dead {
			live++
		}
		lane.mu.Unlock()
	}
	return p.faults.snapshot(live)
}
