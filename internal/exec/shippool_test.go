package exec

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"csq/internal/client"
	"csq/internal/netsim"
	"csq/internal/types"
	"csq/internal/wire"
)

// poolRig drives a shipPool directly, with no operator above it: frames are
// tagged with their deal sequence number and the reply callback records the
// order the tags come back in, checking that each reply really answers the
// frame it was handed with — which is what per-lane FIFO matching guarantees.
type poolRig struct {
	pool *shipPool[int]
	mu   sync.Mutex
	tags []int
}

// rigFrameTuples is how many argument tuples a rig frame carries. Every frame
// encodes to the same size, so fault thresholds can be placed mid-frame.
const rigFrameTuples = 4

// rigFrame builds the frame with the given tag.
func rigFrame(tag int) []types.Tuple {
	frame := make([]types.Tuple, rigFrameTuples)
	for i := range frame {
		samples := make([]float64, 32)
		samples[0], samples[31] = 100, 101+float64(tag*rigFrameTuples+i)
		frame[i] = types.NewTuple(types.NewTimeSeries(types.TimeSeries(samples)))
	}
	return frame
}

// openShipPool builds a pool and opens it, as an operator's Open does.
func openShipPool[T any](ctx context.Context, link ClientLink, pol shipPolicy[T]) (*shipPool[T], error) {
	p := newShipPool(pol)
	if err := p.open(ctx, link); err != nil {
		return nil, err
	}
	return p, nil
}

func openRig(t *testing.T, link ClientLink, lanes int) *poolRig {
	t.Helper()
	rig := &poolRig{}
	var err error
	pol := rigPolicy(lanes)
	pol.onReply = rig.onReply
	rig.pool, err = openShipPool(context.Background(), link, pol)
	if err != nil {
		t.Fatal(err)
	}
	return rig
}

// rigPolicy is the semi-join policy the rig's pools run, less the reply
// callback, which a pool that carries no frame never calls.
func rigPolicy(lanes int) shipPolicy[int] {
	return shipPolicy[int]{
		setup: &wire.SetupRequest{
			Mode:        wire.ModeSemiJoin,
			InputSchema: types.NewSchema(types.Column{Name: "Quotes", Kind: types.KindTimeSeries}),
			UDFs:        []wire.UDFSpec{{Name: "ClientAnalysis", ArgOrdinals: []int{0}}},
		},
		sessions: lanes,
		retry:    RetryConfig{Backoff: time.Millisecond},
	}
}

func (r *poolRig) onReply(f shipFrame[int], reply []types.Tuple) error {
	if len(reply) != len(f.tuples) {
		return fmt.Errorf("frame %d: %d arguments, %d results", f.tag, len(f.tuples), len(reply))
	}
	for i, res := range reply {
		ts, _ := f.tuples[i][0].Series()
		if got, _ := res[0].Int(); got != expectedRating(ts) {
			return fmt.Errorf("frame %d answered with another frame's reply: result %d is %d, want %d", f.tag, i, got, expectedRating(ts))
		}
	}
	r.mu.Lock()
	r.tags = append(r.tags, f.tag)
	r.mu.Unlock()
	return nil
}

// deal deals the frames tagged from..to-1 back to back, so that over the
// unbuffered link the client is regularly blocked writing a reply while the
// dealer is mid-send on the same session.
func (r *poolRig) deal(from, to int) error {
	for tag := from; tag < to; tag++ {
		if err := r.pool.deal(rigFrame(tag), tag); err != nil {
			return err
		}
	}
	return nil
}

// answered waits until every dealt frame has been acknowledged.
func (r *poolRig) answered() error {
	return r.pool.await(func() bool { return r.pool.acked == r.pool.dealt })
}

// rigSizes measures, on a fault-free session, the downlink bytes of the setup
// handshake and of one frame.
func rigSizes(t *testing.T) (setup, frame int64) {
	t.Helper()
	rig := openRig(t, fastLink(t), 1)
	defer rig.pool.close()
	setup = rig.pool.netStats().BytesDown
	if err := errors.Join(rig.deal(0, 1), rig.answered()); err != nil {
		t.Fatal(err)
	}
	return setup, rig.pool.netStats().BytesDown - setup
}

// TestShipPoolSendPathInvariant walks the whole recovery ladder on the pool
// itself, over net.Pipe-backed sessions (nothing is buffered: a write
// completes only when the peer reads it). Lane 1's session is severed in the
// middle of its third frame; the redialled replacement answers the replayed
// tail and is severed in the middle of its fourth frame; the next one is
// severed in the middle of the first replayed frame; every later dial is
// refused, so the lane degrades and its unacknowledged frames migrate to
// lane 0. Every frame must be answered exactly once, each lane's callbacks in
// its send order.
func TestShipPoolSendPathInvariant(t *testing.T) {
	baseline := grCount()
	setup, frame := rigSizes(t)
	script := netsim.NewFaultScript(1).
		Set(0, netsim.FaultConfig{}).
		Set(1, netsim.FaultConfig{DropAfterBytes: setup + 2*frame + frame/2}).
		Set(2, netsim.FaultConfig{DropAfterBytes: setup + 3*frame + frame/2}).
		Set(3, netsim.FaultConfig{DropAfterBytes: setup + frame/2}).
		SetDefault(netsim.FaultConfig{RefuseDial: true})
	rig := openRig(t, faultyLink(t, script), 2)
	// While both lanes live the deal alternates: even tags ride lane 0, odd
	// tags lane 1. The second half is dealt once the ladder has run its
	// course, onto the one lane left.
	const half = 16
	if err := errors.Join(rig.deal(0, half), rig.answered()); err != nil {
		t.Fatalf("first half: %v", err)
	}
	if err := errors.Join(rig.deal(half, 2*half), rig.answered()); err != nil {
		t.Fatalf("second half: %v", err)
	}
	stats := rig.pool.faultStats()
	rig.pool.close()
	assertNoLeak(t, baseline)

	if stats.Failovers != 3 || stats.Redials != 2 || stats.SessionsLost != 1 || stats.FinalSessions != 1 {
		t.Errorf("fault stats = %+v, want 3 failovers, 2 redials, 1 session lost, 1 final session", stats)
	}
	// Each death leaves at least the severed frame unacknowledged.
	if stats.ReplayedFrames < 3 {
		t.Errorf("replayed %d frames, want at least one per failover", stats.ReplayedFrames)
	}
	if len(rig.tags) != 2*half {
		t.Fatalf("%d callbacks for %d frames: %v", len(rig.tags), 2*half, rig.tags)
	}
	// Per-lane FIFO: the even tags (lane 0 throughout), the odd tags of the
	// first half (lane 1, its replacements, then migrated as one block) and
	// the second half (lane 0) each come back in deal order, and the second
	// half after all of the first.
	last := map[string]int{}
	for pos, tag := range rig.tags {
		stream := "even"
		switch {
		case tag >= half:
			stream = "second half"
		case tag%2 == 1:
			stream = "odd"
		}
		if prev, seen := last[stream]; seen && tag <= prev {
			t.Errorf("callback %d: tag %d after %d on the %s stream: %v", pos, tag, prev, stream, rig.tags)
		}
		last[stream] = tag
		if (tag >= half) != (pos >= half) {
			t.Errorf("callback %d: tag %d crosses the halves: %v", pos, tag, rig.tags)
		}
	}
}

// TestShipPoolFailoverBudget flaps lane 1 forever: every redial succeeds and
// every replacement is severed in the middle of the first replayed frame.
// Recovery must stop at the budget instead of looping, and close must still
// join every reader and replay goroutine.
func TestShipPoolFailoverBudget(t *testing.T) {
	baseline := grCount()
	setup, frame := rigSizes(t)
	script := netsim.NewFaultScript(1).
		Set(0, netsim.FaultConfig{}).
		SetDefault(netsim.FaultConfig{DropAfterBytes: setup + frame/2})
	rig := openRig(t, faultyLink(t, script), 2)
	err := errors.Join(rig.deal(0, 4), rig.answered())
	stats := rig.pool.faultStats()
	rig.pool.close()
	assertNoLeak(t, baseline)

	if err == nil || errors.Is(err, ErrSessionsExhausted) {
		t.Errorf("err = %v, want the failover budget error", err)
	}
	if want := int64(4*2 + 16); stats.Failovers != want || stats.Redials != want {
		t.Errorf("fault stats = %+v, want %d failovers and redials", stats, want)
	}
	for _, tag := range rig.tags {
		if tag%2 == 1 {
			t.Errorf("frame %d was answered on a lane that never carried a whole frame", tag)
		}
	}
}

// barrierClient is a fake client link over net.Pipe whose sessions ack no
// Setup until every one of the pool's lanes has sent its own: a pool that
// opens its lanes one handshake at a time never gets an ack. Dialling ordinal
// refuse fails; the lanes in reject answer their Setup with OK=false; with
// hold set, no Setup is ever answered.
type barrierClient struct {
	lanes  int
	refuse int // ordinal whose dial is refused; -1 for none
	reject map[int]bool
	hold   bool

	mu       sync.Mutex
	dialled  int
	setups   int
	ids      map[uint64]bool // session IDs the Setups carried
	allSetup chan struct{}   // closed once every lane's Setup has arrived
	stop     chan struct{}   // closed by the test to release waiting sessions
	served   sync.WaitGroup  // fake-client sessions not yet closed
}

func newBarrierClient(lanes int) *barrierClient {
	return &barrierClient{
		lanes:    lanes,
		refuse:   -1,
		ids:      map[uint64]bool{},
		allSetup: make(chan struct{}),
		stop:     make(chan struct{}),
	}
}

func (c *barrierClient) OpenSession(context.Context) (*wire.Conn, error) {
	c.mu.Lock()
	lane := c.dialled
	c.dialled++
	c.mu.Unlock()
	if lane == c.refuse {
		return nil, fmt.Errorf("lane %d: %w", lane, netsim.ErrDialRefused)
	}
	server, client := net.Pipe()
	c.served.Add(1)
	go c.serve(wire.NewConn(client), lane)
	return wire.NewConn(server), nil
}

func (c *barrierClient) serve(conn *wire.Conn, lane int) {
	defer c.served.Done()
	defer conn.Close()
	msg, err := conn.Receive()
	if err != nil {
		return
	}
	req, err := wire.DecodeSetup(msg.Payload)
	if err != nil {
		return
	}
	c.mu.Lock()
	c.ids[req.SessionID] = true
	if c.setups++; c.setups == c.lanes {
		close(c.allSetup)
	}
	c.mu.Unlock()
	select {
	case <-c.allSetup:
	case <-c.stop:
		return
	}
	if !c.hold {
		ack := wire.SetupAck{SessionID: req.SessionID, OK: !c.reject[lane]}
		if !ack.OK {
			ack.Error = fmt.Sprintf("lane %d rejected", lane)
		}
		if conn.Send(wire.MsgSetupAck, wire.EncodeSetupAck(&ack)) != nil {
			return
		}
	}
	// Keep the session until the server closes it.
	for {
		if _, err := conn.Receive(); err != nil {
			return
		}
	}
}

// closed waits until the server has closed every session the client served.
func (c *barrierClient) closed(t *testing.T) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		c.served.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a session the pool opened was never closed")
	}
}

// TestShipPoolOpensLanesConcurrently opens a pool against a client that holds
// every SetupAck until all lanes have sent their Setup: the open completes
// only if the lanes shake hands concurrently.
func TestShipPoolOpensLanesConcurrently(t *testing.T) {
	const lanes = 4
	baseline := grCount()
	client := newBarrierClient(lanes)
	defer close(client.stop)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	pool, err := openShipPool(ctx, client, rigPolicy(lanes))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if len(pool.lanes) != lanes || len(client.ids) != lanes {
		t.Errorf("%d lanes over %d distinct session IDs, want %d of each", len(pool.lanes), len(client.ids), lanes)
	}
	for i, lane := range pool.lanes {
		if !client.ids[lane.sess.id] {
			t.Errorf("lane %d: session ID %d was never sent", i, lane.sess.id)
		}
	}
	pool.close()
	client.closed(t)
	assertNoLeak(t, baseline)
}

// TestShipPoolOpenFailure fails one lane of the open in each way a lane can
// fail — its dial, its ack, the query context mid-handshake — and checks that
// the open returns the lowest failing lane's error, closes every session it
// opened and leaves no goroutine behind, so no reader was started.
func TestShipPoolOpenFailure(t *testing.T) {
	const lanes = 4
	cases := []struct {
		name  string
		setup func(c *barrierClient, cancel context.CancelFunc)
		check func(t *testing.T, c *barrierClient, err error)
	}{{
		name:  "dial refused",
		setup: func(c *barrierClient, _ context.CancelFunc) { c.refuse = 2 },
		check: func(t *testing.T, c *barrierClient, err error) {
			if !errors.Is(err, netsim.ErrDialRefused) {
				t.Errorf("err = %v, want the refused dial", err)
			}
			if c.dialled != 3 {
				t.Errorf("%d dials, want the lanes up to the refused one", c.dialled)
			}
		},
	}, {
		name: "setup rejected",
		setup: func(c *barrierClient, _ context.CancelFunc) {
			c.reject = map[int]bool{1: true, 3: true}
		},
		check: func(t *testing.T, _ *barrierClient, err error) {
			if err == nil || !strings.Contains(err.Error(), "lane 1 rejected") {
				t.Errorf("err = %v, want lane 1's rejection", err)
			}
		},
	}, {
		name: "cancelled mid-handshake",
		setup: func(c *barrierClient, cancel context.CancelFunc) {
			c.hold = true
			go func() {
				select {
				case <-c.allSetup:
					cancel()
				case <-c.stop:
				}
			}()
		},
		check: func(t *testing.T, _ *barrierClient, err error) {
			if !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, want context.Canceled", err)
			}
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseline := grCount()
			client := newBarrierClient(lanes)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			tc.setup(client, cancel)
			pool, err := openShipPool(ctx, client, rigPolicy(lanes))
			if pool != nil {
				pool.close()
				t.Fatal("open succeeded")
			}
			tc.check(t, client, err)
			client.closed(t)
			close(client.stop)
			assertNoLeak(t, baseline)
		})
	}
}

// relayClient is a fake client link that relays every session to a real
// client runtime and records, per session in open order, the type of every
// message the server sent. The first hold sessions have their SetupAck
// withheld until their first tuple frame has arrived, so a pool that waits
// for an ack before it deals never gets one; where sever[i] is set, session i
// is cut at that frame instead, its ack never sent. With window set, no
// reply goes out until window argument tuples have once been outstanding
// across all sessions — sent by the server and not yet answered to it.
type relayClient struct {
	rt     *client.Runtime
	hold   int
	sever  map[int]bool
	window int

	mu     sync.Mutex
	down   [][]wire.MsgType // server messages per session
	preAck []int            // how many of them arrived before the ack went out
	out    int              // argument tuples outstanding, under window
	peak   int              // the most ever outstanding
	filled chan struct{}    // closed once window tuples were outstanding
	served sync.WaitGroup
}

// batchLen is the number of tuples in a tuple or result batch.
func batchLen(msg wire.Message) (int, error) {
	var b wire.TupleBatch
	err := wire.DecodeTupleBatchInto(&b, msg.Payload)
	return len(b.Tuples), err
}

// outstanding adds n argument tuples to those outstanding, which a negative
// n answers, and releases the replies once the window is full.
func (c *relayClient) outstanding(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.out += n
	c.peak = max(c.peak, c.out)
	select {
	case <-c.filled:
	default:
		if c.out >= c.window {
			close(c.filled)
		}
	}
}

// release waits until the window has been full, or the server has closed
// the session (gone), which it reports as false; filled is the channel the
// window closes.
func release(filled, gone <-chan struct{}) bool {
	select {
	case <-filled:
		return true
	case <-gone:
		return false
	}
}

// peakOutstanding is the most argument tuples ever outstanding under the
// window.
func (c *relayClient) peakOutstanding() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peak
}

func (c *relayClient) OpenSession(context.Context) (*wire.Conn, error) {
	serverEnd, relayDown := net.Pipe()
	relayUp, runtimeEnd := net.Pipe()
	c.mu.Lock()
	sess := len(c.down)
	c.down = append(c.down, nil)
	c.preAck = append(c.preAck, -1)
	if c.filled == nil {
		c.filled = make(chan struct{})
	}
	filled, gone := c.filled, make(chan struct{})
	c.mu.Unlock()
	down, up, rt := wire.NewConn(relayDown), wire.NewConn(relayUp), wire.NewConn(runtimeEnd)
	framed := make(chan struct{})
	var once sync.Once
	c.served.Add(4)
	go func() {
		defer c.served.Done()
		_ = c.rt.ServeConn(rt)
		_ = rt.Close()
	}()
	go func() { // server to runtime
		defer c.served.Done()
		defer up.Close()
		defer once.Do(func() { close(framed) })
		defer close(gone)
		for {
			msg, err := down.Receive()
			if err != nil {
				return
			}
			c.mu.Lock()
			c.down[sess] = append(c.down[sess], msg.Type)
			c.mu.Unlock()
			if msg.Type == wire.MsgTupleBatch {
				if c.sever[sess] {
					_ = down.Close()
					return
				}
				once.Do(func() { close(framed) })
				if c.window > 0 {
					n, err := batchLen(msg)
					if err != nil {
						return
					}
					c.outstanding(n)
				}
			}
			if up.Send(msg.Type, msg.Payload) != nil {
				return
			}
		}
	}()
	// Under a window the client's messages queue, so the runtime never
	// blocks writing a reply the relay withholds; otherwise the relay passes
	// the client's backpressure on.
	queue := 0
	if c.window > 0 {
		queue = 1024
	}
	replies := make(chan wire.Message, queue)
	go func() { // runtime to relay
		defer c.served.Done()
		defer close(replies)
		for {
			msg, err := up.Receive()
			if err != nil {
				return
			}
			if msg.Type == wire.MsgSetupAck {
				if sess < c.hold {
					<-framed
				}
				c.mu.Lock()
				c.preAck[sess] = len(c.down[sess])
				c.mu.Unlock()
			}
			replies <- msg
		}
	}()
	go func() { // relay to server
		defer c.served.Done()
		for msg := range replies {
			if c.window > 0 && msg.Type == wire.MsgResultBatch {
				n, err := batchLen(msg)
				if err != nil || !release(filled, gone) {
					break
				}
				c.outstanding(-n)
			}
			if down.Send(msg.Type, msg.Payload) != nil {
				break
			}
		}
		_ = down.Close()
		for range replies {
		}
	}()
	return wire.NewConn(serverEnd), nil
}

// sent returns the server's messages on each session and how many of them
// came before the session's ack.
func (c *relayClient) sent() ([][]wire.MsgType, []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	down := make([][]wire.MsgType, len(c.down))
	for i, d := range c.down {
		down[i] = slices.Clone(d)
	}
	return down, slices.Clone(c.preAck)
}

// checkRatings checks that got is rows, in order, each extended with its
// rating.
func checkRatings(t *testing.T, got, rows []types.Tuple) {
	t.Helper()
	if len(got) != len(rows) {
		t.Fatalf("%d rows, want %d", len(got), len(rows))
	}
	for i, r := range got {
		ts, _ := rows[i][2].Series()
		if v, _ := r[3].Int(); v != expectedRating(ts) {
			t.Errorf("row %d rating = %d, want %d", i, v, expectedRating(ts))
		}
	}
}

// semiJoinReach is a semi-join concurrency factor whose window lets the
// sender reach each of three lanes with a frame before the receiver drains
// anything: two 32-tuple frames at once, the third as soon as one is
// answered. The relay acks a lane only once it has a frame, and Open returns
// only once every lane is acked.
const semiJoinReach = 64

// TestShipPoolFramesBeforeAck runs both strategies against a client that
// acks no Setup until the session's first tuple frame has arrived: the query
// completes only if frames follow the Setup without waiting for its ack, and
// what precedes the ack is the Setup and tuple batches only.
func TestShipPoolFramesBeforeAck(t *testing.T) {
	const lanes = 3
	rows := stockRows(96)
	builders := map[string]func(link ClientLink) (Operator, error){
		"SemiJoin": func(link ClientLink) (Operator, error) {
			op, err := NewSemiJoin(NewValuesScan(stockSchema(), rows), link, []UDFBinding{analysisBinding()})
			if err == nil {
				op.Sessions = lanes
				op.ConcurrencyFactor = semiJoinReach
			}
			return op, err
		},
		"ClientJoin": func(link ClientLink) (Operator, error) {
			op, err := NewClientJoin(NewValuesScan(stockSchema(), rows), link, []UDFBinding{analysisBinding()})
			if err == nil {
				op.Sessions = lanes
			}
			return op, err
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			baseline := grCount()
			link := &relayClient{rt: newAnalysisRuntime(t), hold: lanes}
			op, err := build(link)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			got, err := Collect(ctx, op)
			if err != nil {
				t.Fatal(err)
			}
			checkRatings(t, got, rows)
			link.served.Wait()
			assertNoLeak(t, baseline)
			down, preAck := link.sent()
			if len(down) != lanes {
				t.Fatalf("%d sessions, want %d", len(down), lanes)
			}
			for i, msgs := range down {
				if preAck[i] < 2 {
					t.Errorf("session %d: %d messages before the ack, want the Setup and a frame: %v", i, preAck[i], msgs)
					continue
				}
				for _, m := range msgs[1:preAck[i]] {
					if m != wire.MsgTupleBatch {
						t.Errorf("session %d: %s before the ack, want tuple batches only: %v", i, m, msgs)
					}
				}
			}
		})
	}
}

// TestShipPoolRecoversSessionLostBeforeAck cuts one session of three at its
// first frame, before its ack was sent: the frames already parked on it are
// replayed on a redialled session, exactly as for a session lost later.
func TestShipPoolRecoversSessionLostBeforeAck(t *testing.T) {
	const lanes = 3
	baseline := grCount()
	rows := stockRows(96)
	link := &relayClient{rt: newAnalysisRuntime(t), hold: lanes, sever: map[int]bool{1: true}}
	op, err := NewSemiJoin(NewValuesScan(stockSchema(), rows), link, []UDFBinding{analysisBinding()})
	if err != nil {
		t.Fatal(err)
	}
	op.Sessions, op.ConcurrencyFactor = lanes, semiJoinReach
	op.Retry = RetryConfig{Backoff: time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	got, err := Collect(ctx, op)
	if err != nil {
		t.Fatal(err)
	}
	checkRatings(t, got, rows)
	link.served.Wait()
	assertNoLeak(t, baseline)
	if stats := op.FaultStats(); stats.Failovers != 1 || stats.Redials != 1 || stats.ReplayedFrames < 1 || stats.FinalSessions != lanes {
		t.Errorf("fault stats = %+v, want 1 failover, 1 redial, the cut frame replayed, %d final sessions", stats, lanes)
	}
}

// TestShipPoolSendsNoEnd counts the End markers each client-site operator
// sends: none on any lane. Every reply arriving is the end of the stream, and
// closing the pool ends the sessions.
func TestShipPoolSendsNoEnd(t *testing.T) {
	const lanes = 3
	rows := stockRows(60)
	operators := map[string]func(Operator, ClientLink) (Operator, error){
		"ClientJoin": func(in Operator, link ClientLink) (Operator, error) {
			op, err := NewClientJoin(in, link, []UDFBinding{analysisBinding()})
			if err == nil {
				op.Sessions = lanes
			}
			return op, err
		},
		"SemiJoin": func(in Operator, link ClientLink) (Operator, error) {
			op, err := NewSemiJoin(in, link, []UDFBinding{analysisBinding()})
			if err == nil {
				op.Sessions = lanes
			}
			return op, err
		},
	}
	for name, build := range operators {
		t.Run(name, func(t *testing.T) {
			link := &relayClient{rt: newAnalysisRuntime(t)}
			op, err := build(NewValuesScan(stockSchema(), rows), link)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Collect(context.Background(), op)
			if err != nil {
				t.Fatal(err)
			}
			link.served.Wait()
			checkRatings(t, got, rows)
			down, _ := link.sent()
			if len(down) != lanes {
				t.Fatalf("%d sessions, want %d", len(down), lanes)
			}
			for i, msgs := range down {
				if ends := countType(msgs, wire.MsgEnd); ends != 0 {
					t.Errorf("session %d: %d End markers, want none: %v", i, ends, msgs)
				}
			}
		})
	}
}

func countType(msgs []wire.MsgType, typ wire.MsgType) int {
	n := 0
	for _, m := range msgs {
		if m == typ {
			n++
		}
	}
	return n
}

// repeatedRows returns n stock rows whose argument series repeats for repeat
// consecutive rows.
func repeatedRows(n, repeat int) []types.Tuple {
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.NewTuple(types.NewString("X"), types.NewFloat(float64(i)),
			types.NewTimeSeries(types.TimeSeries{100, 100 + float64(i/repeat)}))
	}
	return rows
}

// TestShipPoolWindowCountsTuples runs a semi-join against a client that
// answers nothing until ConcurrencyFactor argument tuples are outstanding.
// Every argument repeats in 8 consecutive rows, so an input batch of 32
// records carries only 4 of them: the query completes only if the window
// counts the tuples on the link, whatever the records parked behind them.
// The client must never see more than the factor outstanding, across every
// session, and at factor 1, the naive strategy, one tuple at a time.
func TestShipPoolWindowCountsTuples(t *testing.T) {
	const repeat = 8
	rows := repeatedRows(512, repeat)
	for _, tc := range []struct{ factor, lanes int }{{32, 1}, {32, 3}, {1, 1}} {
		t.Run(fmt.Sprintf("factor=%d/lanes=%d", tc.factor, tc.lanes), func(t *testing.T) {
			baseline := grCount()
			link := &relayClient{rt: newAnalysisRuntime(t), window: tc.factor}
			op, err := NewSemiJoin(NewValuesScan(stockSchema(), rows), link, []UDFBinding{analysisBinding()})
			if err != nil {
				t.Fatal(err)
			}
			op.ConcurrencyFactor, op.Sessions = tc.factor, tc.lanes
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			got, err := Collect(ctx, op)
			link.served.Wait()
			assertNoLeak(t, baseline)
			if err != nil {
				t.Fatal(err)
			}
			checkRatings(t, got, rows)
			if peak := link.peakOutstanding(); peak > tc.factor {
				t.Errorf("%d argument tuples outstanding at the client, want at most %d", peak, tc.factor)
			}
			if st := op.NetStats(); st.Invocations != int64(len(rows)/repeat) {
				t.Errorf("%d arguments shipped, want %d", st.Invocations, len(rows)/repeat)
			}
		})
	}
}
