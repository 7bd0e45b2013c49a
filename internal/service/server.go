package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"csq/internal/exec"
	"csq/internal/expr"
	"csq/internal/lang"
	"csq/internal/logical"
	"csq/internal/types"
	"csq/internal/wire"
)

// Server is the wire front-end of a Service: it listens for requester
// connections speaking the framed protocol's MsgQuery/MsgCancel extension and
// streams query results back as result frames (SessionID = query ID; in the
// stream-dictionary encoding for requesters that negotiated
// wire.CapResultStream, as plain MsgResultBatch frames otherwise) terminated
// by MsgEnd, or MsgError on failure.
//
// One connection multiplexes any number of concurrent queries. A requester
// may also announce client UDF metadata with MsgRegisterUDF frames (upserted
// into the service catalog), exactly as the client runtime's Announce does.
//
// Capabilities are negotiated like the dict-batch flag: the QuerySpec carries
// requested capability bits, the MsgQueryAck echoes the supported subset, and
// a requester only uses what was echoed — so both directions degrade
// gracefully against older peers.
type Server struct {
	svc *Service

	// streams counts in-flight result-stream goroutines, so Shutdown can
	// wait for every admitted query's terminal frame to flush before the
	// connections drop.
	streams sync.WaitGroup

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
}

// DefaultWriteStallTimeout bounds how long one result-frame write to a
// requester may block. A requester that dies silently (or stops reading)
// would otherwise wedge its queries' streaming sends forever — holding
// admission slots past any deadline, since the shared control connection
// cannot be bound to a single query's context.
const DefaultWriteStallTimeout = 30 * time.Second

// stallGuardConn arms a fresh write deadline before every write, so a peer
// that stops reading fails the writer within the stall timeout instead of
// blocking it forever. Reads are unaffected (the control loop legitimately
// idles waiting for the next request).
type stallGuardConn struct {
	net.Conn
}

func (c *stallGuardConn) Write(p []byte) (int, error) {
	_ = c.Conn.SetWriteDeadline(time.Now().Add(DefaultWriteStallTimeout))
	return c.Conn.Write(p)
}

// serverCaps is the capability subset this server supports, and what a
// Requester asks for: every live row of the wire package's table.
var serverCaps = wire.AllCaps()

// NewServer builds a wire front-end over the service.
func NewServer(svc *Service) *Server {
	return &Server{svc: svc, conns: make(map[net.Conn]struct{})}
}

// Serve accepts requester connections on ln until the listener closes or
// Close is called.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("service: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("service: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

// ListenAndServe listens on addr and serves.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("service: listen %s: %w", addr, err)
	}
	return s.Serve(ln)
}

// Addr returns the listener address, when serving.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, closes every requester connection (cancelling the
// queries they own) and shuts the service down.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.svc.Close()
}

// Shutdown drains the server gracefully: it stops accepting connections,
// drains the service (running queries finish, queued and new ones are shed
// with typed draining rejects), waits for every admitted query's result
// stream to flush its terminal frame, then closes the requester connections.
// If ctx expires first the stragglers are cancelled and the connections are
// closed anyway. It returns ctx's error when the drain timed out.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	if alreadyClosed {
		return nil
	}
	err := s.svc.Shutdown(ctx)
	// Every query is terminal now; its stream goroutine only has the End (or
	// Error/Reject) frame left to write. Give those writes until ctx expires.
	flushed := make(chan struct{})
	go func() {
		s.streams.Wait()
		close(flushed)
	}()
	select {
	case <-flushed:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	return err
}

// handleConn is one requester connection's control loop.
func (s *Server) handleConn(nc net.Conn) {
	conn := wire.NewConn(&stallGuardConn{Conn: nc})
	owned := &connQueries{queries: make(map[uint64]*Query)}
	// Prepared statements live for the connection; they hold no slots or
	// sessions, so disconnect cleanup is just letting the map go.
	stmts := make(map[uint64]*connStatement)
	defer func() {
		// A dying requester connection cancels every query it owns; the
		// per-query contexts tear their UDF sessions down.
		owned.Lock()
		qs := make([]*Query, 0, len(owned.queries))
		for _, q := range owned.queries {
			qs = append(qs, q)
		}
		owned.Unlock()
		for _, q := range qs {
			q.Cancel()
		}
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
	}()

	for {
		msg, err := conn.Receive()
		if err != nil {
			return // disconnect (clean or not) ends the control loop
		}
		switch msg.Type {
		case wire.MsgRegisterUDF:
			reg, err := wire.DecodeRegisterUDF(msg.Payload)
			if err != nil {
				_ = s.sendError(conn, 0, fmt.Sprintf("bad registration: %v", err))
				continue
			}
			if _, err := s.svc.cat.RegisterClientUDF(reg); err != nil {
				_ = s.sendError(conn, 0, err.Error())
			}
		case wire.MsgEnd:
			// End of an announcement burst (client.Runtime.Announce sends
			// one); nothing to do.
		case wire.MsgQuery:
			spec, err := wire.DecodeQuerySpec(msg.Payload)
			if err != nil {
				_ = s.sendError(conn, 0, fmt.Sprintf("bad query: %v", err))
				continue
			}
			// A peer-chosen QueryID that is already in flight on this
			// connection would interleave two result streams under one ID
			// and orphan the earlier query; reject it up front.
			owned.Lock()
			_, dup := owned.queries[spec.QueryID]
			owned.Unlock()
			var req Request
			if dup {
				err = fmt.Errorf("query ID %d is already in flight on this connection", spec.QueryID)
			} else {
				req, err = s.buildRequest(conn, spec)
			}
			ack := &wire.QueryAck{QueryID: spec.QueryID, OK: err == nil, Caps: spec.Caps & serverCaps}
			if err != nil {
				ack.Error = err.Error()
			}
			// The ack goes out before the query is submitted, so no result
			// batch can beat it onto the wire.
			if sendErr := conn.Send(wire.MsgQueryAck, wire.EncodeQueryAck(ack)); sendErr != nil {
				return
			}
			if err != nil {
				continue
			}
			s.submitStream(conn, owned, ack.Caps, spec.QueryID, func() (*Query, error) {
				return s.svc.Submit(context.Background(), req)
			})
		case wire.MsgPrepare:
			// A prepared statement arrives as a QuerySpec whose QueryID is the
			// statement ID; the tree is built (and a textual query compiled)
			// once, here, and executions reference the statement by ID.
			spec, err := wire.DecodeQuerySpec(msg.Payload)
			if err != nil {
				_ = s.sendError(conn, 0, fmt.Sprintf("bad prepare: %v", err))
				continue
			}
			var ps *PreparedStatement
			if _, dup := stmts[spec.QueryID]; dup {
				err = fmt.Errorf("statement ID %d is already prepared on this connection", spec.QueryID)
			} else {
				var req Request
				if req, err = s.buildStatementTemplate(spec); err == nil {
					ps, err = s.svc.Prepare(req)
				}
			}
			ack := &wire.QueryAck{QueryID: spec.QueryID, OK: err == nil, Caps: spec.Caps & serverCaps}
			if err != nil {
				ack.Error = err.Error()
			} else {
				stmts[spec.QueryID] = &connStatement{ps: ps, caps: ack.Caps}
			}
			if sendErr := conn.Send(wire.MsgPrepareAck, wire.EncodeQueryAck(ack)); sendErr != nil {
				return
			}
		case wire.MsgExecPrepared:
			ep, err := wire.DecodeExecPrepared(msg.Payload)
			if err != nil {
				_ = s.sendError(conn, 0, fmt.Sprintf("bad exec prepared: %v", err))
				continue
			}
			st := stmts[ep.StatementID]
			if st == nil {
				_ = s.sendError(conn, ep.QueryID, fmt.Sprintf("statement %d is not prepared on this connection", ep.StatementID))
				continue
			}
			owned.Lock()
			_, dup := owned.queries[ep.QueryID]
			owned.Unlock()
			if dup {
				_ = s.sendError(conn, ep.QueryID, fmt.Sprintf("query ID %d is already in flight on this connection", ep.QueryID))
				continue
			}
			over := Request{Tenant: ep.Tenant, MemBudget: ep.MemBudget, Frames: frameSink(conn, ep.QueryID, st.caps)}
			if ep.TimeoutMillis > 0 {
				over.Timeout = time.Duration(ep.TimeoutMillis) * time.Millisecond
			}
			s.submitStream(conn, owned, st.caps, ep.QueryID, func() (*Query, error) {
				return st.ps.Submit(context.Background(), over)
			})
		case wire.MsgCancel:
			c, err := wire.DecodeCancel(msg.Payload)
			if err != nil {
				_ = s.sendError(conn, 0, fmt.Sprintf("bad cancel: %v", err))
				continue
			}
			owned.Lock()
			q := owned.queries[c.QueryID]
			owned.Unlock()
			if q != nil {
				q.Cancel()
			}
		default:
			_ = s.sendError(conn, 0, fmt.Sprintf("unexpected message %s", msg.Type))
		}
	}
}

// connQueries is the set of in-flight queries one requester connection owns,
// by their peer-chosen query IDs.
type connQueries struct {
	sync.Mutex
	queries map[uint64]*Query
}

// submitStream submits one query for a requester connection and, once it is
// admitted, streams its result from a goroutine that Shutdown waits for. The
// stream is counted before the submission, under s.mu, so it never races
// Shutdown's wait from a zero count: once the server is closed no stream is
// counted any more, and the query is refused with a typed draining reject.
func (s *Server) submitStream(conn *wire.Conn, owned *connQueries, caps uint32, id uint64, submit func() (*Query, error)) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.sendFailure(conn, caps, id, &wire.RejectError{Reason: wire.RejectDraining})
		return
	}
	s.streams.Add(1)
	s.mu.Unlock()
	q, err := submit()
	if err != nil {
		s.streams.Done()
		s.sendFailure(conn, caps, id, err)
		return
	}
	owned.Lock()
	owned.queries[id] = q
	owned.Unlock()
	go func() {
		defer s.streams.Done()
		s.streamResult(conn, caps, id, q)
		owned.Lock()
		delete(owned.queries, id)
		owned.Unlock()
	}()
}

// connStatement is a prepared statement owned by one requester connection,
// along with the capability subset its prepare negotiated (so executions are
// encoded, and their failures degrade, the way the ack promised).
type connStatement struct {
	ps   *PreparedStatement
	caps uint32
}

// buildStatementTemplate translates a QuerySpec into a prepared statement's
// request template: the tree and resource envelope, but no per-execution
// result sink — each execution attaches its own, keyed by its own query ID.
func (s *Server) buildStatementTemplate(spec *wire.QuerySpec) (Request, error) {
	tree, err := s.buildTree(spec)
	if err != nil {
		return Request{}, err
	}
	req := Request{
		Tree:      tree,
		MemBudget: spec.MemBudget,
		Tenant:    spec.Tenant,
	}
	if spec.TimeoutMillis > 0 {
		req.Timeout = time.Duration(spec.TimeoutMillis) * time.Millisecond
	}
	if spec.ClientAddr != "" {
		req.Link = &exec.DialLink{Addr: spec.ClientAddr}
		req.LinkKey = spec.ClientAddr
	}
	return req, nil
}

// buildRequest translates a QuerySpec into a service request; the caller
// submits it after acknowledging, and streams results via streamResult.
func (s *Server) buildRequest(conn *wire.Conn, spec *wire.QuerySpec) (Request, error) {
	req, err := s.buildStatementTemplate(spec)
	if err != nil {
		return Request{}, err
	}
	// Results are streamed straight onto the control connection as they are
	// produced; the connection serialises concurrent queries' frames.
	req.Frames = frameSink(conn, spec.QueryID, spec.Caps&serverCaps)
	return req, nil
}

// frameSink returns the sink that sends a query's result frames under id on
// the shared control connection, in the encoding caps negotiated.
func frameSink(conn *wire.Conn, id uint64, caps uint32) *FrameSink {
	return &FrameSink{
		Stream: caps&wire.CapResultStream != 0,
		Write:  func(frames []wire.ResultFrame) error { return conn.SendResultFrames(id, frames) },
	}
}

// streamResult waits the query out and terminates its result stream with an
// End (row count), a typed QueryReject (shed queries, when the requester
// negotiated CapReject) or an Error frame.
func (s *Server) streamResult(conn *wire.Conn, caps uint32, id uint64, q *Query) {
	res, err := q.Wait()
	if err != nil {
		s.sendFailure(conn, caps, id, err)
		return
	}
	_ = conn.Send(wire.MsgEnd, wire.EncodeEnd(&wire.End{SessionID: id, Rows: uint64(res.RowCount)}))
}

// sendFailure terminates a query's stream: sheds travel as typed MsgQueryReject
// frames when the requester negotiated CapReject (so it can classify them as
// retryable and honor the retry-after hint), everything else — including sheds
// to pre-CapReject peers — degrades to a plain MsgError.
func (s *Server) sendFailure(conn *wire.Conn, caps uint32, id uint64, err error) {
	var re *wire.RejectError
	if caps&wire.CapReject != 0 && errors.As(err, &re) {
		qr := &wire.QueryReject{
			QueryID:          id,
			Reason:           re.Reason,
			RetryAfterMillis: re.RetryAfter.Milliseconds(),
		}
		_ = conn.Send(wire.MsgQueryReject, wire.EncodeQueryReject(qr))
		return
	}
	_ = s.sendError(conn, id, err.Error())
}

func (s *Server) sendError(conn *wire.Conn, session uint64, msg string) error {
	return conn.Send(wire.MsgError, wire.EncodeError(&wire.ErrorMsg{SessionID: session, Message: msg}))
}

// buildTree assembles the spec's logical tree. A textual query (spec.Text) is
// parsed, resolved and compiled server-side against the service catalog;
// otherwise the structural fields describe the scan → [filter] → [udf-apply]
// → [pushable filter] → [project] shape over one named table.
func (s *Server) buildTree(spec *wire.QuerySpec) (logical.Node, error) {
	if spec.Text != "" {
		return lang.Compile(s.svc.cat, spec.Text)
	}
	table, err := s.svc.cat.Table(spec.Table)
	if err != nil {
		return nil, err
	}
	scan, err := logical.NewScan(table, "")
	if err != nil {
		return nil, err
	}
	filter, err := unmarshalPredicate(spec.Filter)
	if err != nil {
		return nil, fmt.Errorf("service: query filter: %w", err)
	}
	bindings := make([]exec.UDFBinding, 0, len(spec.UDFs))
	for _, u := range spec.UDFs {
		udf, err := s.svc.cat.UDF(u.Name)
		if err != nil {
			return nil, fmt.Errorf("service: query UDF %q is not registered", u.Name)
		}
		bindings = append(bindings, exec.UDFBinding{
			Name:        udf.Name,
			ArgOrdinals: append([]int(nil), u.ArgOrdinals...),
			ResultKind:  udf.ResultKind,
		})
	}
	pushable, err := unmarshalPredicate(spec.Pushable)
	if err != nil {
		return nil, fmt.Errorf("service: pushable predicate: %w", err)
	}
	return logical.NewApplyQuery(scan, filter, bindings, pushable, spec.Project)
}

// unmarshalPredicate decodes an optional marshalled predicate; no bytes mean
// no predicate.
func unmarshalPredicate(b []byte) (expr.Expr, error) {
	if len(b) == 0 {
		return nil, nil
	}
	return expr.Unmarshal(b)
}

// Requester is the client side of the MsgQuery protocol: a thin helper that
// submits queries to a running server and collects streamed results. It is
// what cmd tools and tests use; each Requester owns one control connection
// and may run any number of queries over it concurrently.
type Requester struct {
	conn *wire.Conn

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*eventQueue
	readErr error
	started bool
}

type requesterEvent struct {
	batch []types.Tuple
	rows  uint64
	err   error
	done  bool
	ack   *wire.QueryAck
}

// eventQueue is an unbounded per-query event buffer. Unbounded matters: the
// read loop demultiplexes all queries of one connection, so a delivery that
// could block (a full fixed-size channel of an abandoned or slow collector)
// would wedge every other query's stream. Memory stays bounded by the
// query's own result size — the same bound Collect imposes anyway.
type eventQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	evs    []requesterEvent
	closed bool

	// Owned by the read loop: the dictionaries of the query's result stream,
	// and whether the stream has ended (a terminal frame arrived, or one that
	// would not decode).
	dec   wire.ResultDecoder
	ended bool
}

func newEventQueue() *eventQueue {
	q := &eventQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push appends an event; it never blocks.
func (q *eventQueue) push(ev requesterEvent) {
	q.mu.Lock()
	if !q.closed {
		q.evs = append(q.evs, ev)
	}
	q.mu.Unlock()
	q.cond.Signal()
}

// close wakes every waiter; pending events stay readable.
func (q *eventQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// pop blocks for the next event; ok is false once the queue is closed and
// drained.
func (q *eventQueue) pop() (requesterEvent, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.evs) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.evs) == 0 {
		return requesterEvent{}, false
	}
	ev := q.evs[0]
	q.evs = q.evs[1:]
	return ev, true
}

// NewRequester wraps an established connection to a query server.
func NewRequester(nc net.Conn) *Requester {
	return &Requester{
		conn:    wire.NewConn(nc),
		pending: make(map[uint64]*eventQueue),
	}
}

// Dial connects to a query server.
func Dial(addr string) (*Requester, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("service: dial %s: %w", addr, err)
	}
	return NewRequester(nc), nil
}

// Close shuts the control connection; the server cancels every query this
// requester still owns.
func (r *Requester) Close() error { return r.conn.Close() }

// RegisterUDFs announces client UDF metadata to the server catalog (the same
// frames client.Runtime.Announce sends).
func (r *Requester) RegisterUDFs(regs []*wire.RegisterUDF) error {
	for _, reg := range regs {
		if err := r.conn.Send(wire.MsgRegisterUDF, wire.EncodeRegisterUDF(reg)); err != nil {
			return err
		}
	}
	return r.conn.Send(wire.MsgEnd, wire.EncodeEnd(&wire.End{}))
}

// readLoop demultiplexes server frames to per-query queues. A frame that does
// not decode ends the query it names with an error — delivering the rest of
// the stream without it would hand out a short answer, and every later frame
// would be read against the wrong dictionaries. A frame too short to name a
// query fails the connection: no stream on it can be known complete.
func (r *Requester) readLoop() {
	for {
		msg, err := r.conn.Receive()
		if err != nil {
			r.fail(err)
			return
		}
		switch msg.Type {
		case wire.MsgQueryAck, wire.MsgPrepareAck, wire.MsgResultBatch, wire.MsgResultStream,
			wire.MsgEnd, wire.MsgError, wire.MsgQueryReject:
		default:
			continue // not part of any query's stream
		}
		id, ok := wire.StreamID(msg.Payload)
		if !ok {
			r.fail(fmt.Errorf("service: %s frame of %d bytes names no query", msg.Type, len(msg.Payload)))
			_ = r.conn.Close()
			return
		}
		r.mu.Lock()
		q := r.pending[id]
		r.mu.Unlock()
		if q == nil || q.ended {
			continue
		}
		ev, err := q.decode(msg)
		if err != nil {
			ev = requesterEvent{err: fmt.Errorf("service: query %d: damaged %s frame: %w", id, msg.Type, err), done: true}
		}
		if ev.done {
			// The dictionaries go with the stream, not with whenever the
			// collector gets round to dropping the query.
			q.ended, q.dec = true, wire.ResultDecoder{}
		}
		q.push(ev)
	}
}

// decode turns one frame of the query's stream into its event.
func (q *eventQueue) decode(msg wire.Message) (requesterEvent, error) {
	switch msg.Type {
	case wire.MsgResultBatch, wire.MsgResultStream:
		rows, err := q.dec.DecodeFrame(wire.ResultFrame{Type: msg.Type, Body: msg.Payload[8:]})
		return requesterEvent{batch: rows}, err
	case wire.MsgEnd:
		end, err := wire.DecodeEnd(msg.Payload)
		if err != nil {
			return requesterEvent{}, err
		}
		return requesterEvent{rows: end.Rows, done: true}, nil
	case wire.MsgError:
		e, err := wire.DecodeError(msg.Payload)
		if err != nil {
			return requesterEvent{}, err
		}
		return requesterEvent{err: fmt.Errorf("service: %s", e.Message), done: true}, nil
	case wire.MsgQueryReject:
		rej, err := wire.DecodeQueryReject(msg.Payload)
		if err != nil {
			return requesterEvent{}, err
		}
		// The typed error wraps wire.ErrOverloaded / wire.ErrServerDraining,
		// so wire.Classify sees it as retryable.
		return requesterEvent{err: rej.Err(), done: true}, nil
	default: // MsgQueryAck, MsgPrepareAck
		ack, err := wire.DecodeQueryAck(msg.Payload)
		return requesterEvent{ack: ack}, err
	}
}

// fail ends every pending query with err. Closing the per-query queues wakes
// every collector; collectors read the terminal error from readErr.
func (r *Requester) fail(err error) {
	r.mu.Lock()
	r.readErr = err
	pending := r.pending
	r.pending = make(map[uint64]*eventQueue)
	r.mu.Unlock()
	for _, q := range pending {
		q.close()
	}
}

// RemoteQuery is one in-flight query submitted through a Requester.
type RemoteQuery struct {
	r    *Requester
	id   uint64
	caps uint32
	ch   *eventQueue
}

// Submit sends a QuerySpec (its QueryID and Caps are managed by the
// requester) and waits for the server's admission ack.
func (r *Requester) Submit(spec wire.QuerySpec) (*RemoteQuery, error) {
	ch, ack, err := r.request(wire.MsgQuery, "query", &spec)
	if err != nil {
		return nil, err
	}
	return &RemoteQuery{r: r, id: spec.QueryID, caps: ack.Caps, ch: ch}, nil
}

// request is the one request path of Submit and Prepare: it starts the read
// loop, gives the spec a fresh query ID and the requester's caps, registers
// the ID's event queue, sends the spec as one msg frame and waits for the
// server's ack to what ("query" or "prepare"). On any failure, a rejecting
// ack included, the ID is dropped again; on success its queue stays
// registered for the caller.
func (r *Requester) request(msg wire.MsgType, what string, spec *wire.QuerySpec) (_ *eventQueue, _ *wire.QueryAck, err error) {
	r.mu.Lock()
	if !r.started {
		r.started = true
		go r.readLoop()
	}
	if r.readErr != nil {
		err := r.readErr
		r.mu.Unlock()
		return nil, nil, err
	}
	r.nextID++
	spec.QueryID = r.nextID
	spec.Caps = serverCaps
	ch := newEventQueue()
	r.pending[spec.QueryID] = ch
	r.mu.Unlock()
	defer func() {
		if err != nil {
			r.drop(spec.QueryID)
		}
	}()

	payload, err := wire.EncodeQuerySpec(spec)
	if err != nil {
		return nil, nil, err
	}
	if err := r.conn.Send(msg, payload); err != nil {
		return nil, nil, err
	}
	ev, ok := ch.pop()
	if ev.err != nil {
		return nil, nil, ev.err
	}
	if !ok || ev.ack == nil {
		r.mu.Lock()
		err := r.readErr
		r.mu.Unlock()
		if err != nil {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("service: expected %s_ACK", strings.ToUpper(what))
	}
	if !ev.ack.OK {
		return nil, nil, fmt.Errorf("service: %s rejected: %s", what, ev.ack.Error)
	}
	return ch, ev.ack, nil
}

// SubmitText submits a textual query (see docs/QUERYLANG.md) for server-side
// parsing and planning. The spec carries the query's envelope — ClientAddr,
// MemBudget, TimeoutMillis — while its structural fields are ignored. A server
// too old to understand query text rejects the spec at decode time, so the
// submission fails cleanly rather than misbehaving.
func (r *Requester) SubmitText(text string, spec wire.QuerySpec) (*RemoteQuery, error) {
	return r.Submit(textSpec(text, spec))
}

// textSpec is spec carrying the query text in place of its structural fields.
func textSpec(text string, spec wire.QuerySpec) wire.QuerySpec {
	spec.Text = text
	spec.Table, spec.Filter, spec.UDFs, spec.Pushable, spec.Project = "", nil, nil, nil, nil
	return spec
}

// RemoteStatement is a statement prepared on the server over this requester's
// connection: the tree was built (or the text compiled) and validated once,
// and each Exec ships only a statement ID plus per-execution overrides. It is
// only handed out when the server echoed CapPrepared.
type RemoteStatement struct {
	r    *Requester
	id   uint64
	caps uint32
}

// Prepare registers the spec as a server-side prepared statement. The spec's
// QueryID and Caps are managed by the requester; the resource envelope
// (ClientAddr, MemBudget, TimeoutMillis, Tenant) becomes the statement's
// template, overridable per execution. Servers that have not negotiated
// CapPrepared fail the call cleanly.
func (r *Requester) Prepare(spec wire.QuerySpec) (*RemoteStatement, error) {
	_, ack, err := r.request(wire.MsgPrepare, "prepare", &spec)
	if err != nil {
		return nil, err
	}
	r.drop(spec.QueryID)
	if ack.Caps&wire.CapPrepared == 0 {
		return nil, fmt.Errorf("service: server did not negotiate prepared statements")
	}
	return &RemoteStatement{r: r, id: spec.QueryID, caps: ack.Caps}, nil
}

// PrepareText prepares a textual query (see docs/QUERYLANG.md) server-side.
func (r *Requester) PrepareText(text string, spec wire.QuerySpec) (*RemoteStatement, error) {
	return r.Prepare(textSpec(text, spec))
}

// Exec starts one execution of the statement. over's StatementID and QueryID
// are managed by the requester; its remaining fields override the statement's
// template (zero values inherit). Unlike Submit there is no per-execution
// admission ack — rejections surface from Collect as typed reject errors.
func (st *RemoteStatement) Exec(over wire.ExecPrepared) (*RemoteQuery, error) {
	r := st.r
	r.mu.Lock()
	if r.readErr != nil {
		err := r.readErr
		r.mu.Unlock()
		return nil, err
	}
	r.nextID++
	over.StatementID = st.id
	over.QueryID = r.nextID
	ch := newEventQueue()
	r.pending[over.QueryID] = ch
	r.mu.Unlock()
	if err := r.conn.Send(wire.MsgExecPrepared, wire.EncodeExecPrepared(&over)); err != nil {
		r.drop(over.QueryID)
		return nil, err
	}
	return &RemoteQuery{r: r, id: over.QueryID, caps: st.caps, ch: ch}, nil
}

func (r *Requester) drop(id uint64) {
	r.mu.Lock()
	delete(r.pending, id)
	r.mu.Unlock()
}

// Collect drains the query's result stream into memory. A stream whose End
// frame counts other rows than arrived is an error: a frame went missing.
func (q *RemoteQuery) Collect() ([]types.Tuple, error) {
	defer q.r.drop(q.id)
	var rows []types.Tuple
	for {
		ev, ok := q.ch.pop()
		if !ok {
			break
		}
		rows = append(rows, ev.batch...)
		if !ev.done {
			continue
		}
		if ev.err == nil && ev.rows != uint64(len(rows)) {
			return rows, fmt.Errorf("service: query %d: result stream ended after %d rows, the server sent %d", q.id, len(rows), ev.rows)
		}
		return rows, ev.err
	}
	// The queue was closed by a dying read loop; surface its error.
	q.r.mu.Lock()
	err := q.r.readErr
	q.r.mu.Unlock()
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return rows, err
}
