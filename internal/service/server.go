package service

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"time"

	"csq/internal/exec"
	"csq/internal/lang"
	"csq/internal/types"
	"csq/internal/wire"
)

// Server is the wire front-end of a Service: it listens for requester
// connections speaking the framed protocol's MsgQuery/MsgCancel extension and
// streams query results back as result frames (SessionID = query ID; in the
// column-vector encoding for requesters that negotiated
// wire.CapResultVectors, as plain MsgResultBatch frames otherwise) terminated
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

// Close stops accepting, cancels every query and closes every requester
// connection: Shutdown with no grace period.
func (s *Server) Close() { _ = s.Shutdown(expired) }

// Shutdown drains the server gracefully: it stops accepting connections,
// drains the service (running queries finish, queued and new ones are shed
// with typed draining rejects), waits for every admitted query's result
// stream to flush its terminal frame, then closes the requester connections.
// If ctx expires first the stragglers are cancelled and the connections are
// closed anyway. It returns ctx's error when the drain timed out.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	if ctx.Err() != nil {
		// No grace: no stream is owed its terminal frame, and a closed
		// connection unblocks a result write stuck on a peer that stopped
		// reading.
		s.closeConns()
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
		err = cmp.Or(err, ctx.Err())
	}
	s.closeConns()
	return err
}

// closeConns closes every requester connection; each one's control loop then
// cancels the queries it owns.
func (s *Server) closeConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		_ = c.Close()
	}
}

// handleConn is one requester connection's control loop.
func (s *Server) handleConn(nc net.Conn) {
	conn := wire.NewConn(&stallGuardConn{Conn: nc})
	// The queries in flight on the connection, by their peer-chosen IDs.
	owned := &sync.Map{}
	// Prepared statements live for the connection; they hold no slots or
	// sessions, so disconnect cleanup is just letting the map go.
	stmts := make(map[uint64]*connStatement)
	defer func() {
		// A dying requester connection cancels every query it owns; the
		// per-query contexts tear their UDF sessions down.
		owned.Range(func(_, q any) bool {
			q.(*Query).Cancel()
			return true
		})
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
		case wire.MsgQuery, wire.MsgPrepare, wire.MsgExecPrepared:
			if !s.serveQuery(conn, owned, stmts, msg) {
				return
			}
		case wire.MsgCancel:
			c, err := wire.DecodeCancel(msg.Payload)
			if err != nil {
				_ = s.sendError(conn, 0, fmt.Sprintf("bad cancel: %v", err))
				continue
			}
			if q, ok := owned.Load(c.QueryID); ok {
				q.(*Query).Cancel()
			}
		default:
			_ = s.sendError(conn, 0, fmt.Sprintf("unexpected message %s", msg.Type))
		}
	}
}

// inFlight refuses a peer-chosen query ID already in flight on the
// connection: two result streams under one ID would interleave and orphan
// the earlier query.
func inFlight(owned *sync.Map, id uint64) error {
	if _, dup := owned.Load(id); dup {
		return fmt.Errorf("query ID %d is already in flight on this connection", id)
	}
	return nil
}

// serveQuery is the one wire entry of a query, ad hoc (MsgQuery) or an
// execution of a prepared statement (MsgExecPrepared): refuse a query ID in
// flight, build the request, attach the frame sink of the negotiated
// encoding and submit. A MsgPrepare takes the ad-hoc path as far as its ack:
// its QuerySpec's QueryID is the statement ID, and its text is compiled
// once, here. A spec is acknowledged before its query is submitted, so no
// result frame can beat the ack onto the wire; a spec that does not decode is
// refused in the ack to the ID it leads with. An execution learns of a
// refusal from its stream. It reports false once the connection is gone.
func (s *Server) serveQuery(conn *wire.Conn, owned *sync.Map, stmts map[uint64]*connStatement, msg wire.Message) bool {
	var (
		id     uint64
		caps   uint32
		req    Request
		submit = s.svc.Submit
	)
	if prepare := msg.Type == wire.MsgPrepare; prepare || msg.Type == wire.MsgQuery {
		what, ackType := "query", wire.MsgQueryAck
		if prepare {
			what, ackType = "prepare", wire.MsgPrepareAck
		}
		spec, err := wire.DecodeQuerySpec(msg.Payload)
		if err != nil {
			// The requester waits on the ack for its own ID; the spec leads
			// with it even when the rest does not decode.
			var named bool
			if id, named = wire.StreamID(msg.Payload); !named {
				_ = s.sendError(conn, 0, fmt.Sprintf("bad %s: %v", what, err))
				return true
			}
			err = fmt.Errorf("bad %s: %w", what, err)
		} else {
			id, caps = spec.QueryID, spec.Caps&serverCaps
			switch {
			case !prepare:
				err = inFlight(owned, id)
			case stmts[id] != nil:
				err = fmt.Errorf("statement ID %d is already prepared on this connection", id)
			}
		}
		if err == nil {
			req, err = s.requestFor(spec)
		}
		if err == nil && prepare {
			var ps *PreparedStatement
			if ps, err = s.svc.Prepare(req); err == nil {
				stmts[id] = &connStatement{ps: ps, caps: caps}
			}
		}
		ack := &wire.QueryAck{QueryID: id, OK: err == nil, Caps: caps}
		if err != nil {
			ack.Error = err.Error()
		}
		if conn.Send(ackType, wire.EncodeQueryAck(ack)) != nil {
			return false
		}
		if err != nil || prepare {
			return true
		}
	} else {
		ep, err := wire.DecodeExecPrepared(msg.Payload)
		if err != nil {
			// The execution's ID follows the statement ID; session 0 answers
			// a frame too short to name one.
			id, _ = wire.StreamID(msg.Payload[min(8, len(msg.Payload)):])
			_ = s.sendError(conn, id, fmt.Sprintf("bad exec prepared: %v", err))
			return true
		}
		st := stmts[ep.StatementID]
		if st == nil {
			err = fmt.Errorf("statement %d is not prepared on this connection", ep.StatementID)
		} else {
			err = inFlight(owned, ep.QueryID)
		}
		if err != nil {
			_ = s.sendError(conn, ep.QueryID, err.Error())
			return true
		}
		id, caps, submit = ep.QueryID, st.caps, st.ps.Submit
		req = Request{Tenant: ep.Tenant, MemBudget: ep.MemBudget, Timeout: millis(ep.TimeoutMillis)}
	}
	// Results stream straight onto the control connection as they are
	// produced; the connection serialises concurrent queries' frames.
	req.Frames = &FrameSink{
		Stream: caps&wire.CapResultVectors != 0,
		Write:  func(frames []wire.ResultFrame) error { return conn.SendResultFrames(id, frames) },
	}
	// The stream is counted before the submission, under s.mu, so it never
	// races Shutdown's wait from a zero count: once the server is closed no
	// stream is counted any more, and the query is refused with a typed
	// draining reject.
	s.mu.Lock()
	closed := s.closed
	if !closed {
		s.streams.Add(1)
	}
	s.mu.Unlock()
	if closed {
		s.sendFailure(conn, caps, id, &wire.RejectError{Reason: wire.RejectDraining})
		return true
	}
	q, err := submit(context.Background(), req)
	if err != nil {
		s.streams.Done()
		s.sendFailure(conn, caps, id, err)
		return true
	}
	owned.Store(id, q)
	// The stream ends with an End (row count), a typed QueryReject (shed
	// queries, when the requester negotiated CapReject) or an Error frame.
	go func() {
		defer s.streams.Done()
		if res, err := q.Wait(); err != nil {
			s.sendFailure(conn, caps, id, err)
		} else {
			_ = conn.Send(wire.MsgEnd, wire.EncodeEnd(&wire.End{SessionID: id, Rows: uint64(res.RowCount)}))
		}
		owned.Delete(id)
	}()
	return true
}

// millis is a wire timeout: > 0 bounds the query, anything else inherits.
func millis(ms int64) time.Duration {
	return time.Duration(max(ms, 0)) * time.Millisecond
}

// connStatement is a prepared statement owned by one requester connection,
// along with the capability subset its prepare negotiated (so executions are
// encoded, and their failures degrade, the way the ack promised).
type connStatement struct {
	ps   *PreparedStatement
	caps uint32
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

// requestFor translates a QuerySpec into a request: its text compiled against
// the service catalog, and the resource envelope of an ad-hoc query or of a
// prepared statement's template. The result sink is attached per query, keyed
// by the query's own ID.
func (s *Server) requestFor(spec *wire.QuerySpec) (Request, error) {
	tree, err := lang.Compile(s.svc.cat, spec.Text)
	if err != nil {
		return Request{}, err
	}
	req := Request{
		Tree:      tree,
		MemBudget: spec.MemBudget,
		Tenant:    spec.Tenant,
		Timeout:   millis(spec.TimeoutMillis),
	}
	if spec.ClientAddr != "" {
		req.Link = &exec.DialLink{Addr: spec.ClientAddr}
		req.LinkKey = spec.ClientAddr
	}
	return req, nil
}

// Requester is the client side of the MsgQuery protocol: a thin helper that
// submits queries to a running server and collects streamed results. It is
// what cmd tools and tests use; each Requester owns one control connection
// and may run any number of queries over it concurrently.
type Requester struct {
	conn *wire.Conn

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*resultStream
	readErr error
	started bool
}

// resultStream is one pending query as its requester sees it. The read loop
// fills it and never blocks on it: a collector that is slow or gone cannot
// wedge the other queries of the connection, and what a stream holds is
// bounded by the query's own answer, which Collect holds anyway.
type resultStream struct {
	ack  chan *wire.QueryAck // the server's ack to a Submit or Prepare
	done chan struct{}       // closed once the stream has ended

	// Written by the read loop, read by the collector once done is closed.
	dec   wire.ResultDecoder // the stream's dictionaries, dropped at its end
	rows  [][]types.Tuple    // one batch per frame; Collect joins them
	sent  uint64             // the End frame's row count
	err   error
	ended bool // done is closed; read by the read loop alone
}

// NewRequester wraps an established connection to a query server.
func NewRequester(nc net.Conn) *Requester {
	return &Requester{
		conn:    wire.NewConn(nc),
		pending: make(map[uint64]*resultStream),
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

// readLoop demultiplexes server frames to per-query streams. A frame that does
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
		case wire.MsgQueryAck, wire.MsgPrepareAck, wire.MsgResultBatch, wire.MsgResultVectors,
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
		if err := q.deliver(msg); err != nil {
			q.end(fmt.Errorf("service: query %d: damaged %s frame: %w", id, msg.Type, err))
		}
	}
}

// deliver applies one frame of the query's stream. Only the read loop calls
// it, and end.
func (q *resultStream) deliver(msg wire.Message) error {
	switch msg.Type {
	case wire.MsgResultBatch, wire.MsgResultVectors:
		rows, err := q.dec.DecodeFrame(wire.ResultFrame{Type: msg.Type, Body: msg.Payload[8:]})
		if err == nil {
			q.rows = append(q.rows, rows)
		}
		return err
	case wire.MsgEnd:
		end, err := wire.DecodeEnd(msg.Payload)
		if err == nil {
			q.sent = end.Rows
			q.end(nil)
		}
		return err
	case wire.MsgError:
		e, err := wire.DecodeError(msg.Payload)
		if err == nil {
			q.end(fmt.Errorf("service: %s", e.Message))
		}
		return err
	case wire.MsgQueryReject:
		// The typed error wraps wire.ErrOverloaded / wire.ErrServerDraining,
		// so wire.Classify sees it as retryable.
		rej, err := wire.DecodeQueryReject(msg.Payload)
		if err == nil {
			q.end(rej.Err())
		}
		return err
	default: // MsgQueryAck, MsgPrepareAck
		ack, err := wire.DecodeQueryAck(msg.Payload)
		if err == nil {
			select {
			case q.ack <- ack:
			default: // a second ack: nobody waits for it
			}
		}
		return err
	}
}

// end ends the stream with err, nil after an End frame. The dictionaries go
// with the stream, not with whenever the collector gets round to dropping it.
func (q *resultStream) end(err error) {
	q.err, q.dec, q.ended = err, wire.ResultDecoder{}, true
	close(q.done)
}

// fail ends every pending query with err, and the requester takes no further
// work.
func (r *Requester) fail(err error) {
	r.mu.Lock()
	r.readErr = err
	pending := r.pending
	r.pending = make(map[uint64]*resultStream)
	r.mu.Unlock()
	for _, q := range pending {
		if !q.ended {
			q.end(err)
		}
	}
}

// RemoteQuery is one in-flight query submitted through a Requester.
type RemoteQuery struct {
	r    *Requester
	id   uint64
	caps uint32
	ch   *resultStream
}

// SubmitText submits a query (see docs/QUERYLANG.md) for server-side
// parsing and planning, and waits for the server's admission ack. The spec
// carries the query's envelope — ClientAddr, MemBudget, TimeoutMillis,
// Tenant; its QueryID, Caps and Text are managed by the requester.
func (r *Requester) SubmitText(text string, spec wire.QuerySpec) (*RemoteQuery, error) {
	spec.Text = text
	ch, ack, err := r.request(wire.MsgQuery, "query", &spec)
	if err != nil {
		return nil, err
	}
	return &RemoteQuery{r: r, id: spec.QueryID, caps: ack.Caps, ch: ch}, nil
}

// request is the one request path of SubmitText and PrepareText: it gives the
// spec a fresh query ID and the requester's caps, sends it as one msg frame
// and waits for the server's ack to what ("query" or "prepare"). On any
// failure, a rejecting ack included, the ID is dropped again; on success its
// stream stays registered for the caller.
func (r *Requester) request(msg wire.MsgType, what string, spec *wire.QuerySpec) (*resultStream, *wire.QueryAck, error) {
	spec.Caps = serverCaps
	ch, err := r.send(&spec.QueryID, msg, func() ([]byte, error) { return wire.EncodeQuerySpec(spec) })
	if err != nil {
		return nil, nil, err
	}
	// The ack is a query's first frame: when the stream is already over, an
	// ack that came before its end is waiting.
	var ack *wire.QueryAck
	select {
	case ack = <-ch.ack:
	case <-ch.done:
		select {
		case ack = <-ch.ack:
		default:
		}
	}
	switch {
	case ack == nil:
		err = cmp.Or(ch.err, fmt.Errorf("service: expected %s_ACK", strings.ToUpper(what)))
	case !ack.OK:
		err = fmt.Errorf("service: %s rejected: %s", what, ack.Error)
	}
	if err != nil {
		r.drop(spec.QueryID)
		return nil, nil, err
	}
	return ch, ack, nil
}

// send is the one way a query ID comes to be pending: it starts the read
// loop on first use, takes the next query ID into *id, registers the ID's
// result stream and sends the encoded request. On failure the ID is dropped
// again.
func (r *Requester) send(id *uint64, msg wire.MsgType, encode func() ([]byte, error)) (*resultStream, error) {
	r.mu.Lock()
	if !r.started {
		r.started = true
		go r.readLoop()
	}
	if err := r.readErr; err != nil {
		r.mu.Unlock()
		return nil, err
	}
	r.nextID++
	*id = r.nextID
	ch := &resultStream{ack: make(chan *wire.QueryAck, 1), done: make(chan struct{})}
	r.pending[*id] = ch
	r.mu.Unlock()
	payload, err := encode()
	if err == nil {
		err = r.conn.Send(msg, payload)
	}
	if err != nil {
		r.drop(*id)
		return nil, err
	}
	return ch, nil
}

// RemoteStatement is a statement prepared on the server over this requester's
// connection: the text was compiled and validated once, and each Exec ships
// only a statement ID plus per-execution overrides. It is only handed out
// when the server echoed CapPrepared.
type RemoteStatement struct {
	r    *Requester
	id   uint64
	caps uint32
}

// PrepareText prepares a query (see docs/QUERYLANG.md) as a server-side
// statement. The spec's QueryID, Caps and Text are managed by the requester;
// the resource envelope (ClientAddr, MemBudget, TimeoutMillis, Tenant)
// becomes the statement's template, overridable per execution. Servers that
// have not negotiated CapPrepared fail the call cleanly.
func (r *Requester) PrepareText(text string, spec wire.QuerySpec) (*RemoteStatement, error) {
	spec.Text = text
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

// Exec starts one execution of the statement. over's StatementID and QueryID
// are managed by the requester; its remaining fields override the statement's
// template (zero values inherit). Unlike SubmitText there is no per-execution
// admission ack — rejections surface from Collect as typed reject errors.
func (st *RemoteStatement) Exec(over wire.ExecPrepared) (*RemoteQuery, error) {
	over.StatementID = st.id
	ch, err := st.r.send(&over.QueryID, wire.MsgExecPrepared, func() ([]byte, error) { return wire.EncodeExecPrepared(&over), nil })
	if err != nil {
		return nil, err
	}
	return &RemoteQuery{r: st.r, id: over.QueryID, caps: st.caps, ch: ch}, nil
}

func (r *Requester) drop(id uint64) {
	r.mu.Lock()
	delete(r.pending, id)
	r.mu.Unlock()
}

// Collect waits for the query's result stream to end and returns its rows. A
// stream whose End frame counts other rows than arrived is an error: a frame
// went missing.
func (q *RemoteQuery) Collect() ([]types.Tuple, error) {
	defer q.r.drop(q.id)
	<-q.ch.done
	rows, err := slices.Concat(q.ch.rows...), q.ch.err
	if err == nil && q.ch.sent != uint64(len(rows)) {
		return rows, fmt.Errorf("service: query %d: result stream ended after %d rows, the server sent %d", q.id, len(rows), q.ch.sent)
	}
	return rows, err
}
