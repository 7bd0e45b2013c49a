package exec

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"csq/internal/client"
	"csq/internal/netsim"
	"csq/internal/types"
	"csq/internal/wire"
)

// ClientLink hands out framed connections to the client-site UDF runtime.
// Each client-site operator opens its own session connection so that
// concurrently executing operators never interleave frames.
type ClientLink interface {
	// OpenSession returns a dedicated framed connection to the client runtime.
	// The caller owns the connection and must close it. ctx bounds the
	// connection's establishment only; binding the connection's I/O to a
	// context is the caller's business.
	OpenSession(ctx context.Context) (*wire.Conn, error)
}

// sessionIDs generates unique session identifiers across all links.
var sessionIDs atomic.Uint64

func nextSessionID() uint64 { return sessionIDs.Add(1) }

// InProcessLink runs the client runtime in the same process, connected through
// a shaped netsim pair. It is what the integration tests, the examples and
// the in-process engine use.
type InProcessLink struct {
	// Runtime is the client-site UDF runtime.
	Runtime *client.Runtime
	// Link is the link shaping configuration (bandwidth, latency, asymmetry).
	Link netsim.LinkConfig
	// Faults, when non-nil, assigns a fault configuration to each session
	// connection by 0-based open ordinal (initial pool sessions first, then
	// every redial), overriding Link.Fault. This is how the chaos tests
	// script which sessions die and whether redials succeed.
	Faults *netsim.FaultScript

	linkBreaker
	mu     sync.Mutex
	opened int
}

// NewInProcessLink builds an in-process link to the given runtime over the
// given link configuration.
func NewInProcessLink(rt *client.Runtime, cfg netsim.LinkConfig) *InProcessLink {
	return &InProcessLink{Runtime: rt, Link: cfg}
}

// OpenSession implements ClientLink. It is safe for concurrent use: mid-query
// failover redials sessions from the operators' reader goroutines. A dial
// under a context that is already done fails without taking an ordinal.
func (l *InProcessLink) OpenSession(ctx context.Context) (*wire.Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("exec: open session: %w", err)
	}
	if l.Runtime == nil {
		return nil, fmt.Errorf("exec: in-process link has no client runtime")
	}
	if err := l.Link.Validate(); err != nil {
		return nil, err
	}
	cfg := l.Link
	l.mu.Lock()
	ordinal := l.opened
	l.opened++
	if l.Faults != nil {
		cfg.Fault = l.Faults.For(ordinal)
	}
	if cfg.Fault.RefuseDial {
		l.mu.Unlock()
		return nil, fmt.Errorf("exec: open session %d: %w", ordinal, netsim.ErrDialRefused)
	}
	pair := netsim.NewPair(cfg)
	l.mu.Unlock()
	clientConn := wire.NewConn(pair.ClientSide)
	go func() {
		// The runtime exits when the server closes its side of the pair.
		_ = l.Runtime.ServeConn(clientConn)
		_ = clientConn.Close()
	}()
	return wire.NewConn(pair.ServerSide), nil
}

// DialLink connects to a remote client runtime listening on a TCP address
// (client.Runtime.ServeConn behind an accept loop). Each session dials a fresh
// connection.
type DialLink struct {
	// Addr is the client runtime's listen address.
	Addr string

	linkBreaker
}

// dialTimeout bounds establishing a session's connection.
const dialTimeout = 5 * time.Second

// OpenSession implements ClientLink. The dial gives up after dialTimeout or
// when ctx is done, whichever comes first.
func (l *DialLink) OpenSession(ctx context.Context) (*wire.Conn, error) {
	raw, err := (&net.Dialer{Timeout: dialTimeout}).DialContext(ctx, "tcp", l.Addr)
	if err != nil {
		return nil, fmt.Errorf("exec: dial client runtime: %w", err)
	}
	return wire.NewConn(raw), nil
}

// UDFBinding names one client-site UDF an operator must apply, the ordinals
// of its arguments in the operator's *input* schema, and how its result is
// exposed.
type UDFBinding struct {
	// Name is the UDF name as registered at the client.
	Name string
	// ArgOrdinals index the operator's input schema.
	ArgOrdinals []int
	// ResultKind is the declared result type.
	ResultKind types.Kind
	// ResultName is the output column name; defaults to the UDF name.
	ResultName string
}

// udfSession wraps the server side of one wire session.
type udfSession struct {
	conn *wire.Conn
	id   uint64
	seq  uint64
	// unbind releases the connection's query-context binding (set when the
	// session was opened under a cancellable context).
	unbind func()
}

// openUDFSession opens a connection through the link and performs the setup
// handshake on it.
func openUDFSession(ctx context.Context, link ClientLink, req *wire.SetupRequest) (*udfSession, error) {
	s, err := dialUDFSession(ctx, link)
	if err != nil {
		return nil, err
	}
	if err := s.handshake(req); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// dialUDFSession opens a connection through the link and binds it to ctx:
// the context's deadline becomes the connection's I/O deadline and
// cancellation aborts blocked frame I/O, so a dead client (or a cancelled
// query) cannot wedge a server-side operator. The session carries no traffic
// until its Setup is sent.
func dialUDFSession(ctx context.Context, link ClientLink) (*udfSession, error) {
	conn, err := link.OpenSession(ctx)
	if err != nil {
		return nil, err
	}
	return &udfSession{conn: conn, unbind: conn.BindContext(ctx)}, nil
}

// setup encodes the session's Setup: a copy of template under a fresh
// session ID — the one place session IDs are assigned, so sessions can share
// the template.
func (s *udfSession) setup(template *wire.SetupRequest) ([]byte, error) {
	req := *template
	req.SessionID = nextSessionID()
	payload, err := wire.EncodeSetup(&req)
	if err != nil {
		return nil, err
	}
	s.id = req.SessionID
	return payload, nil
}

// acknowledge checks that msg, the session's first message from the client,
// is a SetupAck accepting the Setup.
func (s *udfSession) acknowledge(msg wire.Message) error {
	if msg.Type != wire.MsgSetupAck {
		return fmt.Errorf("exec: expected SETUP_ACK, got %s", msg.Type)
	}
	ack, err := wire.DecodeSetupAck(msg.Payload)
	if err != nil {
		return err
	}
	if !ack.OK {
		return fmt.Errorf("exec: client rejected setup: %s", ack.Error)
	}
	return nil
}

// handshake runs the setup exchange on a dialled session: send the Setup,
// then acknowledge the next message. On error the caller still owns the
// session and must close it.
func (s *udfSession) handshake(template *wire.SetupRequest) error {
	payload, err := s.setup(template)
	if err != nil {
		return err
	}
	if err := s.conn.Send(wire.MsgSetup, payload); err != nil {
		return err
	}
	msg, err := s.conn.Receive()
	if err != nil {
		return err
	}
	return s.acknowledge(msg)
}

// sendBatch ships a batch of tuples downlink through the shared pooled
// encode path.
func (s *udfSession) sendBatch(tuples []types.Tuple) error {
	batch := wire.TupleBatch{SessionID: s.id, Seq: s.seq, Tuples: tuples}
	s.seq++
	return wire.SendBatch(s.conn, &batch, wire.MsgTupleBatch)
}

// abort slams the session's transport shut without releasing the context
// binding, kicking any goroutine blocked on the connection out of its I/O;
// the session is then retired through close as usual.
func (s *udfSession) abort() {
	if s == nil || s.conn == nil {
		return
	}
	_ = s.conn.Close()
}

// close shuts the session connection and releases its context binding.
func (s *udfSession) close() {
	if s == nil || s.conn == nil {
		return
	}
	if s.unbind != nil {
		s.unbind()
	}
	_ = s.conn.Close()
}
