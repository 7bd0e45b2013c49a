// Package wire implements the framed binary protocol spoken between the
// server's client-site UDF operators and the client runtime.
//
// Every message is a frame: a 4-byte little-endian payload length, a 1-byte
// message type, and the payload. Payloads are encoded with the same
// deterministic binary encoding the rest of the system uses (package types),
// so the byte counts observed on the link line up with the cost model's
// predictions.
//
// A session is established with a SetupRequest describing the execution mode
// (semi-join or client-site join), the schema of the tuples that will be
// shipped, the UDFs to apply, and any pushable predicate / projection to run
// at the client. Tuples then flow down in TupleBatch messages and results
// flow back in ResultBatch messages, one reply per batch, until the server
// closes the session's connection.
package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"csq/internal/types"
)

// MsgType identifies the kind of a frame.
type MsgType uint8

// Message types.
const (
	MsgInvalid MsgType = iota
	// MsgSetup carries a SetupRequest from server to client.
	MsgSetup
	// MsgSetupAck acknowledges a SetupRequest (client to server).
	MsgSetupAck
	// MsgTupleBatch carries argument tuples or full records server→client.
	MsgTupleBatch
	// MsgResultBatch carries UDF results (or filtered records) client→server.
	MsgResultBatch
	// MsgEnd signals the end of a tuple stream in either direction.
	MsgEnd
	// MsgError carries an error description in either direction.
	MsgError
	// MsgRegisterUDF announces a client-registered UDF (client→server).
	MsgRegisterUDF
	// Code 8 is retired: it carried final query results to the client's
	// result consumer, a mode no client serves. It stays reserved.
	_
	// MsgProbe carries an opaque padding payload in either direction; the
	// client answers a probe with a probe whose payload has the size the server
	// requested. The planner uses probe pairs of different sizes to measure the
	// live bandwidth of each link direction and hence the network asymmetry N,
	// without relying on configured values.
	MsgProbe
	// Codes 10 and 11 are retired: they carried tuple and result batches in
	// a per-frame value dictionary that sessions no longer negotiate. They
	// stay reserved, so no later message code moves.
	_
	_
	// MsgQuery submits a query to the query service (requester→server). The
	// payload is a QuerySpec; the spec's Caps field requests optional protocol
	// features (capability-negotiated: the server echoes the subset it
	// supports in the MsgQueryAck, and the requester only uses a feature the
	// ack confirmed, so old peers keep working).
	MsgQuery
	// MsgQueryAck answers a MsgQuery (server→requester) with admission status
	// and the supported capability subset. Result rows then stream back as
	// MsgResultBatch (or, with CapResultVectors, MsgResultVectors) frames whose
	// SessionID is the query ID, terminated by a MsgEnd carrying the row count
	// (or a MsgError).
	MsgQueryAck
	// MsgCancel aborts a running query (requester→server). Only sent when the
	// server's MsgQueryAck confirmed CapCancel.
	MsgCancel
	// MsgQueryReject terminates a query's result stream with a typed refusal
	// (server→requester): the server shed the query under overload or is
	// draining for shutdown. The payload carries the reason and a retry-after
	// hint, so a requester can distinguish a retryable shed from a fatal error
	// and resubmit. Only sent when the server's MsgQueryAck confirmed
	// CapReject; older requesters receive a MsgError instead.
	MsgQueryReject
	// MsgPrepare registers a prepared statement (requester→server): the
	// payload is a QuerySpec whose QueryID becomes the statement ID on this
	// connection. The server parses, rewrites and plans it once; later
	// MsgExecPrepared frames re-run the cached plan. Only sent when the
	// server's MsgQueryAck (of any prior query) or MsgPrepareAck confirmed
	// CapPrepared.
	MsgPrepare
	// MsgPrepareAck answers a MsgPrepare (server→requester) with the
	// statement's validity and the supported capability subset. It reuses the
	// QueryAck payload encoding with QueryID = statement ID.
	MsgPrepareAck
	// MsgExecPrepared executes a prepared statement (requester→server). The
	// payload names the statement ID plus a fresh per-execution QueryID;
	// results stream back exactly as for MsgQuery.
	MsgExecPrepared
	// Code 19 is retired: it carried query result rows in a row-major
	// stream-dictionary encoding, negotiated by the retired capability bit 5.
	// It stays reserved.
	_
	// MsgResultVectors carries query result rows (server→requester) as column
	// vectors (see ResultEncoder): cells may reference values earlier frames
	// of the same query's stream introduced. Only sent for queries whose ack
	// (or whose statement's MsgPrepareAck) confirmed CapResultVectors; it may
	// be interleaved with plain MsgResultBatch frames.
	MsgResultVectors
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgSetup:
		return "SETUP"
	case MsgSetupAck:
		return "SETUP_ACK"
	case MsgTupleBatch:
		return "TUPLE_BATCH"
	case MsgResultBatch:
		return "RESULT_BATCH"
	case MsgEnd:
		return "END"
	case MsgError:
		return "ERROR"
	case MsgRegisterUDF:
		return "REGISTER_UDF"
	case MsgProbe:
		return "PROBE"
	case MsgQuery:
		return "QUERY"
	case MsgQueryAck:
		return "QUERY_ACK"
	case MsgCancel:
		return "CANCEL"
	case MsgQueryReject:
		return "QUERY_REJECT"
	case MsgPrepare:
		return "PREPARE"
	case MsgPrepareAck:
		return "PREPARE_ACK"
	case MsgExecPrepared:
		return "EXEC_PREPARED"
	case MsgResultVectors:
		return "RESULT_VECTORS"
	default:
		return "INVALID"
	}
}

// MaxFrameSize bounds a single frame's payload; larger frames are rejected to
// protect both ends from corrupt length prefixes.
const MaxFrameSize = 64 << 20

// Message is one decoded frame.
type Message struct {
	Type    MsgType
	Payload []byte
}

// Conn frames messages over an underlying reader/writer. Writes are
// serialised with a mutex so that concurrent sender goroutines can share one
// connection.
type Conn struct {
	wmu sync.Mutex
	w   *bufio.Writer
	rmu sync.Mutex
	r   *bufio.Reader
	rw  io.ReadWriteCloser

	ctxMu sync.Mutex
	ctx   context.Context // bound query context, when any

	bytesOut atomic.Int64
	bytesIn  atomic.Int64
	sendNs   atomic.Int64
	recvNs   atomic.Int64
}

// connDeadliner is the deadline surface of net.Conn; every transport the
// engine uses (TCP, net.Pipe-based netsim pairs) provides it.
type connDeadliner interface {
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// BindContext ties the connection's blocking I/O to a query context: the
// context's deadline becomes the read/write deadline of the underlying
// transport, and cancellation aborts any in-flight or future Send/Receive
// promptly (by slamming the deadlines shut, or closing transports without
// deadline support). Send and Receive then surface ctx.Err() — so a dead or
// stalled peer can wedge an operator for at most the query's deadline, and an
// explicit cancel unwedges it immediately.
//
// The returned release function detaches the context and clears the
// deadlines; call it when the query is done if the connection outlives it.
// One context is bound at a time; binding replaces any previous binding.
func (c *Conn) BindContext(ctx context.Context) (release func()) {
	if ctx == nil {
		return func() {}
	}
	c.ctxMu.Lock()
	c.ctx = ctx
	c.ctxMu.Unlock()
	dl, _ := c.rw.(connDeadliner)
	if dl != nil {
		if d, ok := ctx.Deadline(); ok {
			_ = dl.SetReadDeadline(d)
			_ = dl.SetWriteDeadline(d)
		}
	}
	stop := context.AfterFunc(ctx, func() {
		if dl != nil {
			past := time.Unix(1, 0)
			_ = dl.SetReadDeadline(past)
			_ = dl.SetWriteDeadline(past)
		} else {
			// No deadline support: closing is the only way to unblock I/O.
			_ = c.rw.Close()
		}
	})
	return func() {
		stop()
		c.ctxMu.Lock()
		expired := c.ctx != nil && c.ctx.Err() != nil
		c.ctx = nil
		c.ctxMu.Unlock()
		if dl != nil && !expired {
			_ = dl.SetReadDeadline(time.Time{})
			_ = dl.SetWriteDeadline(time.Time{})
		}
	}
}

// NewConn wraps a duplex byte stream in a framed message connection.
func NewConn(rw io.ReadWriteCloser) *Conn {
	return &Conn{
		w:  bufio.NewWriterSize(rw, 32*1024),
		r:  bufio.NewReaderSize(rw, 32*1024),
		rw: rw,
	}
}

// Send writes one frame and flushes it. The time spent blocked in the write
// path (which, over a shaped or real link, is dominated by the downlink
// transfer) is accumulated into the connection's send-time counter.
func (c *Conn) Send(t MsgType, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", len(payload))
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	start := time.Now()
	defer func() { c.sendNs.Add(int64(time.Since(start))) }()
	if err := c.writeFrame(t, nil, payload); err != nil {
		return err
	}
	if err := c.w.Flush(); err != nil {
		return c.ioError("flush", err)
	}
	return nil
}

// writeFrame buffers one frame whose payload is lead followed by rest. The
// caller holds wmu, has checked the payload against MaxFrameSize, and flushes.
func (c *Conn) writeFrame(t MsgType, lead, rest []byte) error {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(lead)+len(rest)))
	hdr[4] = byte(t)
	if _, err := c.w.Write(hdr[:]); err != nil {
		return c.ioError("write header", err)
	}
	if _, err := c.w.Write(lead); err != nil {
		return c.ioError("write payload", err)
	}
	if _, err := c.w.Write(rest); err != nil {
		return c.ioError("write payload", err)
	}
	c.bytesOut.Add(int64(len(hdr) + len(lead) + len(rest)))
	return nil
}

// ioError folds a bound, finished query context into an I/O failure: a read
// or write that broke because the context's deadline slammed the transport
// shut surfaces as the context error (context.Canceled or DeadlineExceeded),
// which is what the operator layers and the service report.
func (c *Conn) ioError(op string, err error) error {
	if cerr := c.ctxIOErr(err); cerr != nil {
		return fmt.Errorf("wire: %s: %w", op, cerr)
	}
	return fmt.Errorf("wire: %s: %w", op, err)
}

// ctxIOErr attributes an I/O failure to the bound context, if one explains
// it. A transport deadline error while a context is bound is the context's
// doing (its deadline is where the transport deadline came from), but the
// wall clocks can disagree by nanoseconds — the transport may time out just
// before ctx.Err() flips — so a deadline error briefly waits for the context
// to catch up before falling back to the raw error.
func (c *Conn) ctxIOErr(err error) error {
	c.ctxMu.Lock()
	ctx := c.ctx
	c.ctxMu.Unlock()
	if ctx == nil {
		return nil
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Second):
		}
	}
	return nil
}

// Receive reads one frame. The time spent blocked waiting for the frame
// (uplink transfer plus however long the peer took to produce it) is
// accumulated into the connection's receive-time counter.
func (c *Conn) Receive() (Message, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	start := time.Now()
	defer func() { c.recvNs.Add(int64(time.Since(start))) }()
	var hdr [5]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		if cerr := c.ctxIOErr(err); cerr != nil {
			return Message{}, fmt.Errorf("wire: read header: %w", cerr)
		}
		if err == io.EOF {
			// EOF on a frame boundary is a clean peer shutdown; EOF inside a
			// header or payload stays io.ErrUnexpectedEOF (truncation).
			return Message{}, ErrPeerClosed
		}
		return Message{}, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > MaxFrameSize {
		return Message{}, fmt.Errorf("wire: incoming frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(c.r, payload); err != nil {
		return Message{}, c.ioError("read payload", err)
	}
	c.bytesIn.Add(int64(len(hdr)) + int64(n))
	return Message{Type: MsgType(hdr[4]), Payload: payload}, nil
}

// Close closes the underlying stream.
func (c *Conn) Close() error { return c.rw.Close() }

// BytesSent returns the total framed bytes written so far. It never blocks,
// even while another goroutine is in Send or Receive.
func (c *Conn) BytesSent() int64 { return c.bytesOut.Load() }

// BytesReceived returns the total framed bytes read so far. It never blocks,
// even while another goroutine is in Send or Receive.
func (c *Conn) BytesReceived() int64 { return c.bytesIn.Load() }

// SendTime returns the cumulative wall-clock time spent inside Send. Over a
// bandwidth-shaped link this is effectively the downlink busy time, which is
// what the planner's link probe divides shipped bytes by.
func (c *Conn) SendTime() time.Duration { return time.Duration(c.sendNs.Load()) }

// ReceiveTime returns the cumulative wall-clock time spent blocked inside
// Receive (uplink transfer plus peer latency).
func (c *Conn) ReceiveTime() time.Duration { return time.Duration(c.recvNs.Load()) }

// Probe is an opaque padding message used to measure live link bandwidth. The
// receiver of a probe with EchoBytes > 0 answers with a probe whose payload is
// EchoBytes long (and whose own EchoBytes is zero, terminating the exchange).
type Probe struct {
	// Seq matches an echo to the probe that requested it.
	Seq uint32
	// EchoBytes is the payload size the peer should answer with.
	EchoBytes uint32
	// Payload is opaque padding sized by the prober.
	Payload []byte
}

// Mode selects the client-side execution strategy for a session.
type Mode uint8

// Execution modes. Mode 0 is retired: it was the naive strategy, which the
// server now runs as a semi-join shipping one tuple at a time. It stays
// reserved, and a client refuses it like any other unknown mode.
const (
	// ModeSemiJoin ships duplicate-free argument columns and receives bare
	// results.
	ModeSemiJoin Mode = iota + 1
	// ModeClientJoin ships full records and receives filtered, projected
	// records with the UDF results appended.
	ModeClientJoin
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeSemiJoin:
		return "semijoin"
	case ModeClientJoin:
		return "clientjoin"
	default:
		return "unknown"
	}
}

// UDFSpec names one UDF to apply at the client and the ordinals (within the
// shipped tuple) of its arguments.
type UDFSpec struct {
	Name        string
	ArgOrdinals []int
}

// SetupRequest configures a client-side execution session.
type SetupRequest struct {
	// SessionID identifies the session; batches carry it so that one
	// connection can multiplex sessions.
	SessionID uint64
	// Mode is the execution strategy.
	Mode Mode
	// InputSchema describes the tuples shipped to the client.
	InputSchema *types.Schema
	// UDFs are applied in order; each result is appended to the shipped tuple
	// (client-site join) or returned bare (semi-join).
	UDFs []UDFSpec
	// PushablePredicate, when non-empty, is a marshalled expression evaluated
	// at the client over the shipped tuple extended with the UDF results;
	// tuples failing it are dropped before anything is returned.
	PushablePredicate []byte
	// ProjectOrdinals, when non-empty, lists the ordinals (into the shipped
	// tuple extended with UDF results) returned to the server. Empty means
	// return everything (semi-join returns only results regardless).
	ProjectOrdinals []int
	// FinalDelivery is the retired flag bit 0. It asked the client to keep
	// the result rows itself (Section 5.1.1(d)); no client does, and a
	// client refuses a setup that sets it. The bit stays reserved.
	FinalDelivery bool
	// Flag bit 1 is retired: it asked for a per-frame value dictionary on
	// the session's batches. A client ignores it, and acks without the
	// trailing capability byte that accepted it, which a server that still
	// sets the bit reads as declined.
}

// SetupAck is the client's answer to a SetupRequest. Acks from clients that
// accepted the retired per-frame dictionary end in a capability byte; the
// decoder skips it.
type SetupAck struct {
	SessionID uint64
	OK        bool
	Error     string
}

// TupleBatch is a batch of shipped tuples (downlink) or returned tuples
// (uplink).
type TupleBatch struct {
	SessionID uint64
	Seq       uint64
	Tuples    []types.Tuple
}

// ErrorMsg carries an error across the wire.
type ErrorMsg struct {
	SessionID uint64
	Message   string
}

// RegisterUDF announces a UDF implemented at the client.
type RegisterUDF struct {
	Name        string
	ArgKinds    []types.Kind
	ResultKind  types.Kind
	ResultSize  int
	Selectivity float64
	PerCallCost float64
	// Pure declares the function deterministic and side-effect free, making
	// queries over it eligible for server-side result caching. It is encoded
	// as an optional trailing byte that pre-purity servers ignore; its absence
	// reads as false (never cache), so old peers stay correct.
	Pure bool
}

// End signals the end of a stream for a session.
type End struct {
	SessionID uint64
	// Rows is the row count of a query result stream the server ends; a
	// client's echo of a session End carries 0.
	Rows uint64
}
