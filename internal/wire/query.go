package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// Query-service framing: a requester submits queries to a running query
// service (cmd/udfserverd) over the same framed protocol the UDF sessions
// speak. The control conversation is
//
//	requester → server   MsgRegisterUDF*  (optional: announce client UDFs)
//	requester → server   MsgQuery{QuerySpec}
//	server → requester   MsgQueryAck{OK, Caps}
//	server → requester   MsgResultBatch* | MsgResultVectors*  (SessionID = QueryID)
//	server → requester   MsgEnd{Rows}  |  MsgError
//	requester → server   MsgCancel{QueryID}  (any time after an ack with CapCancel)
//
// One connection multiplexes any number of concurrent queries; frames carry
// the query ID the way UDF session frames carry the session ID.

// Capability bits carried in QuerySpec.Caps and echoed (intersected with what
// the server supports) in QueryAck.Caps. Like the dict-batch flag, a
// capability is only used once the peer has echoed it, so old requesters and
// old servers interoperate on the base protocol. Both words are fixed-width,
// so a new bit adds no bytes to a request or an ack.
const (
	// CapCancel: the server accepts MsgCancel for this query.
	CapCancel uint32 = 1 << 0
	// Bit 1 is retired: it was reserved for a stats trailer on MsgEnd that no
	// release ever sent or echoed. It stays unassigned so that a peer setting
	// it is never mistaken for one asking for something newer.

	// CapTextQuery: the server parses, resolves and plans the query text
	// carried in QuerySpec.Text. Text is the only query form, so a server
	// always echoes it.
	CapTextQuery uint32 = 1 << 2
	// CapReject: the server terminates shed or drained queries with a typed
	// MsgQueryReject (reason + retry-after hint) instead of a generic
	// MsgError, so the requester can classify the refusal as retryable.
	CapReject uint32 = 1 << 3
	// CapPrepared: the server accepts MsgPrepare / MsgExecPrepared prepared-
	// statement frames. Requesters must not send them to a server that has not
	// echoed this bit in a MsgQueryAck or MsgPrepareAck.
	CapPrepared uint32 = 1 << 4
	// Bit 5 is retired: it asked for the row-major stream-dictionary encoding
	// of results (message code 19). A server no longer echoes it, so
	// a requester that asks only for it gets plain MsgResultBatch frames.

	// CapResultVectors: the requester decodes MsgResultVectors frames, so the
	// server may send the query's result as column vectors. Without the echo
	// the result arrives as plain MsgResultBatch frames.
	CapResultVectors uint32 = 1 << 6
)

// Capability names one bit of the capability words.
type Capability struct {
	Bit  uint32
	Name string
	// Retired bits are never requested or echoed, and never reassigned.
	Retired bool
}

// Capabilities is the one table of every bit ever assigned: what a server
// echoes and a requester asks for (AllCaps), and what the operations guide's
// capability table is checked against. A new capability is a constant above
// and a row here.
var Capabilities = []Capability{
	{Bit: CapCancel, Name: "cancel"},
	{Bit: 1 << 1, Name: "stats", Retired: true},
	{Bit: CapTextQuery, Name: "text-query"},
	{Bit: CapReject, Name: "reject"},
	{Bit: CapPrepared, Name: "prepared"},
	{Bit: 1 << 5, Name: "result-stream", Retired: true},
	{Bit: CapResultVectors, Name: "result-vectors"},
}

// AllCaps is every capability this build implements, on either side of the
// conversation: the union of the table's live bits.
func AllCaps() uint32 {
	var caps uint32
	for _, c := range Capabilities {
		if !c.Retired {
			caps |= c.Bit
		}
	}
	return caps
}

// RejectReason explains why the server refused to run a query.
type RejectReason uint8

const (
	// RejectOverloaded: the admission queue was full or the query's deadline
	// left no useful queueing budget; the query never ran and is safe to
	// resubmit after the retry-after hint.
	RejectOverloaded RejectReason = iota
	// RejectDraining: the server is shutting down gracefully and shed the
	// query before it ran; resubmit against another (or the restarted)
	// server.
	RejectDraining
)

// String names the reason for logs and error messages.
func (r RejectReason) String() string {
	switch r {
	case RejectOverloaded:
		return "overloaded"
	case RejectDraining:
		return "draining"
	default:
		return "unknown"
	}
}

// ErrOverloaded is the sentinel a shed query's error unwraps to: the server
// refused the query under load without running any of it, so an idempotent
// resubmission is safe. Classify reports it retryable.
var ErrOverloaded = errors.New("wire: server overloaded, query shed")

// ErrServerDraining is the sentinel a drained query's error unwraps to: the
// server is shutting down and shed the query before it ran. Classify reports
// it retryable (against a restarted or different server).
var ErrServerDraining = errors.New("wire: server draining, query shed")

// RejectError is the typed error for a query the server refused to run. It
// unwraps to ErrOverloaded or ErrServerDraining so callers can match with
// errors.Is, and carries the server's retry-after hint.
type RejectError struct {
	Reason RejectReason
	// RetryAfter is the server's backoff hint; zero means "immediately".
	RetryAfter time.Duration
}

// Error implements error.
func (e *RejectError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("wire: query rejected: server %s (retry after %s)", e.Reason, e.RetryAfter)
	}
	return fmt.Sprintf("wire: query rejected: server %s", e.Reason)
}

// Unwrap maps the reason onto its sentinel.
func (e *RejectError) Unwrap() error {
	if e.Reason == RejectDraining {
		return ErrServerDraining
	}
	return ErrOverloaded
}

// QueryReject is the wire form of a typed refusal (server→requester).
type QueryReject struct {
	QueryID uint64
	Reason  RejectReason
	// RetryAfterMillis is the server's resubmission backoff hint.
	RetryAfterMillis int64
}

// Err converts the frame into the typed error requesters surface.
func (q *QueryReject) Err() error {
	return &RejectError{Reason: q.Reason, RetryAfter: time.Duration(q.RetryAfterMillis) * time.Millisecond}
}

// EncodeQueryReject serialises a QueryReject.
func EncodeQueryReject(q *QueryReject) []byte {
	var dst []byte
	dst = binary.LittleEndian.AppendUint64(dst, q.QueryID)
	dst = append(dst, byte(q.Reason))
	dst = binary.AppendUvarint(dst, uint64(q.RetryAfterMillis))
	return dst
}

// DecodeQueryReject deserialises a QueryReject.
func DecodeQueryReject(src []byte) (*QueryReject, error) {
	r := reader{msg: "query reject", src: src}
	q := &QueryReject{QueryID: r.u64(), Reason: RejectReason(r.u8()), RetryAfterMillis: int64(r.uvarint())}
	return decoded(q, r.end())
}

// QuerySpec is the wire form of a service query: its text (see
// docs/QUERYLANG.md), the client runtime address the UDF sessions should dial
// and the query's resource envelope.
type QuerySpec struct {
	// QueryID identifies the query on this connection; result batches carry
	// it as their SessionID.
	QueryID uint64
	// Caps requests optional protocol features (see the Cap constants).
	Caps uint32
	// ClientAddr is the address of the client UDF runtime the server should
	// dial for UDF sessions. Empty is valid for UDF-free queries.
	ClientAddr string
	// MemBudget, when > 0, overrides the service's per-query spill budget in
	// bytes for this query.
	MemBudget int64
	// TimeoutMillis, when > 0, bounds the query's wall-clock time.
	TimeoutMillis int64
	// Text is the query the server parses and plans; it must not be empty.
	Text string
	// Tenant names the accounting principal the query runs under; the
	// service's fair scheduler queues and meters per tenant. Empty means the
	// shared default tenant. It is an optional trailing field, so old servers
	// ignore it and schedule the query under the default tenant.
	Tenant string
}

// QueryAck is the server's admission answer to a MsgQuery.
type QueryAck struct {
	QueryID uint64
	OK      bool
	Error   string
	// Caps echoes the subset of the requested capabilities the server
	// supports; absent bits must not be used.
	Caps uint32
}

// Cancel aborts a running query.
type Cancel struct {
	QueryID uint64
}

// retiredSpecFields is the width of the five positions after Caps where a
// spec once carried a structured query (table, filter, UDFs, pushable
// predicate, projection). Each is written as its empty encoding, one zero
// byte, so a text spec keeps the bytes it always had.
const retiredSpecFields = 5

// EncodeQuerySpec serialises a QuerySpec.
func EncodeQuerySpec(q *QuerySpec) ([]byte, error) {
	if q.Text == "" {
		return nil, fmt.Errorf("wire: query spec needs query text")
	}
	var dst []byte
	dst = binary.LittleEndian.AppendUint64(dst, q.QueryID)
	dst = binary.LittleEndian.AppendUint32(dst, q.Caps)
	dst = append(dst, make([]byte, retiredSpecFields)...)
	dst = appendString(dst, q.ClientAddr)
	dst = binary.AppendUvarint(dst, uint64(q.MemBudget))
	dst = binary.AppendUvarint(dst, uint64(q.TimeoutMillis))
	dst = appendString(dst, q.Text)
	if q.Tenant != "" {
		dst = appendString(dst, q.Tenant)
	}
	return dst, nil
}

// DecodeQuerySpec deserialises a QuerySpec. A non-zero byte where the
// structured fields were is a structured spec from an old requester; it is
// refused, as is a spec without query text.
func DecodeQuerySpec(src []byte) (*QuerySpec, error) {
	r := reader{msg: "query spec", src: src}
	q := &QuerySpec{QueryID: r.u64(), Caps: r.u32()}
	for range retiredSpecFields {
		if r.u8() != 0 {
			r.fail("structured query specs are retired; send query text")
		}
	}
	q.ClientAddr = r.str()
	q.MemBudget = int64(r.uvarint())
	q.TimeoutMillis = int64(r.uvarint())
	if q.Text = r.str(); q.Text == "" {
		r.fail("no query text")
	}
	if r.more() {
		q.Tenant = r.str()
	}
	return decoded(q, r.end())
}

// EncodeQueryAck serialises a QueryAck.
func EncodeQueryAck(a *QueryAck) []byte {
	var dst []byte
	dst = binary.LittleEndian.AppendUint64(dst, a.QueryID)
	if a.OK {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = appendString(dst, a.Error)
	dst = binary.LittleEndian.AppendUint32(dst, a.Caps)
	return dst
}

// DecodeQueryAck deserialises a QueryAck. Acks from older servers may lack
// the trailing capability word; every capability then reads as absent.
func DecodeQueryAck(src []byte) (*QueryAck, error) {
	r := reader{msg: "query ack", src: src}
	a := &QueryAck{QueryID: r.u64(), OK: r.u8() != 0, Error: r.str()}
	if r.left() >= 4 {
		a.Caps = r.u32()
	}
	return decoded(a, r.err)
}

// ExecPrepared runs a previously prepared statement. Prepared statements are
// per-connection: StatementID is the QueryID the MsgPrepare's QuerySpec
// carried, and QueryID is the fresh ID this execution's result stream uses.
// The per-execution overrides mirror QuerySpec's resource envelope; zero
// values inherit the prepared spec's settings.
type ExecPrepared struct {
	// StatementID names the prepared statement on this connection.
	StatementID uint64
	// QueryID identifies this execution; result batches carry it.
	QueryID uint64
	// MemBudget, when > 0, overrides the statement's spill budget in bytes.
	MemBudget int64
	// TimeoutMillis, when > 0, bounds this execution's wall-clock time.
	TimeoutMillis int64
	// Tenant, when non-empty, overrides the statement's tenant.
	Tenant string
}

// EncodeExecPrepared serialises an ExecPrepared.
func EncodeExecPrepared(e *ExecPrepared) []byte {
	var dst []byte
	dst = binary.LittleEndian.AppendUint64(dst, e.StatementID)
	dst = binary.LittleEndian.AppendUint64(dst, e.QueryID)
	dst = binary.AppendUvarint(dst, uint64(e.MemBudget))
	dst = binary.AppendUvarint(dst, uint64(e.TimeoutMillis))
	dst = appendString(dst, e.Tenant)
	return dst
}

// DecodeExecPrepared deserialises an ExecPrepared.
func DecodeExecPrepared(src []byte) (*ExecPrepared, error) {
	r := reader{msg: "exec prepared", src: src}
	e := &ExecPrepared{
		StatementID:   r.u64(),
		QueryID:       r.u64(),
		MemBudget:     int64(r.uvarint()),
		TimeoutMillis: int64(r.uvarint()),
		Tenant:        r.str(),
	}
	return decoded(e, r.end())
}

// EncodeCancel serialises a Cancel.
func EncodeCancel(c *Cancel) []byte {
	return binary.LittleEndian.AppendUint64(nil, c.QueryID)
}

// DecodeCancel deserialises a Cancel.
func DecodeCancel(src []byte) (*Cancel, error) {
	r := reader{msg: "cancel", src: src}
	c := &Cancel{QueryID: r.u64()}
	return decoded(c, r.err)
}
