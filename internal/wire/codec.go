package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"csq/internal/types"
)

// bufPool recycles encode buffers across frames. Hot senders (the semi-join
// and client-join pipelines) encode one frame, hand it to Conn.Send (which
// copies it into the bufio writer), and return the buffer immediately, so the
// steady state allocates nothing per frame.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// GetBuffer returns a pooled, zero-length byte slice to encode a frame into.
// Return it with PutBuffer once the frame has been handed to Conn.Send.
func GetBuffer() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuffer returns an encode buffer to the pool. The caller must not touch
// the slice afterwards.
func PutBuffer(b *[]byte) {
	if b == nil || cap(*b) > MaxFrameSize {
		return
	}
	bufPool.Put(b)
}

// Payload encoders and decoders for the message bodies defined in wire.go.
// They use the same primitives as the tuple encoding (uvarint lengths,
// little-endian fixed-width numbers) so that the cost model's byte accounting
// stays faithful.

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendInts(dst []byte, xs []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(xs)))
	for _, x := range xs {
		dst = binary.AppendUvarint(dst, uint64(x))
	}
	return dst
}

// EncodeSetup serialises a SetupRequest.
func EncodeSetup(s *SetupRequest) ([]byte, error) {
	if s.InputSchema == nil {
		return nil, fmt.Errorf("wire: setup requires an input schema")
	}
	var dst []byte
	dst = binary.LittleEndian.AppendUint64(dst, s.SessionID)
	dst = append(dst, byte(s.Mode))
	flags := byte(0)
	if s.FinalDelivery {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = types.EncodeSchema(dst, s.InputSchema)
	dst = binary.AppendUvarint(dst, uint64(len(s.UDFs)))
	for _, u := range s.UDFs {
		dst = appendString(dst, u.Name)
		dst = appendInts(dst, u.ArgOrdinals)
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.PushablePredicate)))
	dst = append(dst, s.PushablePredicate...)
	dst = appendInts(dst, s.ProjectOrdinals)
	return dst, nil
}

// DecodeSetup deserialises a SetupRequest.
func DecodeSetup(src []byte) (*SetupRequest, error) {
	r := reader{msg: "setup", src: src}
	s := &SetupRequest{SessionID: r.u64(), Mode: Mode(r.u8())}
	s.FinalDelivery = r.u8()&1 != 0 // bit 1, the retired dictionary request, is ignored
	s.InputSchema = r.schema()
	s.UDFs = r.udfs()
	s.PushablePredicate = r.bytes()
	if ords := r.ints(); len(ords) > 0 {
		s.ProjectOrdinals = ords
	}
	return decoded(s, r.end())
}

// EncodeSetupAck serialises a SetupAck.
func EncodeSetupAck(a *SetupAck) []byte {
	var dst []byte
	dst = binary.LittleEndian.AppendUint64(dst, a.SessionID)
	if a.OK {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return appendString(dst, a.Error)
}

// DecodeSetupAck deserialises a SetupAck. One byte may follow the error
// string: the capability byte of clients that accepted the retired per-frame
// dictionary, which is skipped. Anything longer is refused.
func DecodeSetupAck(src []byte) (*SetupAck, error) {
	r := reader{msg: "setup ack", src: src}
	a := &SetupAck{SessionID: r.u64(), OK: r.u8() != 0, Error: r.str()}
	if r.more() {
		r.u8()
	}
	return decoded(a, r.end())
}

// AppendTupleBatch appends the serialisation of a TupleBatch to dst and
// returns the extended slice. Pair it with GetBuffer/PutBuffer to encode
// frames without allocating.
func AppendTupleBatch(dst []byte, b *TupleBatch) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint64(dst, b.SessionID)
	return appendBatchBody(dst, b.Seq, b.Tuples)
}

// SendBatch encodes b and sends it on conn as a msgType frame. Encoding goes
// through a pooled buffer so the steady state allocates nothing per frame. It
// is the single send path shared by the server operators (tuple frames) and
// the client runtime (result frames).
func SendBatch(conn *Conn, b *TupleBatch, msgType MsgType) error {
	buf := GetBuffer()
	defer PutBuffer(buf)
	payload, err := AppendTupleBatch(*buf, b)
	if err != nil {
		return err
	}
	*buf = payload
	return conn.Send(msgType, payload)
}

// appendBatchBody appends what follows the session ID in a plain tuple batch:
// the sequence number, the row count and the rows.
func appendBatchBody(dst []byte, seq uint64, tuples []types.Tuple) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(tuples)))
	var err error
	for _, t := range tuples {
		dst, err = types.EncodeTuple(dst, t)
		if err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// DecodeTupleBatchInto deserialises a TupleBatch into b, reusing b.Tuples'
// capacity. All decoded values of the frame share one freshly allocated
// backing arena, so decoding costs O(1) allocations per frame instead of one
// per tuple. The arena is never recycled: tuples handed out stay valid
// indefinitely, but retaining a single tuple pins the whole frame's values.
func DecodeTupleBatchInto(b *TupleBatch, src []byte) error {
	if len(src) < 16 {
		return fmt.Errorf("wire: tuple batch too short")
	}
	b.SessionID = binary.LittleEndian.Uint64(src)
	b.Seq = binary.LittleEndian.Uint64(src[8:])
	var err error
	b.Tuples, err = decodeBatchRows(b.Tuples, src[16:])
	return err
}

// decodeBatchRows decodes the row count and rows of a plain tuple batch into
// tuples, reusing its capacity.
func decodeBatchRows(tuples []types.Tuple, src []byte) ([]types.Tuple, error) {
	n, off, err := readRowCount(src)
	if err != nil {
		return nil, fmt.Errorf("wire: tuple batch: %w", err)
	}
	tuples, used, err := decodeRows(tuples, src[off:], n)
	if err != nil {
		return nil, fmt.Errorf("wire: tuple batch: %w", err)
	}
	if off += used; off != len(src) {
		return nil, fmt.Errorf("wire: tuple batch: %d trailing bytes", len(src)-off)
	}
	return tuples, nil
}

// readRowCount reads the row count that opens the rows of a batch. A row takes
// at least its column-count byte, so a count beyond the bytes left is refused
// before it sizes an allocation.
func readRowCount(src []byte) (n, used int, err error) {
	u, c := binary.Uvarint(src)
	if c <= 0 || u > 1<<24 || u > uint64(len(src)-c) {
		return 0, 0, fmt.Errorf("bad row count")
	}
	return int(u), c, nil
}

// decodeRows decodes n rows, each a column count and that many value
// encodings, into tuples, reusing its capacity. Every value lands in one
// arena, sized from the first row's column count and capped by the bytes left
// (a value takes at least one byte), so a uniform batch decodes without
// regrowing it. It returns the bytes consumed.
func decodeRows(tuples []types.Tuple, src []byte, n int) ([]types.Tuple, int, error) {
	if tuples == nil || cap(tuples) < n {
		tuples = make([]types.Tuple, 0, n)
	}
	tuples = tuples[:0]
	var arena []types.Value
	off := 0
	for i := 0; i < n; i++ {
		cols, c := binary.Uvarint(src[off:])
		if c <= 0 || cols > 1<<20 || cols > uint64(len(src)-off-c) {
			return nil, 0, fmt.Errorf("row %d: bad column count", i)
		}
		off += c
		if arena == nil {
			left := uint64(len(src) - off)
			arena = make([]types.Value, 0, min(cols*uint64(n), left))
		}
		start := len(arena)
		for j := uint64(0); j < cols; j++ {
			v, used, err := types.DecodeValue(src[off:])
			if err != nil {
				return nil, 0, fmt.Errorf("row %d column %d: %w", i, j, err)
			}
			arena = append(arena, v)
			off += used
		}
		tuples = append(tuples, types.Tuple(arena[start:]))
	}
	// Appends may have moved the arena; the tuples' lengths are right, so
	// slice every one out of where the arena ended up.
	start := 0
	for i, t := range tuples {
		end := start + len(t)
		tuples[i] = types.Tuple(arena[start:end:end])
		start = end
	}
	return tuples, off, nil
}

// EncodeError serialises an ErrorMsg.
func EncodeError(e *ErrorMsg) []byte {
	var dst []byte
	dst = binary.LittleEndian.AppendUint64(dst, e.SessionID)
	dst = appendString(dst, e.Message)
	return dst
}

// DecodeError deserialises an ErrorMsg.
func DecodeError(src []byte) (*ErrorMsg, error) {
	r := reader{msg: "error message", src: src}
	e := &ErrorMsg{SessionID: r.u64(), Message: r.str()}
	return decoded(e, r.err)
}

// EncodeEnd serialises an End marker.
func EncodeEnd(e *End) []byte {
	var dst []byte
	dst = binary.LittleEndian.AppendUint64(dst, e.SessionID)
	dst = binary.LittleEndian.AppendUint64(dst, e.Rows)
	return dst
}

// DecodeEnd deserialises an End marker.
func DecodeEnd(src []byte) (*End, error) {
	r := reader{msg: "end", src: src}
	e := &End{SessionID: r.u64(), Rows: r.u64()}
	return decoded(e, r.err)
}

// AppendProbe appends the serialisation of a Probe to dst. The payload is
// written verbatim so the frame size on the wire equals the probe size plus a
// fixed 8-byte header, keeping the probe's byte accounting exact.
func AppendProbe(dst []byte, p *Probe) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, p.Seq)
	dst = binary.LittleEndian.AppendUint32(dst, p.EchoBytes)
	return append(dst, p.Payload...)
}

// DecodeProbe deserialises a Probe. The returned payload aliases src.
func DecodeProbe(src []byte) (*Probe, error) {
	r := reader{msg: "probe", src: src}
	p := &Probe{Seq: r.u32(), EchoBytes: r.u32()}
	p.Payload = r.take(r.left())
	return decoded(p, r.err)
}

// EncodeRegisterUDF serialises a RegisterUDF announcement.
func EncodeRegisterUDF(r *RegisterUDF) []byte {
	var dst []byte
	dst = appendString(dst, r.Name)
	dst = binary.AppendUvarint(dst, uint64(len(r.ArgKinds)))
	for _, k := range r.ArgKinds {
		dst = append(dst, byte(k))
	}
	dst = append(dst, byte(r.ResultKind))
	dst = binary.AppendUvarint(dst, uint64(r.ResultSize))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Selectivity))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.PerCallCost))
	if r.Pure {
		dst = append(dst, 1)
	}
	return dst
}

// DecodeRegisterUDF deserialises a RegisterUDF announcement.
func DecodeRegisterUDF(src []byte) (*RegisterUDF, error) {
	r := reader{msg: "register udf", src: src}
	u := &RegisterUDF{Name: r.str()}
	for n := r.count(64); n > 0; n-- {
		u.ArgKinds = append(u.ArgKinds, types.Kind(r.u8()))
	}
	u.ResultKind = types.Kind(r.u8())
	u.ResultSize = int(r.uvarint())
	u.Selectivity = math.Float64frombits(r.u64())
	u.PerCallCost = math.Float64frombits(r.u64())
	// Optional trailing purity byte: announcements from pre-purity clients
	// end at the floats and read as impure.
	if r.more() {
		u.Pure = r.u8() != 0
	}
	return decoded(u, r.err)
}
