package wire

import (
	"encoding/binary"
	"fmt"
	"time"

	"csq/internal/types"
)

// Column-vector encoding of query results.
//
// A query's answer leaves the server in frames of a few dozen rows. Each
// frame is sent column-major, one types column vector per column, so a kind
// byte is paid once per column and an INT column of neighbouring values
// costs a byte or two per cell. The duplicates in an answer (a UDF result
// shared by ten rows, a group column with a handful of values) are spread
// over the whole answer, not packed into one frame, so a column's dictionary
// lives as long as the result *stream*: one ResultEncoder per query on the
// sending side, one ResultDecoder per query on the receiving side, both
// starting empty, both freed with the query. A MsgResultVectors payload is
//
//	QueryID u64
//	colCount uvarint | rowCount uvarint
//	rawCount uvarint | rawCount column ordinals (uvarint, ascending)
//	colCount column vectors (types.AppendVectorHead, then the cells)
//
// The cells of a raw column are its vector's payloads. A non-NULL cell of a
// dictionary column is a uvarint code: 0 is followed by the cell's payload,
// a literal that becomes the column's next dictionary entry, 1 by a literal
// that is not retained, and k ≥ 2 stands for entry k-2. NULL cells are in
// the vector's bitmap and carry no code. The columns listed after rawCount
// turn raw with this frame, for the rest of the stream, and drop their
// dictionaries. An empty frame is 0,0,0.
//
// Every decision is the encoder's and is written into the frame — which
// literals are retained, which columns turn raw — so the decoder mirrors no
// heuristic; it only holds the encoder to the limits below. The encoder turns
// a column raw when, over a window of at least ResultStreamProbeCells cells,
// its codes cost at least as much as the references saved against the
// column's raw vector: a column therefore never exceeds its raw vector by
// more than one byte per cell of its last window.
//
// Frames the encoding cannot express travel as plain MsgResultBatch frames
// inside the same stream and leave the dictionaries untouched, so a decoder
// accepts both types at any point: rows of differing widths or of none, a
// column whose cells are not all of one kind (NULLs included), and a frame
// whose vectors could take fewer bytes than it has cells, which only a
// mostly-NULL frame can. Plain frames are also all a peer that did not
// negotiate CapResultVectors ever gets. Because a stream starts empty, its
// frame sequence is self-contained: the bytes after the query ID can be
// stored and replayed under another ID.

const (
	// ResultStreamDictBytes caps the dictionary memory of one result stream,
	// on either side: the summed charge (encoded length plus
	// resultStreamEntryOverhead) of the entries all its columns retain. An
	// encoder at the cap emits unretained literals; a decoder fails a frame
	// that retains past it.
	ResultStreamDictBytes = 1 << 20
	// ResultStreamProbeCells is the least number of cells a column is
	// dictionary-coded for before the encoder judges whether that pays.
	ResultStreamProbeCells = 256

	// resultStreamEntryOverhead is charged per dictionary entry on top of its
	// encoded length: the decoder's types.Value, the encoder's map slot.
	resultStreamEntryOverhead = 96
	// Frames beyond these are sent plain and refused on receipt.
	maxResultStreamRows    = 1 << 16
	maxResultStreamColumns = 1 << 16

	// Cell codes of a dictionary column; references start at streamFirstRef.
	streamLiteralRetained = 0
	streamLiteral         = 1
	streamFirstRef        = 2
)

// ResultFrame is one frame of a result stream without the 8-byte query ID
// its payload starts with, so that it can be sent under any ID.
type ResultFrame struct {
	// Type is MsgResultVectors or MsgResultBatch.
	Type MsgType
	// Body is the payload after the query ID.
	Body []byte
}

// StreamID returns the query or session ID a frame's payload starts with;
// every frame of a result stream (batches, End, Error, QueryReject, acks)
// leads with it.
func StreamID(payload []byte) (uint64, bool) {
	if len(payload) < 8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(payload), true
}

// SendResultFrames writes consecutive frames of one result stream under id
// and flushes once, so a stored answer goes out in as few writes as the
// buffer allows.
func (c *Conn) SendResultFrames(id uint64, frames []ResultFrame) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	start := time.Now()
	defer func() { c.sendNs.Add(int64(time.Since(start))) }()
	var lead [8]byte
	binary.LittleEndian.PutUint64(lead[:], id)
	for _, f := range frames {
		if len(f.Body)+len(lead) > MaxFrameSize {
			return fmt.Errorf("wire: frame of %d bytes exceeds limit", len(f.Body)+len(lead))
		}
		if err := c.writeFrame(f.Type, lead[:], f.Body); err != nil {
			return err
		}
	}
	if err := c.w.Flush(); err != nil {
		return c.ioError("flush", err)
	}
	return nil
}

// ResultEncoder encodes the frames of one result stream. It is not safe for
// concurrent use; drop it when the stream ends.
type ResultEncoder struct {
	stream bool
	cols   []encColumn // sized by the first frame that has rows
	charge int         // summed charge of every column's retained entries
	key    []byte      // scratch: the value encoding a dictionary is keyed by
}

type encColumn struct {
	raw    bool
	dict   map[string]uint32 // value encoding → entry index
	charge int
	// The current probe window: cells coded, and bytes spent on codes minus
	// bytes saved by references, against the column's raw vector.
	cells, net int
}

// NewResultEncoder starts a stream. With stream false every frame is a plain
// MsgResultBatch, byte-identical to what AppendTupleBatch produces with
// sequence number 0: what a peer without CapResultVectors is sent.
func NewResultEncoder(stream bool) *ResultEncoder {
	return &ResultEncoder{stream: stream}
}

// Stream reports whether the encoder produces the column-vector encoding.
func (e *ResultEncoder) Stream() bool { return e.stream }

// AppendFrame appends the body of the stream's next frame, holding rows, to
// dst.
func (e *ResultEncoder) AppendFrame(dst []byte, rows []types.Tuple) (ResultFrame, error) {
	if !e.stream || !e.expressible(rows) {
		body, err := appendBatchBody(dst, 0, rows)
		return ResultFrame{Type: MsgResultBatch, Body: body}, err
	}
	if len(rows) == 0 {
		return ResultFrame{Type: MsgResultVectors, Body: append(dst, 0, 0, 0)}, nil
	}
	if e.cols == nil {
		e.cols = make([]encColumn, len(rows[0]))
	}
	dst = binary.AppendUvarint(dst, uint64(len(e.cols)))
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	dst = e.appendRawSwitches(dst)
	for c := range e.cols {
		col := &e.cols[c]
		if col.raw {
			dst = types.AppendVector(dst, rows, c)
			continue
		}
		dst = types.AppendVectorHead(dst, rows, c)
		var cur types.VectorCursor
		for _, row := range rows {
			v := row[c]
			if v.IsNull() {
				continue
			}
			mark := len(dst)
			dst = cur.Append(append(dst, streamLiteral), v)
			payload := len(dst) - mark - 1
			e.key, _ = types.EncodeValue(e.key[:0], v)
			col.cells++
			if idx, ok := col.dict[string(e.key)]; ok {
				dst = binary.AppendUvarint(dst[:mark], uint64(idx)+streamFirstRef)
				col.net += len(dst) - mark - payload
				continue
			}
			col.net++
			if ch := len(e.key) + resultStreamEntryOverhead; e.charge+ch <= ResultStreamDictBytes {
				if col.dict == nil {
					col.dict = make(map[string]uint32)
				}
				col.dict[string(e.key)] = uint32(len(col.dict))
				col.charge += ch
				e.charge += ch
				dst[mark] = streamLiteralRetained
			}
		}
	}
	return ResultFrame{Type: MsgResultVectors, Body: dst}, nil
}

// expressible reports whether rows fit a vector frame: one width, the
// stream's, within the frame limits, every column of one kind, and vectors
// that cannot take fewer bytes than the frame has cells. Rows without columns
// do not fit — a frame must spend at least a byte per cell, or a few bytes
// could stand for any number of them.
func (e *ResultEncoder) expressible(rows []types.Tuple) bool {
	if len(rows) == 0 {
		return true
	}
	width := len(rows[0])
	if e.cols != nil {
		width = len(e.cols)
	}
	if len(rows) > maxResultStreamRows || width == 0 || width > maxResultStreamColumns {
		return false
	}
	for _, r := range rows {
		if len(r) != width {
			return false
		}
	}
	least := 0
	for c := 0; c < width; c++ {
		n, ok := types.MinVectorSize(rows, c)
		if !ok {
			return false
		}
		least += n
	}
	return least >= len(rows)*width
}

// appendRawSwitches closes the probe window of every dictionary column that
// has seen enough cells, turns raw those whose dictionary did not pay for its
// codes, and appends the list.
func (e *ResultEncoder) appendRawSwitches(dst []byte) []byte {
	switching := 0
	for c := range e.cols {
		col := &e.cols[c]
		if col.raw || col.cells < ResultStreamProbeCells {
			continue
		}
		if col.net >= 0 {
			switching++
		} else {
			col.cells, col.net = 0, 0
		}
	}
	dst = binary.AppendUvarint(dst, uint64(switching))
	if switching == 0 {
		return dst
	}
	for c := range e.cols {
		col := &e.cols[c]
		if !col.raw && col.cells >= ResultStreamProbeCells {
			dst = binary.AppendUvarint(dst, uint64(c))
			e.charge -= col.charge
			*col = encColumn{raw: true}
		}
	}
	return dst
}

// ResultDecoder decodes the frames of one result stream, in order. After an
// error the stream is unusable. It is not safe for concurrent use; the zero
// value is ready, and dropping it frees the dictionaries.
type ResultDecoder struct {
	cols   []decColumn
	charge int
	key    []byte // scratch: a retained literal's value encoding, for its charge
}

type decColumn struct {
	raw    bool
	dict   []types.Value
	charge int
}

// DecodeFrame decodes the stream's next frame from its body (the payload
// after the query ID). The tuples share one freshly allocated arena, and
// repeated values share the dictionary's entry, so they stay valid for as
// long as the caller keeps them.
func (d *ResultDecoder) DecodeFrame(f ResultFrame) ([]types.Tuple, error) {
	switch f.Type {
	case MsgResultBatch:
		if len(f.Body) < 8 {
			return nil, fmt.Errorf("wire: tuple batch too short")
		}
		return decodeBatchRows(nil, f.Body[8:])
	case MsgResultVectors:
		return d.decodeVectorFrame(f.Body)
	default:
		return nil, fmt.Errorf("wire: %s is not a result frame", f.Type)
	}
}

func (d *ResultDecoder) decodeVectorFrame(src []byte) ([]types.Tuple, error) {
	off := 0
	next := func(what string) (uint64, error) {
		v, c := binary.Uvarint(src[off:])
		if c <= 0 {
			return 0, fmt.Errorf("wire: result vectors: bad %s", what)
		}
		off += c
		return v, nil
	}
	ncols, err := next("column count")
	if err != nil {
		return nil, err
	}
	nrows, err := next("row count")
	if err != nil {
		return nil, err
	}
	nraw, err := next("raw column count")
	if err != nil {
		return nil, err
	}
	if nrows == 0 {
		if ncols != 0 || nraw != 0 || off != len(src) {
			return nil, fmt.Errorf("wire: result vectors: malformed empty frame")
		}
		return nil, nil
	}
	if nrows > maxResultStreamRows || ncols == 0 || ncols > maxResultStreamColumns {
		return nil, fmt.Errorf("wire: result vectors: frame of %d rows × %d columns is outside the limits", nrows, ncols)
	}
	if d.cols == nil {
		d.cols = make([]decColumn, ncols)
	}
	if int(ncols) != len(d.cols) {
		return nil, fmt.Errorf("wire: result vectors: frame has %d columns, stream has %d", ncols, len(d.cols))
	}
	if nraw > ncols {
		return nil, fmt.Errorf("wire: result vectors: %d raw switches for %d columns", nraw, ncols)
	}
	for i, prev := uint64(0), -1; i < nraw; i++ {
		c, err := next("raw column ordinal")
		if err != nil {
			return nil, err
		}
		if c >= ncols || int(c) <= prev || d.cols[c].raw {
			return nil, fmt.Errorf("wire: result vectors: bad raw switch of column %d", c)
		}
		prev = int(c)
		d.charge -= d.cols[c].charge
		d.cols[c] = decColumn{raw: true}
	}
	// The encoder sends no frame of fewer bytes than cells, which bounds what
	// a frame can make the decoder allocate.
	if nrows*ncols > uint64(len(src)-off) {
		return nil, fmt.Errorf("wire: result vectors: %d cells in %d bytes", nrows*ncols, len(src)-off)
	}
	width, height := int(ncols), int(nrows)
	arena := make([]types.Value, height*width)
	for c := range d.cols {
		head, used, err := types.DecodeVectorHead(src[off:], height)
		if err != nil {
			return nil, fmt.Errorf("wire: result vectors: column %d: %w", c, err)
		}
		off += used
		col := &d.cols[c]
		if col.raw {
			if used, err = head.DecodeInto(src[off:], height, arena[c:], width); err != nil {
				return nil, fmt.Errorf("wire: result vectors: column %d: %w", c, err)
			}
			off += used
			continue
		}
		var cur types.VectorCursor
		for r := 0; r < height; r++ {
			cell := &arena[r*width+c]
			if head.Null(r) {
				*cell = types.Null(head.Kind)
				continue
			}
			code, n := binary.Uvarint(src[off:])
			if n <= 0 {
				return nil, fmt.Errorf("wire: result vectors: row %d column %d: bad cell code", r, c)
			}
			off += n
			if code >= streamFirstRef {
				if code-streamFirstRef >= uint64(len(col.dict)) {
					return nil, fmt.Errorf("wire: result vectors: row %d column %d: index %d outside dictionary of %d",
						r, c, code-streamFirstRef, len(col.dict))
				}
				*cell = col.dict[code-streamFirstRef]
				if cell.Kind() != head.Kind {
					return nil, fmt.Errorf("wire: result vectors: row %d column %d: %s entry in a %s vector",
						r, c, cell.Kind(), head.Kind)
				}
				cur.Skip(*cell)
				continue
			}
			v, used, err := cur.Decode(src[off:], head.Kind)
			if err != nil {
				return nil, fmt.Errorf("wire: result vectors: row %d column %d: %w", r, c, err)
			}
			off += used
			*cell = v
			if code == streamLiteralRetained {
				d.key, _ = types.EncodeValue(d.key[:0], v)
				ch := len(d.key) + resultStreamEntryOverhead
				if d.charge+ch > ResultStreamDictBytes {
					return nil, fmt.Errorf("wire: result vectors: dictionary exceeds %d bytes", ResultStreamDictBytes)
				}
				col.dict = append(col.dict, v)
				col.charge += ch
				d.charge += ch
			}
		}
	}
	if off != len(src) {
		return nil, fmt.Errorf("wire: result vectors: %d trailing bytes", len(src)-off)
	}
	rows := make([]types.Tuple, height)
	for r := range rows {
		rows[r] = types.Tuple(arena[r*width : (r+1)*width : (r+1)*width])
	}
	return rows, nil
}
