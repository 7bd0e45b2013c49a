package colstore

import (
	"encoding/binary"
	"fmt"
	"math"

	"csq/internal/types"
)

// Column-chunk codec. Each column of a segment is stored as one chunk: a tag
// byte, then the column's values in one of two forms, both written with the
// types package's value layouts:
//
//	codecVector  the column as one column vector (types.AppendVector): its
//	             kind once, a null bitmap if a cell is NULL, then untagged
//	             payloads, INTs as delta varints
//	codecDict    an entry count (uvarint), the distinct values
//	             (types.EncodeValue each), then one uvarint code per row
//
// The encoder keeps the smaller form. The vector form is written only for a
// column of one vector kind whose vector spends at least a byte per row
// (types.MinVectorSize), the rule the result stream applies to its frames;
// a mixed-kind column (validate lets INTs into a FLOAT column and NULLs of
// any kind anywhere) and a mostly-NULL one always take the dictionary form.
// So every chunk spends at least a byte per row, which bounds what a corrupt
// row count can make a read allocate. Reading builds no tuples: a chunk
// decodes into one types.Vec, typed where its values are.
const (
	codecVector byte = 0
	codecDict   byte = 1
)

// encodeSegment encodes the rows as one segment starting at dataOff in the
// data file: it returns the segment metadata (offsets, sizes, zone maps), the
// concatenated column-chunk bytes to append to the data file, and the encoded
// index record for the zone-map file.
func encodeSegment(schema *types.Schema, rows []types.Tuple, dataOff int64) (segmentMeta, []byte, []byte, error) {
	width := schema.Len()
	seg := segmentMeta{rows: len(rows), cols: make([]colMeta, width)}
	var data []byte
	var enc chunkEncoder
	for col := 0; col < width; col++ {
		zm := ZoneMap{Rows: len(rows)}
		comparable := schema.Columns[col].Kind.Comparable()
		for _, r := range rows {
			v := r[col]
			switch {
			case v.IsNull():
				zm.Nulls++
			case !comparable:
				// Non-comparable kinds carry no min/max; never pruned.
			case !zm.HasMinMax:
				zm.Min, zm.Max, zm.HasMinMax = v, v, true
			default:
				if c, err := types.Compare(v, zm.Min); err != nil {
					zm.HasMinMax = false
					comparable = false // cross-kind column: stop maintaining
				} else if c < 0 {
					zm.Min = v
				}
				if !zm.HasMinMax {
					continue
				}
				if c, err := types.Compare(v, zm.Max); err != nil {
					zm.HasMinMax = false
					comparable = false
				} else if c > 0 {
					zm.Max = v
				}
			}
		}
		start := len(data)
		var err error
		if data, err = enc.appendChunk(data, rows, col); err != nil {
			return segmentMeta{}, nil, nil, fmt.Errorf("colstore: encode column %d: %w", col, err)
		}
		seg.cols[col] = colMeta{
			off:  dataOff + int64(start),
			size: int64(len(data) - start),
			zm:   zm,
		}
	}
	idxRec, err := encodeSegmentMeta(seg)
	if err != nil {
		return segmentMeta{}, nil, nil, err
	}
	return seg, data, idxRec, nil
}

// chunkEncoder is the scratch of the dictionary form, reused across the
// columns of a segment.
type chunkEncoder struct {
	codes map[string]uint64 // a distinct value's encoding → its code
	vals  []byte            // the distinct values' encodings, in code order
	rows  []byte            // one code per row
	key   []byte
	out   []byte
}

// appendChunk appends the chunk of column col of rows (at least one) in
// whichever form is smaller.
func (e *chunkEncoder) appendChunk(dst []byte, rows []types.Tuple, col int) ([]byte, error) {
	start := len(dst)
	limit := math.MaxInt
	if n, ok := types.MinVectorSize(rows, col); ok && n >= len(rows) {
		dst = types.AppendVector(append(dst, codecVector), rows, col)
		limit = len(dst) - start
	}
	dict, err := e.dictionary(rows, col, limit)
	if err != nil || dict == nil {
		return dst, err
	}
	return append(dst[:start], dict...), nil
}

// dictionary returns the dictionary-form chunk of column col of rows, or nil
// as soon as it cannot come in under limit bytes.
func (e *chunkEncoder) dictionary(rows []types.Tuple, col, limit int) ([]byte, error) {
	if e.codes == nil {
		e.codes = make(map[string]uint64)
	}
	clear(e.codes)
	e.vals, e.rows = e.vals[:0], e.rows[:0]
	for i, r := range rows {
		var err error
		if e.key, err = types.EncodeValue(e.key[:0], r[col]); err != nil {
			return nil, err
		}
		code, ok := e.codes[string(e.key)]
		if !ok {
			code = uint64(len(e.codes))
			e.codes[string(e.key)] = code
			e.vals = append(e.vals, e.key...)
		}
		e.rows = binary.AppendUvarint(e.rows, code)
		// The tag, the entry count and a code for each row left are to come.
		if 2+len(e.vals)+len(e.rows)+len(rows)-1-i >= limit {
			return nil, nil
		}
	}
	e.out = binary.AppendUvarint(append(e.out[:0], codecDict), uint64(len(e.codes)))
	e.out = append(append(e.out, e.vals...), e.rows...)
	if len(e.out) >= limit {
		return nil, nil
	}
	return e.out, nil
}

// decodeColumnChunk decodes one column chunk of rows values into dst, which
// it resets: a typed vector where the chunk's values are of one typed kind.
// The values stay valid indefinitely; a dictionary chunk's rows share its
// entries.
func decodeColumnChunk(raw []byte, dst *types.Vec, rows int) error {
	if len(raw) < 1 {
		return fmt.Errorf("colstore: empty column chunk")
	}
	src := raw[1:]
	if len(src) < rows {
		return fmt.Errorf("colstore: %d rows do not fit a %d-byte column chunk", rows, len(raw))
	}
	var off int
	var err error
	switch raw[0] {
	case codecVector:
		var h types.VectorHead
		if h, off, err = types.DecodeVectorHead(src, rows); err == nil {
			var n int
			n, err = h.DecodeVec(src[off:], rows, dst)
			off += n
		}
	case codecDict:
		off, err = decodeDict(src, dst, rows)
	default:
		return fmt.Errorf("colstore: unknown column codec %d", raw[0])
	}
	if err == nil && off != len(src) {
		err = fmt.Errorf("%d trailing bytes", len(src)-off)
	}
	if err != nil {
		return fmt.Errorf("colstore: decode column chunk: %w", err)
	}
	return nil
}

// decodeDict decodes a dictionary-form chunk body and returns the bytes it
// consumed. An entry takes at least its tag byte, so a count beyond the bytes
// left is refused before it sizes the dictionary.
func decodeDict(src []byte, dst *types.Vec, rows int) (int, error) {
	entries, off := binary.Uvarint(src)
	if off <= 0 || entries > uint64(len(src)-off) {
		return 0, fmt.Errorf("bad dictionary size")
	}
	dict := make([]types.Value, entries)
	for i := range dict {
		v, n, err := types.DecodeValue(src[off:])
		if err != nil {
			return 0, fmt.Errorf("entry %d: %w", i, err)
		}
		dict[i], off = v, off+n
	}
	dst.Reset()
	if entries > 0 {
		dst.Reserve(dict[0].Kind(), rows)
	}
	for r := 0; r < rows; r++ {
		code, n := binary.Uvarint(src[off:])
		if n <= 0 || code >= entries {
			return 0, fmt.Errorf("row %d: bad dictionary code", r)
		}
		dst.Append(dict[code])
		off += n
	}
	return off, nil
}

// encodeSegmentMeta renders one zone-map index record (without its length
// prefix): rowCount, then per column offset, size, nulls, and the optional
// min/max pair.
func encodeSegmentMeta(seg segmentMeta) ([]byte, error) {
	out := binary.AppendUvarint(nil, uint64(seg.rows))
	for col, cm := range seg.cols {
		out = binary.AppendUvarint(out, uint64(cm.off))
		out = binary.AppendUvarint(out, uint64(cm.size))
		out = binary.AppendUvarint(out, uint64(cm.zm.Nulls))
		if !cm.zm.HasMinMax {
			out = append(out, 0)
			continue
		}
		out = append(out, 1)
		var err error
		if out, err = types.EncodeValue(out, cm.zm.Min); err != nil {
			return nil, fmt.Errorf("colstore: encode zone map of column %d: %w", col, err)
		}
		if out, err = types.EncodeValue(out, cm.zm.Max); err != nil {
			return nil, fmt.Errorf("colstore: encode zone map of column %d: %w", col, err)
		}
	}
	return out, nil
}

// decodeSegmentMeta parses one index record. dataEnd bounds the chunk extents
// against the data file actually on disk.
func decodeSegmentMeta(raw []byte, width int, dataEnd int64) (segmentMeta, error) {
	rows, c := binary.Uvarint(raw)
	if c <= 0 || rows > maxMetaEntry {
		return segmentMeta{}, fmt.Errorf("bad row count")
	}
	raw = raw[c:]
	seg := segmentMeta{rows: int(rows), cols: make([]colMeta, width)}
	var chunks int64
	for col := 0; col < width; col++ {
		var vals [3]uint64
		for i := range vals {
			v, c := binary.Uvarint(raw)
			if c <= 0 {
				return segmentMeta{}, fmt.Errorf("truncated column %d", col)
			}
			vals[i], raw = v, raw[c:]
		}
		cm := colMeta{
			off:  int64(vals[0]),
			size: int64(vals[1]),
			zm:   ZoneMap{Rows: int(rows), Nulls: int(vals[2])},
		}
		if cm.off < 0 || cm.size <= 0 || cm.off+cm.size > dataEnd {
			return segmentMeta{}, fmt.Errorf("column %d extent [%d,%d) outside data file of %d bytes",
				col, cm.off, cm.off+cm.size, dataEnd)
		}
		// Each row costs a chunk at least a byte (a vector payload or a
		// dictionary code), and a segment's chunks do not overlap: this keeps
		// the vectors a read allocates within a constant factor of the data
		// file.
		if int64(rows) > cm.size {
			return segmentMeta{}, fmt.Errorf("%d rows do not fit column %d's %d-byte chunk", rows, col, cm.size)
		}
		if chunks += cm.size; chunks > dataEnd {
			return segmentMeta{}, fmt.Errorf("chunks of %d bytes exceed the data file of %d bytes", chunks, dataEnd)
		}
		if len(raw) == 0 {
			return segmentMeta{}, fmt.Errorf("truncated column %d", col)
		}
		hasMinMax := raw[0]
		raw = raw[1:]
		if hasMinMax == 1 {
			var err error
			var used int
			if cm.zm.Min, used, err = types.DecodeValue(raw); err != nil {
				return segmentMeta{}, fmt.Errorf("column %d min: %w", col, err)
			}
			raw = raw[used:]
			if cm.zm.Max, used, err = types.DecodeValue(raw); err != nil {
				return segmentMeta{}, fmt.Errorf("column %d max: %w", col, err)
			}
			raw = raw[used:]
			cm.zm.HasMinMax = true
		}
		seg.cols[col] = cm
	}
	if len(raw) != 0 {
		return segmentMeta{}, fmt.Errorf("%d trailing bytes", len(raw))
	}
	return seg, nil
}
