package colstore

import (
	"encoding/binary"
	"fmt"

	"csq/internal/types"
	"csq/internal/wire"
)

// Column-chunk codec. Each column of a segment is encoded independently as
// one tag byte followed by the wire layer's batch encoding of the column
// values, viewed as a batch of one-column tuples:
//
//	codecPlain: wire plain tuple-batch encoding
//	codecDict:  wire per-batch dictionary encoding
//
// The choice is made per chunk by wire.AppendTupleBatchAuto, which keeps the
// smaller of the two forms, so a low-cardinality column pays one value
// encoding per distinct value while a high-cardinality one never pays
// dictionary overhead. The dictionary form is this codec's alone: no wire
// conversation sends it. The 16-byte SessionID/Seq header of the wire
// format is written as zeros and ignored on read. Reading builds no tuples:
// wire.DecodeColumnInto writes each value straight into its row's slot of the
// segment arena.
const (
	codecPlain byte = 0
	codecDict  byte = 1
)

// encodeSegment encodes the rows as one segment starting at dataOff in the
// data file: it returns the segment metadata (offsets, sizes, zone maps), the
// concatenated column-chunk bytes to append to the data file, and the encoded
// index record for the zone-map file.
func encodeSegment(schema *types.Schema, rows []types.Tuple, dataOff int64) (segmentMeta, []byte, []byte, error) {
	width := schema.Len()
	seg := segmentMeta{rows: len(rows), cols: make([]colMeta, width)}
	var data []byte
	colVals := make([]types.Value, len(rows))
	colTuples := make([]types.Tuple, len(rows))
	for col := 0; col < width; col++ {
		zm := ZoneMap{Rows: len(rows)}
		comparable := schema.Columns[col].Kind.Comparable()
		for i, r := range rows {
			v := r[col]
			colVals[i] = v
			colTuples[i] = colVals[i : i+1 : i+1]
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
		data = append(data, codecPlain) // placeholder, patched below
		payload, usedDict, err := wire.AppendTupleBatchAuto(data, &wire.TupleBatch{Tuples: colTuples})
		if err != nil {
			return segmentMeta{}, nil, nil, fmt.Errorf("colstore: encode column %d: %w", col, err)
		}
		data = payload
		if usedDict {
			data[start] = codecDict
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

// decodeColumnChunk decodes one column chunk (tag byte + wire batch) of rows
// values straight into a row-major arena: row r lands at dst[r*stride]. The
// values stay valid indefinitely.
func decodeColumnChunk(raw []byte, dst []types.Value, stride, rows int) error {
	if len(raw) < 1 {
		return fmt.Errorf("colstore: empty column chunk")
	}
	if raw[0] != codecPlain && raw[0] != codecDict {
		return fmt.Errorf("colstore: unknown column codec %d", raw[0])
	}
	if err := wire.DecodeColumnInto(dst, stride, rows, raw[1:], raw[0] == codecDict); err != nil {
		return fmt.Errorf("colstore: decode column chunk: %w", err)
	}
	return nil
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
		// Each row costs a chunk at least two bytes (its value count and a
		// value), and a segment's chunks do not overlap: this keeps the
		// arena a read allocates, rows × width values, within a constant
		// factor of the data file.
		if int64(rows) > cm.size/2 {
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
