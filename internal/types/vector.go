package types

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Column vectors.
//
// A column vector encodes one column of a frame of rows, column-major. The
// frame around it says how many rows there are; the vector is
//
//	kind   u8           the kind of every cell, NULLs included
//	flags  u8           bit 0: a null bitmap follows
//	bitmap ⌈rows/8⌉ B   bit i (least significant first) set when cell i is
//	                    NULL; the bits past the last cell are zero
//	payloads            one per non-NULL cell, in row order
//
// A payload carries no tag, the kind being the vector's:
//
//	INT         zigzag varint of the delta from the previous non-NULL cell
//	            (from 0 for the first), wrapping mod 2⁶⁴
//	FLOAT       the 8 bytes of its bits, little-endian (−0 and NaN kept)
//	BOOL        1 byte
//	STRING      uvarint length, then the bytes
//	BYTES       uvarint length, then the bytes
//	TIMESERIES  uvarint count, then 8 bytes per element
//
// A user of vectors may put something else in a cell's place (a dictionary
// reference, say); VectorCursor.Skip keeps the INT deltas in step with it.

const (
	vectorNulls = 1 // flags bit 0
	// vectorHeadBytes is the kind and flags bytes.
	vectorHeadBytes = 2
)

// vectorKind reports whether a vector can be of kind k: every kind a value
// can have, KindNull (a column of untyped NULLs) and KindInvalid included.
func vectorKind(k Kind) bool { return k <= KindNull }

// MinVectorSize returns the fewest bytes the vector of column c of rows can
// take: its head, its bitmap if a cell is NULL, and a byte per non-NULL cell,
// the least a payload (or whatever stands in a payload's place) takes. ok is
// false when the column's cells are not all of one vector kind.
func MinVectorSize(rows []Tuple, c int) (n int, ok bool) {
	kind := rows[0][c].Kind()
	if !vectorKind(kind) {
		return 0, false
	}
	nulls := 0
	for _, r := range rows {
		if r[c].Kind() != kind {
			return 0, false
		}
		if r[c].IsNull() {
			nulls++
		}
	}
	n = vectorHeadBytes + len(rows) - nulls
	if nulls > 0 {
		n += bitmapBytes(len(rows))
	}
	return n, true
}

func bitmapBytes(rows int) int { return (rows + 7) / 8 }

// AppendVectorHead appends the kind, the flags and, if a cell is NULL, the
// null bitmap of column c of rows, whose cells MinVectorSize accepted.
func AppendVectorHead(dst []byte, rows []Tuple, c int) []byte {
	kind := byte(rows[0][c].Kind())
	at := -1
	for i, r := range rows {
		if !r[c].IsNull() {
			continue
		}
		if at < 0 {
			dst = append(dst, kind, vectorNulls)
			at = len(dst)
			dst = append(dst, make([]byte, bitmapBytes(len(rows)))...)
		}
		dst[at+i/8] |= 1 << (i % 8)
	}
	if at < 0 {
		dst = append(dst, kind, 0)
	}
	return dst
}

// AppendVector appends the whole vector of column c of rows, whose cells
// MinVectorSize accepted: its head, then every non-NULL cell's payload.
func AppendVector(dst []byte, rows []Tuple, c int) []byte {
	dst = AppendVectorHead(dst, rows, c)
	var cur VectorCursor
	for _, r := range rows {
		if v := r[c]; !v.IsNull() {
			dst = cur.Append(dst, v)
		}
	}
	return dst
}

// VectorHead is a decoded vector head.
type VectorHead struct {
	Kind  Kind
	nulls []byte // the bitmap, aliasing the input; nil when no cell is NULL
}

// Null reports whether cell i is NULL.
func (h VectorHead) Null(i int) bool {
	return h.nulls != nil && h.nulls[i/8]&(1<<(i%8)) != 0
}

// DecodeVectorHead decodes the head of a vector of rows cells from src and
// returns it with the number of bytes consumed.
func DecodeVectorHead(src []byte, rows int) (VectorHead, int, error) {
	if len(src) < vectorHeadBytes {
		return VectorHead{}, 0, fmt.Errorf("types: vector head: short input")
	}
	h := VectorHead{Kind: Kind(src[0])}
	if !vectorKind(h.Kind) {
		return VectorHead{}, 0, fmt.Errorf("types: vector head: unknown kind %#x", src[0])
	}
	switch src[1] {
	case 0:
		return h, vectorHeadBytes, nil
	case vectorNulls:
		n := vectorHeadBytes + bitmapBytes(rows)
		if len(src) < n {
			return VectorHead{}, 0, fmt.Errorf("types: vector head: short null bitmap")
		}
		h.nulls = src[vectorHeadBytes:n]
		// A NULL past the last cell is a damaged row count, not padding.
		if rows%8 != 0 && h.nulls[len(h.nulls)-1]>>(rows%8) != 0 {
			return VectorHead{}, 0, fmt.Errorf("types: vector head: null bits past the last of %d rows", rows)
		}
		return h, n, nil
	default:
		return VectorHead{}, 0, fmt.Errorf("types: vector head: unknown flags %#x", src[1])
	}
}

// DecodeInto decodes the payloads of a vector of rows cells, which follow
// its head in src, into dst[0], dst[stride], … and returns the number of
// bytes consumed. Strings, byte strings and series are copied out of src.
func (h VectorHead) DecodeInto(src []byte, rows int, dst []Value, stride int) (int, error) {
	var cur VectorCursor
	off := 0
	for i := 0; i < rows; i++ {
		slot := &dst[i*stride]
		switch {
		case h.Null(i):
			*slot = Null(h.Kind)
		case h.Kind == KindInt: // the common case, without a call per cell
			d, n := binary.Varint(src[off:])
			if n <= 0 {
				return 0, fmt.Errorf("types: vector INT: bad varint")
			}
			off += n
			cur.base += uint64(d)
			*slot = NewInt(int64(cur.base))
		default:
			v, n, err := cur.Decode(src[off:], h.Kind)
			if err != nil {
				return 0, err
			}
			off += n
			*slot = v
		}
	}
	return off, nil
}

// DecodeVec decodes the payloads of a vector of rows cells, which follow its
// head in src, into dst, which it resets, and returns the number of bytes
// consumed. Strings, byte strings and series are copied out of src.
func (h VectorHead) DecodeVec(src []byte, rows int, dst *Vec) (int, error) {
	dst.Reset()
	dst.Reserve(h.Kind, rows) // rows is at most the bytes left
	var cur VectorCursor
	off := 0
	for i := 0; i < rows; i++ {
		switch {
		case h.Null(i):
			dst.Append(Null(h.Kind))
		case h.Kind == KindInt: // the common case, without a call per cell
			d, n := binary.Varint(src[off:])
			if n <= 0 {
				return 0, fmt.Errorf("types: vector INT: bad varint")
			}
			off += n
			cur.base += uint64(d)
			dst.Ints = append(dst.Ints, int64(cur.base))
		case h.Kind == KindFloat && len(src)-off >= 8:
			dst.Floats = append(dst.Floats, math.Float64frombits(binary.LittleEndian.Uint64(src[off:])))
			off += 8
		default:
			v, n, err := cur.Decode(src[off:], h.Kind)
			if err != nil {
				return 0, err
			}
			off += n
			dst.Append(v)
		}
	}
	return off, nil
}

// VectorCursor codes the payloads of one vector's non-NULL cells, in row
// order: it carries the base the next INT delta is taken from. The zero value
// starts a vector.
type VectorCursor struct {
	base uint64
}

// Skip makes v, a non-NULL cell coded in some other way, the base of the
// next INT delta.
func (c *VectorCursor) Skip(v Value) {
	if v.kind == KindInt {
		c.base = v.w
	}
}

// Append appends the payload of v, a non-NULL cell of its vector's kind.
func (c *VectorCursor) Append(dst []byte, v Value) []byte {
	switch v.kind {
	case KindInt:
		dst = binary.AppendVarint(dst, int64(v.w-c.base))
		c.base = v.w
	case KindFloat:
		dst = binary.LittleEndian.AppendUint64(dst, v.w)
	case KindBool:
		dst = append(dst, byte(v.w))
	case KindString, KindBytes:
		dst = binary.AppendUvarint(dst, v.w)
		dst = append(dst, v.bytes()...)
	case KindTimeSeries:
		dst = binary.AppendUvarint(dst, v.w)
		for _, f := range v.series() {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
		}
	}
	return dst
}

// Decode decodes the payload of a non-NULL cell of the given kind from src
// and returns it with the number of bytes consumed. Strings, byte strings and
// series are copied out of src.
func (c *VectorCursor) Decode(src []byte, kind Kind) (Value, int, error) {
	switch kind {
	case KindInt:
		d, n := binary.Varint(src)
		if n <= 0 {
			return Value{}, 0, fmt.Errorf("types: vector INT: bad varint")
		}
		c.base += uint64(d)
		return NewInt(int64(c.base)), n, nil
	case KindFloat:
		if len(src) < 8 {
			return Value{}, 0, fmt.Errorf("types: vector FLOAT: short input")
		}
		return NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(src))), 8, nil
	case KindBool:
		if len(src) < 1 {
			return Value{}, 0, fmt.Errorf("types: vector BOOL: short input")
		}
		return NewBool(src[0] != 0), 1, nil
	case KindString, KindBytes, KindTimeSeries:
		n, ln, err := decodeLen(src)
		if err != nil {
			return Value{}, 0, fmt.Errorf("types: vector %s: %w", kind, err)
		}
		width := 1
		if kind == KindTimeSeries {
			width = 8
		}
		if len(src)-ln < n*width {
			return Value{}, 0, fmt.Errorf("types: vector %s: short input", kind)
		}
		body := src[ln : ln+n*width]
		switch kind {
		case KindString:
			return NewString(string(body)), ln + len(body), nil
		case KindBytes:
			b := make([]byte, n)
			copy(b, body)
			return NewBytes(b), ln + len(body), nil
		}
		ts := make(TimeSeries, n)
		for i := range ts {
			ts[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
		}
		return NewTimeSeries(ts), ln + len(body), nil
	default:
		return Value{}, 0, fmt.Errorf("types: vector of kind %s has no payloads", kind)
	}
}
