package types

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary encoding of values and tuples.
//
// The encoding is self-describing and deterministic: every value is encoded
// as a 1-byte tag (kind | null flag) followed by a kind-specific payload.
// Variable-width payloads carry a uvarint length prefix. The same encoding is
// used by the storage layer, the wire protocol and Tuple.Key, so sizes
// reported by Value.Size stay in step with bytes on the wire.

const nullFlag = 0x80

// EncodeValue appends the encoding of v to dst and returns the extended slice.
func EncodeValue(dst []byte, v Value) ([]byte, error) {
	kind := v.Kind()
	tag := byte(kind)
	if v.IsNull() {
		dst = append(dst, tag|nullFlag)
		return dst, nil
	}
	dst = append(dst, tag)
	switch kind {
	case KindInt:
		i, _ := v.Int()
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(i))
		dst = append(dst, buf[:]...)
	case KindFloat:
		f, _ := v.Float()
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		dst = append(dst, buf[:]...)
	case KindBool:
		b, _ := v.Bool()
		if b {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case KindString:
		s, _ := v.Str()
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	case KindBytes:
		b, _ := v.Bytes()
		dst = binary.AppendUvarint(dst, uint64(len(b)))
		dst = append(dst, b...)
	case KindTimeSeries:
		ts, _ := v.Series()
		dst = binary.AppendUvarint(dst, uint64(len(ts)))
		for _, f := range ts {
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
			dst = append(dst, buf[:]...)
		}
	default:
		return nil, fmt.Errorf("types: cannot encode value of kind %s", kind)
	}
	return dst, nil
}

// DecodeValue decodes one value from src and returns it along with the number
// of bytes consumed.
func DecodeValue(src []byte) (Value, int, error) {
	if len(src) == 0 {
		return Value{}, 0, fmt.Errorf("types: decode value: empty input")
	}
	tag := src[0]
	kind := Kind(tag &^ nullFlag)
	if tag&nullFlag != 0 {
		return Null(kind), 1, nil
	}
	rest := src[1:]
	switch kind {
	case KindInt:
		if len(rest) < 8 {
			return Value{}, 0, fmt.Errorf("types: decode INT: short input")
		}
		return NewInt(int64(binary.LittleEndian.Uint64(rest))), 9, nil
	case KindFloat:
		if len(rest) < 8 {
			return Value{}, 0, fmt.Errorf("types: decode FLOAT: short input")
		}
		return NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(rest))), 9, nil
	case KindBool:
		if len(rest) < 1 {
			return Value{}, 0, fmt.Errorf("types: decode BOOL: short input")
		}
		return NewBool(rest[0] != 0), 2, nil
	case KindString:
		n, ln, err := decodeLen(rest)
		if err != nil {
			return Value{}, 0, fmt.Errorf("types: decode STRING: %w", err)
		}
		if len(rest) < ln+n {
			return Value{}, 0, fmt.Errorf("types: decode STRING: short input")
		}
		return NewString(string(rest[ln : ln+n])), 1 + ln + n, nil
	case KindBytes:
		n, ln, err := decodeLen(rest)
		if err != nil {
			return Value{}, 0, fmt.Errorf("types: decode BYTES: %w", err)
		}
		if len(rest) < ln+n {
			return Value{}, 0, fmt.Errorf("types: decode BYTES: short input")
		}
		b := make([]byte, n)
		copy(b, rest[ln:ln+n])
		return NewBytes(b), 1 + ln + n, nil
	case KindTimeSeries:
		n, ln, err := decodeLen(rest)
		if err != nil {
			return Value{}, 0, fmt.Errorf("types: decode TIMESERIES: %w", err)
		}
		if len(rest) < ln+8*n {
			return Value{}, 0, fmt.Errorf("types: decode TIMESERIES: short input")
		}
		ts := make(TimeSeries, n)
		for i := 0; i < n; i++ {
			ts[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[ln+8*i:]))
		}
		return NewTimeSeries(ts), 1 + ln + 8*n, nil
	default:
		return Value{}, 0, fmt.Errorf("types: decode: unknown kind tag %#x", tag)
	}
}

func decodeLen(src []byte) (n, consumed int, err error) {
	u, c := binary.Uvarint(src)
	if c <= 0 {
		return 0, 0, fmt.Errorf("bad length prefix")
	}
	if u > 1<<31 {
		return 0, 0, fmt.Errorf("length %d too large", u)
	}
	return int(u), c, nil
}

// EncodeTuple appends the encoding of t to dst: a uvarint column count
// followed by each value's encoding.
func EncodeTuple(dst []byte, t Tuple) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	var err error
	for _, v := range t {
		dst, err = EncodeValue(dst, v)
		if err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// DecodeTuple decodes one tuple from src and returns it along with the number
// of bytes consumed.
func DecodeTuple(src []byte) (Tuple, int, error) {
	n, c := binary.Uvarint(src)
	if c <= 0 {
		return nil, 0, fmt.Errorf("types: decode tuple: bad column count")
	}
	if n > 1<<20 {
		return nil, 0, fmt.Errorf("types: decode tuple: column count %d too large", n)
	}
	// Every value takes at least its tag byte, so a count beyond the input
	// is refused before it sizes an allocation.
	if n > uint64(len(src)-c) {
		return nil, 0, fmt.Errorf("types: decode tuple: %d columns in %d bytes", n, len(src)-c)
	}
	off := c
	t := make(Tuple, 0, n)
	for i := uint64(0); i < n; i++ {
		v, used, err := DecodeValue(src[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("types: decode tuple column %d: %w", i, err)
		}
		t = append(t, v)
		off += used
	}
	return t, off, nil
}

// EncodeSchema appends a compact encoding of the schema to dst.
func EncodeSchema(dst []byte, s *Schema) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s.Columns)))
	for _, c := range s.Columns {
		dst = append(dst, byte(c.Kind))
		dst = binary.AppendUvarint(dst, uint64(len(c.Qualifier)))
		dst = append(dst, c.Qualifier...)
		dst = binary.AppendUvarint(dst, uint64(len(c.Name)))
		dst = append(dst, c.Name...)
	}
	return dst
}

// DecodeSchema decodes a schema from src and returns it along with the number
// of bytes consumed.
func DecodeSchema(src []byte) (*Schema, int, error) {
	n, c := binary.Uvarint(src)
	if c <= 0 {
		return nil, 0, fmt.Errorf("types: decode schema: bad column count")
	}
	// A column takes at least three bytes (its kind and two string lengths),
	// so a count the input cannot hold is refused before it sizes anything.
	if n > 1<<16 || n > uint64(len(src)-c)/3 {
		return nil, 0, fmt.Errorf("types: decode schema: column count %d too large", n)
	}
	off := c
	cols := make([]Column, 0, n)
	readStr := func() (string, error) {
		u, c := binary.Uvarint(src[off:])
		if c <= 0 {
			return "", fmt.Errorf("bad string length")
		}
		off += c
		if uint64(len(src)-off) < u {
			return "", fmt.Errorf("short input")
		}
		s := string(src[off : off+int(u)])
		off += int(u)
		return s, nil
	}
	for i := uint64(0); i < n; i++ {
		if off >= len(src) {
			return nil, 0, fmt.Errorf("types: decode schema: short input")
		}
		kind := Kind(src[off])
		off++
		q, err := readStr()
		if err != nil {
			return nil, 0, fmt.Errorf("types: decode schema: %w", err)
		}
		name, err := readStr()
		if err != nil {
			return nil, 0, fmt.Errorf("types: decode schema: %w", err)
		}
		cols = append(cols, Column{Qualifier: q, Name: name, Kind: kind})
	}
	return &Schema{Columns: cols}, off, nil
}
