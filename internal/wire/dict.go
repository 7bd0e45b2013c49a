package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"

	"csq/internal/types"
)

// Per-batch value dictionary encoding of tuple batches: colstore's chunk
// codec.
//
// A dictionary batch encodes each distinct column value exactly once and
// represents rows as uvarint indices into that dictionary, so a
// duplicate-heavy batch costs one encoding per distinct value plus one or two
// index bytes per occurrence instead of re-encoding every occurrence. The
// layout is:
//
//	SessionID u64 | Seq u64
//	dictCount uvarint | dictCount value encodings (types.EncodeValue)
//	rowCount uvarint | per row: colCount uvarint, colCount dict indices (uvarint)
//
// Distinctness is byte-level: the value encoding is deterministic, so equal
// values produce equal encodings and the encoder dedups by comparing encoded
// bytes (hash-chained). AppendTupleBatchAuto emits it only for batches it
// actually shrinks and falls back to the plain encoding otherwise, so the
// dictionary never costs bytes. colstore writes every column chunk this way
// and reads it back with DecodeColumnInto; UDF sessions and result streams
// do not use it.

// dictEncoder is the reusable state of one dictionary encoding pass.
type dictEncoder struct {
	chains map[uint64][]int32 // value hash → dict entry indices
	offs   []int              // offs[i]..offs[i+1] bounds entry i in vals
	vals   []byte             // concatenated distinct value encodings
	rows   []byte             // row section: per row, colCount + indices
	// plainValBytes accumulates what the batch's values would cost in the
	// plain encoding (every occurrence re-encoded), for the auto decision.
	plainValBytes int
}

var dictEncPool = sync.Pool{New: func() any {
	return &dictEncoder{chains: make(map[uint64][]int32)}
}}

func (e *dictEncoder) reset() {
	clear(e.chains)
	e.offs = append(e.offs[:0], 0)
	e.vals = e.vals[:0]
	e.rows = e.rows[:0]
	e.plainValBytes = 0
}

// addValue interns v and returns its dictionary index.
func (e *dictEncoder) addValue(v types.Value) (int32, error) {
	h := v.Hash()
	start := len(e.vals)
	vals, err := types.EncodeValue(e.vals, v)
	if err != nil {
		return 0, err
	}
	e.vals = vals
	enc := e.vals[start:]
	e.plainValBytes += len(enc)
	for _, idx := range e.chains[h] {
		if bytes.Equal(e.vals[e.offs[idx]:e.offs[idx+1]], enc) {
			e.vals = e.vals[:start] // duplicate: drop the re-encoding
			return idx, nil
		}
	}
	idx := int32(len(e.offs) - 1)
	e.offs = append(e.offs, len(e.vals))
	e.chains[h] = append(e.chains[h], idx)
	return idx, nil
}

// uvarintLen returns the encoded size of x.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// AppendTupleBatchAuto appends whichever of the dictionary and plain
// encodings of b is smaller and reports whether the dictionary form was used
// (the caller picks the matching message type). Pair it with
// GetBuffer/PutBuffer like AppendTupleBatch.
func AppendTupleBatchAuto(dst []byte, b *TupleBatch) ([]byte, bool, error) {
	return appendTupleBatchChoosing(dst, b, true)
}

func appendTupleBatchChoosing(dst []byte, b *TupleBatch, auto bool) ([]byte, bool, error) {
	e := dictEncPool.Get().(*dictEncoder)
	defer dictEncPool.Put(e)
	e.reset()
	plainSize := 16 + uvarintLen(uint64(len(b.Tuples)))
	for _, t := range b.Tuples {
		plainSize += uvarintLen(uint64(len(t)))
		e.rows = binary.AppendUvarint(e.rows, uint64(len(t)))
		for _, v := range t {
			idx, err := e.addValue(v)
			if err != nil {
				return nil, false, err
			}
			e.rows = binary.AppendUvarint(e.rows, uint64(idx))
		}
	}
	plainSize += e.plainValBytes
	entries := len(e.offs) - 1
	dictSize := 16 + uvarintLen(uint64(entries)) + len(e.vals) +
		uvarintLen(uint64(len(b.Tuples))) + len(e.rows)
	if auto && dictSize >= plainSize {
		// Assemble the plain encoding from the bytes the dictionary pass
		// already produced — the value encodings in vals, addressed through
		// the row indices — instead of re-encoding every occurrence.
		dst = binary.LittleEndian.AppendUint64(dst, b.SessionID)
		dst = binary.LittleEndian.AppendUint64(dst, b.Seq)
		dst = binary.AppendUvarint(dst, uint64(len(b.Tuples)))
		off := 0
		for range b.Tuples {
			cols, c := binary.Uvarint(e.rows[off:])
			off += c
			dst = binary.AppendUvarint(dst, cols)
			for j := uint64(0); j < cols; j++ {
				idx, c := binary.Uvarint(e.rows[off:])
				off += c
				dst = append(dst, e.vals[e.offs[idx]:e.offs[idx+1]]...)
			}
		}
		return dst, false, nil
	}
	dst = binary.LittleEndian.AppendUint64(dst, b.SessionID)
	dst = binary.LittleEndian.AppendUint64(dst, b.Seq)
	dst = binary.AppendUvarint(dst, uint64(entries))
	dst = append(dst, e.vals...)
	dst = binary.AppendUvarint(dst, uint64(len(b.Tuples)))
	dst = append(dst, e.rows...)
	return dst, true, nil
}

// readDict reads the dictionary section of a dictionary batch: an entry count,
// then that many value encodings. An entry takes at least its tag byte, so a
// count beyond the bytes left is refused before it sizes an allocation. It
// returns the entries, never nil, and the bytes consumed.
func readDict(src []byte) ([]types.Value, int, error) {
	entries, off := binary.Uvarint(src)
	if off <= 0 || entries > 1<<24 || entries > uint64(len(src)-off) {
		return nil, 0, fmt.Errorf("bad dictionary size")
	}
	dict := make([]types.Value, entries)
	for i := range dict {
		v, used, err := types.DecodeValue(src[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("entry %d: %w", i, err)
		}
		dict[i] = v
		off += used
	}
	return dict, off, nil
}

// badIndex describes a dictionary batch cell whose uvarint index (c bytes,
// as binary.Uvarint reports it) is malformed or names no entry.
func badIndex(idx uint64, c, entries int) error {
	if c <= 0 {
		return fmt.Errorf("bad index")
	}
	return fmt.Errorf("index %d outside dictionary of %d", idx, entries)
}
