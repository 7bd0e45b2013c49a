package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"csq/internal/types"
)

// reader decodes the body of a control message front to back. Every read is
// checked against the bytes left; the first failure is kept and every read
// after it returns its zero value, so a decoder reads its whole layout and
// looks at the error once. An optional trailer is read when more() says bytes
// remain; end() refuses trailing bytes. The hot decoders (tuple, dictionary,
// result-vector and column batches) keep their inline loops instead.
type reader struct {
	msg string // the message's name, for errors
	src []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: %s: %s at byte %d", r.msg, fmt.Sprintf(format, args...), r.off)
	}
}

// left returns the bytes not yet read, or 0 after a failure.
func (r *reader) left() int {
	if r.err != nil {
		return 0
	}
	return len(r.src) - r.off
}

// more reports whether an optional trailer follows.
func (r *reader) more() bool { return r.left() > 0 }

// end fails on any byte left unread and returns the first error.
func (r *reader) end() error {
	if r.more() {
		r.fail("%d trailing bytes", r.left())
	}
	return r.err
}

// take returns the next n bytes, aliasing the input, or n zero bytes once
// reading has failed.
func (r *reader) take(n int) []byte {
	if n > r.left() {
		r.fail("truncated")
		return make([]byte, n)
	}
	b := r.src[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() byte    { return r.take(1)[0] }
func (r *reader) u32() uint32 { return binary.LittleEndian.Uint32(r.take(4)) }
func (r *reader) u64() uint64 { return binary.LittleEndian.Uint64(r.take(8)) }

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, c := binary.Uvarint(r.src[r.off:])
	if c <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.off += c
	return v
}

// count reads the length of a list whose entries take at least a byte each,
// so a count above limit or above the bytes left is refused before it sizes
// anything.
func (r *reader) count(limit int) int {
	n := r.uvarint()
	if n > uint64(min(limit, r.left())) {
		r.fail("count %d too large", n)
		return 0
	}
	return int(n)
}

// str reads a length-prefixed string.
func (r *reader) str() string { return string(r.take(r.count(math.MaxInt))) }

// bytes reads a length-prefixed byte string into a fresh slice, nil when
// empty.
func (r *reader) bytes() []byte {
	if b := r.take(r.count(math.MaxInt)); len(b) > 0 {
		return append([]byte(nil), b...)
	}
	return nil
}

// ints reads a counted list of uvarints; an empty list is empty, not nil.
func (r *reader) ints() []int {
	n := r.count(1 << 16)
	out := make([]int, 0, n)
	for ; n > 0; n-- {
		out = append(out, int(r.uvarint()))
	}
	return out
}

// udfs reads a setup's UDF list: a count of at most 256, then
// each UDF's name and argument ordinals.
func (r *reader) udfs() []UDFSpec {
	var out []UDFSpec
	for n := r.count(256); n > 0; n-- {
		out = append(out, UDFSpec{Name: r.str(), ArgOrdinals: r.ints()})
	}
	return out
}

func (r *reader) schema() *types.Schema {
	if r.err != nil {
		return nil
	}
	s, n, err := types.DecodeSchema(r.src[r.off:])
	if err != nil {
		r.fail("%v", err)
		return nil
	}
	r.off += n
	return s
}

// decoded returns v, or nil and err when decoding failed.
func decoded[T any](v *T, err error) (*T, error) {
	if err != nil {
		return nil, err
	}
	return v, nil
}
