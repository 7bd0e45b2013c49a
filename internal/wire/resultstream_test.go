package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net"
	"strings"
	"testing"

	"csq/internal/types"
)

// streamFixture is a result split into frames: what one query's stream
// carries.
type streamFixture [][]types.Tuple

func (fx streamFixture) rows() []types.Tuple {
	var all []types.Tuple
	for _, f := range fx {
		all = append(all, f...)
	}
	return all
}

// encodeStream runs fx through one encoder, each frame into a fresh buffer.
func encodeStream(t testing.TB, stream bool, fx streamFixture) []ResultFrame {
	t.Helper()
	enc := NewResultEncoder(stream)
	frames := make([]ResultFrame, 0, len(fx))
	for i, rows := range fx {
		f, err := enc.AppendFrame(nil, rows)
		if err != nil {
			t.Fatalf("frame %d: encode: %v", i, err)
		}
		frames = append(frames, f)
	}
	return frames
}

func decodeStream(t testing.TB, frames []ResultFrame) []types.Tuple {
	t.Helper()
	var dec ResultDecoder
	var all []types.Tuple
	for i, f := range frames {
		rows, err := dec.DecodeFrame(f)
		if err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		all = append(all, rows...)
	}
	return all
}

func streamBytes(frames []ResultFrame) int {
	n := 0
	for _, f := range frames {
		n += len(f.Body)
	}
	return n
}

func requireRowsEqual(t testing.TB, want, got []types.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if !sameTuple(want[i], got[i]) {
			t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// randomColumn returns a generator of one column's values: a fixed kind (or
// any kind), drawn fresh or from a pool of the given size, with some NULLs.
func randomColumn(rng *rand.Rand) func() types.Value {
	kind := rng.Intn(8)
	draw := func() types.Value {
		k := kind
		if k >= 6 {
			k = rng.Intn(6)
		}
		switch k {
		case 0:
			return types.NewInt(rng.Int63() - rng.Int63())
		case 1:
			return types.NewFloat(rng.NormFloat64())
		case 2:
			return types.NewBool(rng.Intn(2) == 0)
		case 3:
			return types.NewString(strings.Repeat("s", rng.Intn(40)) + string(rune('a'+rng.Intn(26))))
		case 4:
			b := make([]byte, rng.Intn(80))
			rng.Read(b)
			return types.NewBytes(b)
		default:
			ts := make(types.TimeSeries, rng.Intn(6))
			for i := range ts {
				ts[i] = rng.Float64()
			}
			return types.NewTimeSeries(ts)
		}
	}
	nulls := rng.Intn(3) == 0
	var pool []types.Value
	if n := []int{0, 1, 3, 40, 700}[rng.Intn(5)]; n > 0 {
		for i := 0; i < n; i++ {
			pool = append(pool, draw())
		}
	}
	return func() types.Value {
		if nulls && rng.Intn(5) == 0 {
			return types.Null(types.Kind(1 + rng.Intn(6)))
		}
		if pool != nil {
			return pool[rng.Intn(len(pool))]
		}
		return draw()
	}
}

// typedNulls makes gen's NULLs take the kind of its first non-NULL value,
// as a column of a schema would; a NULL drawn before that is an INT.
func typedNulls(gen func() types.Value) func() types.Value {
	kind := types.KindInt
	seen := false
	return func() types.Value {
		v := gen()
		if v.IsNull() {
			return types.Null(kind)
		}
		if !seen {
			kind, seen = v.Kind(), true
		}
		return v
	}
}

// randomStream draws a schema and a result over it, split into frames of
// random sizes that include empty and single-row ones. Most columns have
// NULLs of their own kind; the rest, and the columns of any kind, go plain.
func randomStream(rng *rand.Rand) streamFixture {
	cols := make([]func() types.Value, rng.Intn(6))
	for c := range cols {
		cols[c] = randomColumn(rng)
		if rng.Intn(4) > 0 {
			cols[c] = typedNulls(cols[c])
		}
	}
	var fx streamFixture
	for f, frames := 0, 1+rng.Intn(12); f < frames; f++ {
		n := []int{0, 1, 2, 64, 64, 64, 200}[rng.Intn(7)]
		rows := make([]types.Tuple, n)
		for r := range rows {
			rows[r] = make(types.Tuple, len(cols))
			for c, gen := range cols {
				rows[r][c] = gen()
			}
		}
		fx = append(fx, rows)
	}
	return fx
}

// vectorShaped reports whether every column of rows holds one kind, NULLs
// included, with no NULL at all: such a frame must go out as vectors.
func vectorShaped(rows []types.Tuple) bool {
	for _, r := range rows {
		for c, v := range r {
			if v.IsNull() || v.Kind() != rows[0][c].Kind() {
				return false
			}
		}
	}
	return true
}

// TestResultStreamRoundTripProperty is the codec's contract on random
// results: the stream decodes to the rows that went in, the same rows in the
// same frames give the same bytes, the plain twin is AppendTupleBatch's, a
// vector frame never has fewer bytes than cells, and the stream costs no more
// than plain plus one byte per INT cell (a delta past 2⁶³ takes ten), a
// vector head and bitmap per column and frame, and one byte per cell of each
// column's last probe window.
func TestResultStreamRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	vectors, plains := 0, 0
	for round := 0; round < 300; round++ {
		fx := randomStream(rng)
		frames := encodeStream(t, true, fx)
		requireRowsEqual(t, fx.rows(), decodeStream(t, frames))

		again := encodeStream(t, true, fx)
		for i := range frames {
			if frames[i].Type != again[i].Type || !bytes.Equal(frames[i].Body, again[i].Body) {
				t.Fatalf("round %d: frame %d differs between two encodings of the same stream", round, i)
			}
		}

		plain := encodeStream(t, false, fx)
		requireRowsEqual(t, fx.rows(), decodeStream(t, plain))
		maxFrame, width, allowance := 0, 0, 0
		for i, rows := range fx {
			want, err := AppendTupleBatch(nil, &TupleBatch{SessionID: 9, Tuples: rows})
			if err != nil {
				t.Fatal(err)
			}
			if plain[i].Type != MsgResultBatch || !bytes.Equal(plain[i].Body, want[8:]) {
				t.Fatalf("round %d: plain frame %d is not AppendTupleBatch's encoding", round, i)
			}
			if len(rows) > 0 {
				maxFrame, width = max(maxFrame, len(rows)), len(rows[0])
			}
			switch frames[i].Type {
			case MsgResultVectors:
				vectors++
				if cells := len(rows) * width; len(frames[i].Body) < cells {
					t.Fatalf("round %d: vector frame %d has %d cells in %d bytes", round, i, cells, len(frames[i].Body))
				}
			case MsgResultBatch:
				plains++
				if len(rows) == 0 || (width > 0 && vectorShaped(rows)) {
					t.Fatalf("round %d: frame %d (%d rows × %d columns) went plain", round, i, len(rows), width)
				}
			}
			allowance += width * (2 + (len(rows)+7)/8)
			for _, r := range rows {
				for _, v := range r {
					if v.Kind() == types.KindInt {
						allowance++
					}
				}
			}
		}
		// A window closes at the first frame boundary past the probe length.
		allowance += width * (ResultStreamProbeCells + maxFrame)
		if got, bound := streamBytes(frames), streamBytes(plain)+allowance; got > bound {
			t.Fatalf("round %d: stream is %d B, plain %d B + allowance %d B", round, got, streamBytes(plain), allowance)
		}
	}
	if vectors < 300 || plains < 100 {
		t.Fatalf("%d vector and %d plain frames: the generator no longer reaches both", vectors, plains)
	}
}

// dupAnswer is the benchmark's semi-join answer: rows × (Id, T) where T takes
// `distinct` 64-byte values, in 64-row frames.
func dupAnswer(rows, distinct int) streamFixture {
	rng := rand.New(rand.NewSource(int64(distinct)))
	tags := make([]types.Value, distinct)
	for i := range tags {
		b := make([]byte, 64)
		rng.Read(b)
		tags[i] = types.NewBytes(b)
	}
	var fx streamFixture
	for off := 0; off < rows; off += 64 {
		frame := make([]types.Tuple, 0, 64)
		for i := off; i < min(off+64, rows); i++ {
			frame = append(frame, types.Tuple{types.NewInt(int64(i)), tags[rng.Intn(distinct)]})
		}
		fx = append(fx, frame)
	}
	return fx
}

// TestResultStreamShrinksSpreadDuplicates pins what the encoding is for:
// duplicates too far apart for a per-frame dictionary to see.
func TestResultStreamShrinksSpreadDuplicates(t *testing.T) {
	fx := dupAnswer(8000, 800)
	stream, plain := encodeStream(t, true, fx), encodeStream(t, false, fx)
	requireRowsEqual(t, fx.rows(), decodeStream(t, stream))
	if s, p := streamBytes(stream), streamBytes(plain); s*4 > p {
		t.Fatalf("stream encoding is %d B of a %d B plain answer, want under a quarter", s, p)
	}
	// A per-frame dictionary spends, in each frame, an encoding per distinct
	// value and at least a byte per cell.
	perFrame := 0
	for _, rows := range fx {
		seen := map[string]bool{}
		for _, row := range rows {
			for _, v := range row {
				enc, err := types.EncodeValue(nil, v)
				if err != nil {
					t.Fatal(err)
				}
				if !seen[string(enc)] {
					seen[string(enc)] = true
					perFrame += len(enc)
				}
				perFrame++
			}
		}
	}
	if s := streamBytes(stream); s*3 > perFrame {
		t.Fatalf("stream encoding is %d B, per-frame dictionaries %d B: the stream dictionary should be far ahead", s, perFrame)
	}
}

// TestResultStreamRawSwitch follows a column of unique values out of
// dictionary coding: from the frame that announces the switch its cells carry
// no code byte, and the encoder has let its dictionary go.
func TestResultStreamRawSwitch(t *testing.T) {
	enc := NewResultEncoder(true)
	var dec ResultDecoder
	row := func(i int) types.Tuple {
		return types.Tuple{types.NewInt(int64(i)), types.NewString("same")}
	}
	const frameRows = 64
	// Raw, the Id column is its head, a two-byte delta from 0 to the frame's
	// first Id, and one-byte deltas of 1; the constant column its head and
	// one-byte references.
	rawFrame := 3 + (2 + 2 + frameRows - 1) + (2 + frameRows)
	switched := -1
	for f := 0; f < 8; f++ {
		rows := make([]types.Tuple, frameRows)
		for r := range rows {
			rows[r] = row(f*frameRows + r)
		}
		frame, err := enc.AppendFrame(nil, rows)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.DecodeFrame(frame)
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		requireRowsEqual(t, rows, got)
		if enc.cols[0].raw && switched < 0 {
			switched = f
			if len(frame.Body) != rawFrame+1 {
				t.Fatalf("switching frame is %d B, want %d and the switched ordinal", len(frame.Body), rawFrame)
			}
		} else if switched >= 0 && len(frame.Body) != rawFrame {
			t.Fatalf("frame %d after the switch is %d B, want %d", f, len(frame.Body), rawFrame)
		}
	}
	if want := ResultStreamProbeCells / frameRows; switched != want {
		t.Fatalf("unique column turned raw at frame %d, want %d", switched, want)
	}
	if enc.cols[1].raw {
		t.Fatal("constant column turned raw")
	}
	if enc.cols[0].dict != nil || !dec.cols[0].raw || dec.cols[0].dict != nil {
		t.Fatal("raw column kept its dictionary")
	}
	if want := len("same") + 2 + resultStreamEntryOverhead; enc.charge != want || dec.charge != want {
		t.Fatalf("charge after the switch: encoder %d, decoder %d, want %d", enc.charge, dec.charge, want)
	}
}

// TestResultStreamDictionaryCap streams more distinct values than the cap
// holds: both sides stop retaining at the same constant, the answer still
// round-trips, and values retained before the cap keep being referenced.
func TestResultStreamDictionaryCap(t *testing.T) {
	const valueLen = 1000
	distinct := 2 * ResultStreamDictBytes / valueLen / 32 * 32 // whole frames
	vals := make([]types.Value, distinct)
	for i := range vals {
		b := make([]byte, valueLen)
		binary.LittleEndian.PutUint64(b, uint64(i))
		vals[i] = types.NewBytes(b)
	}
	enc := NewResultEncoder(true)
	var dec ResultDecoder
	// Every new value is followed by the first one: the references are what
	// keeps the column dictionary-coded once literals stop being retained.
	for off := 0; off < distinct; off += 32 {
		rows := make([]types.Tuple, 0, 64)
		for _, v := range vals[off : off+32] {
			rows = append(rows, types.Tuple{v}, types.Tuple{vals[0]})
		}
		frame, err := enc.AppendFrame(nil, rows)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.DecodeFrame(frame)
		if err != nil {
			t.Fatalf("rows from %d: %v", off, err)
		}
		requireRowsEqual(t, rows, got)
		if enc.charge > ResultStreamDictBytes || dec.charge != enc.charge {
			t.Fatalf("rows from %d: charge encoder %d, decoder %d, cap %d", off, enc.charge, dec.charge, ResultStreamDictBytes)
		}
	}
	if enc.cols[0].raw {
		t.Fatal("column with a reference per literal turned raw")
	}
	if n := len(dec.cols[0].dict); n == 0 || n >= distinct {
		t.Fatalf("decoder retains %d of %d values: the cap did not bite", n, distinct)
	}
	first, err := enc.AppendFrame(nil, []types.Tuple{{vals[0]}})
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Body) != 3+2+1 {
		t.Fatalf("value retained before the cap costs %d B after it, want a one-byte reference", len(first.Body)-3-2)
	}
}

// TestResultStreamFallsBackPlain feeds the encoder what a vector frame
// cannot express: the frame goes out plain, decodes, and disturbs neither
// side.
func TestResultStreamFallsBackPlain(t *testing.T) {
	a, b := types.NewString("a"), types.NewString("b")
	nullInt := types.Null(types.KindInt)
	allNull := make([]types.Tuple, 64)
	for r := range allNull {
		allNull[r] = types.Tuple{nullInt, types.Null(types.KindString)}
	}
	fx := streamFixture{
		{{a, b}, {a, b}},
		{{a}, {a, b, b}},               // ragged
		{{a, b, a}},                    // not the stream's width
		{{a, b}, {types.NewInt(1), b}}, // a column of two kinds
		{{a, b}, {nullInt, b}},         // a NULL of another kind
		allNull,                        // 20 bytes of vectors for 128 cells
		{{a, b}},
	}
	frames := encodeStream(t, true, fx)
	for i, want := range []MsgType{MsgResultVectors, MsgResultBatch, MsgResultBatch, MsgResultBatch, MsgResultBatch, MsgResultBatch, MsgResultVectors} {
		if frames[i].Type != want {
			t.Fatalf("frame %d is %s, want %s", i, frames[i].Type, want)
		}
	}
	requireRowsEqual(t, fx.rows(), decodeStream(t, frames))
	str := byte(types.KindString)
	if want := []byte{2, 1, 0, str, 0, streamFirstRef, str, 0, streamFirstRef}; !bytes.Equal(frames[6].Body, want) {
		t.Fatalf("frame after the plain ones = %v, want references %v into the untouched dictionary", frames[6].Body, want)
	}
}

// hotAnswer is the hot_rw answer's shape: rows × (K, K%97, K*0.5).
func hotAnswer(rows int) streamFixture {
	var fx streamFixture
	for off := 0; off < rows; off += 64 {
		frame := make([]types.Tuple, 0, 64)
		for k := off; k < min(off+64, rows); k++ {
			frame = append(frame, types.Tuple{types.NewInt(int64(k)), types.NewInt(int64(k % 97)), types.NewFloat(float64(k) * 0.5)})
		}
		fx = append(fx, frame)
	}
	return fx
}

// wireBytes is what frames cost on a connection: each frame's 5-byte header
// and 8-byte query ID besides its body.
func wireBytes(frames []ResultFrame) int { return streamBytes(frames) + len(frames)*(5+8) }

// TestResultVectorBytes pins the encoding's size on the two answers it was
// built for, in 64-row frames, against what the row-major stream-dictionary
// encoding it replaced sent for the same frames.
func TestResultVectorBytes(t *testing.T) {
	for _, tc := range []struct {
		name           string
		fx             streamFixture
		want, rowMajor int
	}{
		// udf_semijoin_lan: Id and a 64-byte T with 800 distinct values.
		{"semijoin", dupAnswer(8000, 800), 76860, 141036},
		// hot_rw: K, K%97, K*0.5.
		{"hot", hotAnswer(4000), 42120, 78395},
	} {
		frames := encodeStream(t, true, tc.fx)
		requireRowsEqual(t, tc.fx.rows(), decodeStream(t, frames))
		got := wireBytes(frames)
		t.Logf("%s: %d B, row-major %d B (%.1f%%)", tc.name, got, tc.rowMajor, 100*float64(got)/float64(tc.rowMajor))
		if got != tc.want {
			t.Errorf("%s: %d B on the wire, want %d", tc.name, got, tc.want)
		}
		if got*100 > tc.rowMajor*56 {
			t.Errorf("%s: %d B is more than 56%% of the row-major encoding's %d B", tc.name, got, tc.rowMajor)
		}
	}
}

// TestResultVectorEdgeCases round-trips the cells a column vector codes
// specially — an INT delta that wraps, NULLs of every kind, −0 and NaN bits —
// and a raw switch in the middle of a stream, in one stream.
func TestResultVectorEdgeCases(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	kinds := []types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindBool, types.KindBytes, types.KindTimeSeries}
	sample := []types.Value{types.NewInt(3), types.NewFloat(1.5), types.NewString("s"), types.NewBool(true),
		types.NewBytes([]byte{1, 2}), types.NewTimeSeries(types.TimeSeries{1, 2})}
	// Wrapping deltas, both ways, beside −0 and two NaNs.
	wrap := streamFixture{{
		{types.NewInt(math.MaxInt64), types.NewFloat(math.Copysign(0, -1))},
		{types.NewInt(math.MinInt64), types.NewFloat(0)},
		{types.NewInt(math.MaxInt64), types.NewFloat(nan)},
		{types.NewInt(math.MinInt64), types.NewFloat(math.NaN())},
	}}
	// Every kind with a NULL in it, beside enough values to pay for the bitmap.
	row := make(types.Tuple, 0, 2*len(kinds))
	nullRow := make(types.Tuple, 0, 2*len(kinds))
	for i, k := range kinds {
		row = append(row, sample[i], types.NewInt(int64(i)))
		nullRow = append(nullRow, types.Null(k), types.NewInt(int64(i)))
	}
	for _, fx := range []streamFixture{wrap, {{row, nullRow, row}}} {
		frames := encodeStream(t, true, fx)
		if frames[0].Type != MsgResultVectors {
			t.Fatalf("%v went %s", fx[0][0], frames[0].Type)
		}
		requireRowsEqual(t, fx.rows(), decodeStream(t, frames))
	}

	// A raw switch mid-stream: a unique column leaves dictionary coding after
	// its probe window, a repeating one stays, and every frame decodes.
	enc := NewResultEncoder(true)
	var dec ResultDecoder
	for f := 0; f < 12; f++ {
		rows := make([]types.Tuple, 40)
		for r := range rows {
			i := f*len(rows) + r
			rows[r] = types.Tuple{types.NewString(fmt.Sprint(i * 7919)), types.NewString([]string{"red", "green", "blue"}[i%3]), types.NewInt(int64(-i))}
		}
		frame, err := enc.AppendFrame(nil, rows)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.DecodeFrame(frame)
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		requireRowsEqual(t, rows, got)
	}
	if !enc.cols[0].raw || !dec.cols[0].raw || enc.cols[1].raw || dec.cols[1].raw {
		t.Fatalf("raw columns: encoder %v %v, decoder %v %v; want the unique one only", enc.cols[0].raw, enc.cols[1].raw, dec.cols[0].raw, dec.cols[1].raw)
	}
}

// TestResultStreamDecodeRejects walks the decoder's limits: every malformed
// frame is an error, never a panic or a silent short answer.
func TestResultStreamDecodeRejects(t *testing.T) {
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	uv := func(x uint64) []byte { return binary.AppendUvarint(nil, x) }
	intVec := []byte{byte(types.KindInt), 0}
	strVec := []byte{byte(types.KindString), 0}
	one := []byte{2} // the INT 1, a zigzag delta from 0
	// primed has decoded one frame: column 0 holds one entry, column 1 is raw.
	primed := func() *ResultDecoder {
		d := &ResultDecoder{}
		if _, err := d.DecodeFrame(ResultFrame{MsgResultVectors, cat([]byte{2, 1, 1, 1}, intVec, []byte{streamLiteralRetained}, one, intVec, one)}); err != nil {
			t.Fatal(err)
		}
		return d
	}
	cases := []struct {
		name string
		dec  *ResultDecoder
		body []byte
	}{
		{"empty body", &ResultDecoder{}, nil},
		{"truncated header", &ResultDecoder{}, []byte{1}},
		{"non-empty frame claiming no rows", &ResultDecoder{}, []byte{1, 0, 0}},
		{"trailing bytes after an empty frame", &ResultDecoder{}, []byte{0, 0, 0, 0}},
		{"row count over the limit", &ResultDecoder{}, cat([]byte{1}, uv(maxResultStreamRows+1), []byte{0})},
		{"column count over the limit", &ResultDecoder{}, cat(uv(maxResultStreamColumns+1), []byte{1, 0})},
		{"rows without columns", &ResultDecoder{}, []byte{0, 5, 0}},
		{"more cells than bytes", &ResultDecoder{}, cat([]byte{4}, uv(1000), []byte{0}, intVec)},
		{"width differs from the stream's", primed(), cat([]byte{1, 1, 0}, intVec, []byte{streamLiteral}, one)},
		{"more raw switches than columns", primed(), []byte{2, 1, 3}},
		{"raw switch of a missing column", primed(), []byte{2, 1, 1, 2}},
		{"raw switch of a raw column", primed(), []byte{2, 1, 1, 1}},
		{"raw switches out of order", &ResultDecoder{}, cat([]byte{2, 1, 2, 1, 0}, intVec, one, intVec, one)},
		{"reference past the dictionary", primed(), cat([]byte{2, 1, 0}, intVec, []byte{streamFirstRef + 1}, intVec, one)},
		{"reference into an empty dictionary", &ResultDecoder{}, cat([]byte{1, 1, 0}, intVec, []byte{streamFirstRef})},
		{"reference to an entry of another kind", primed(), cat([]byte{2, 1, 0}, strVec, []byte{streamFirstRef}, intVec, one)},
		{"truncated literal", primed(), cat([]byte{2, 1, 0}, strVec, []byte{streamLiteral, 5, 'a', 'b'})},
		{"unterminated INT delta", primed(), cat([]byte{2, 1, 0}, intVec, []byte{streamLiteral, 0x80, 0x80})},
		{"unknown vector kind", primed(), cat([]byte{2, 1, 0}, []byte{0x7f, 0}, []byte{streamLiteral}, one, intVec, one)},
		{"unknown vector flags", primed(), cat([]byte{2, 1, 0}, []byte{byte(types.KindInt), 2}, []byte{streamLiteral}, one, intVec, one)},
		{"short null bitmap", &ResultDecoder{}, cat([]byte{1, 1, 0}, []byte{byte(types.KindInt), 1})},
		{"payload in a vector of NULLs", &ResultDecoder{}, cat([]byte{1, 1, 0}, []byte{byte(types.KindNull), 0}, []byte{streamLiteral, 0})},
		{"missing column", primed(), cat([]byte{2, 1, 0}, intVec, []byte{streamFirstRef})},
		{"missing cell", primed(), cat([]byte{2, 2, 0}, intVec, []byte{streamFirstRef, streamFirstRef}, intVec, one)},
		{"trailing bytes", primed(), cat([]byte{2, 1, 0}, intVec, []byte{streamFirstRef}, intVec, one, []byte{0})},
	}
	for _, tc := range cases {
		if rows, err := tc.dec.DecodeFrame(ResultFrame{MsgResultVectors, tc.body}); err == nil {
			t.Errorf("%s: decoded %d rows, want an error", tc.name, len(rows))
		}
	}
	if _, err := (&ResultDecoder{}).DecodeFrame(ResultFrame{MsgEnd, make([]byte, 16)}); err == nil {
		t.Error("a MsgEnd payload decoded as a result frame")
	}
	if _, err := (&ResultDecoder{}).DecodeFrame(ResultFrame{19, []byte{0, 0, 0}}); err == nil {
		t.Error("a frame of the retired row-major stream code decoded")
	}
	if _, err := (&ResultDecoder{}).DecodeFrame(ResultFrame{MsgResultBatch, []byte{0, 0, 0}}); err == nil {
		t.Error("a plain frame shorter than its sequence number decoded")
	}

	// A frame that retains past the cap is refused even though each literal
	// is well-formed.
	big := cat([]byte{byte(types.KindBytes), 0, streamLiteralRetained}, uv(ResultStreamDictBytes/2), make([]byte, ResultStreamDictBytes/2))
	d := &ResultDecoder{}
	if _, err := d.DecodeFrame(ResultFrame{MsgResultVectors, cat([]byte{1, 1, 0}, big)}); err != nil {
		t.Fatalf("first half-cap entry: %v", err)
	}
	if _, err := d.DecodeFrame(ResultFrame{MsgResultVectors, cat([]byte{1, 1, 0}, big)}); err == nil {
		t.Fatal("decoder retained past ResultStreamDictBytes")
	}
}

// TestSendResultFrames checks the multi-frame send: each frame arrives under
// the given ID as an ordinary frame, and the byte counter matches.
func TestSendResultFrames(t *testing.T) {
	ca, cb := net.Pipe()
	a, b := NewConn(ca), NewConn(cb)
	defer a.Close()
	defer b.Close()
	fx := dupAnswer(200, 5)
	frames := encodeStream(t, true, fx)
	done := make(chan error, 1)
	go func() { done <- a.SendResultFrames(77, frames) }()
	var dec ResultDecoder
	var got []types.Tuple
	wantBytes := 0
	for i, f := range frames {
		msg, err := b.Receive()
		if err != nil {
			t.Fatal(err)
		}
		id, ok := StreamID(msg.Payload)
		if msg.Type != f.Type || !ok || id != 77 {
			t.Fatalf("frame %d arrived as %s under ID %d", i, msg.Type, id)
		}
		rows, err := dec.DecodeFrame(ResultFrame{msg.Type, msg.Payload[8:]})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rows...)
		wantBytes += 5 + len(msg.Payload)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	requireRowsEqual(t, fx.rows(), got)
	if a.BytesSent() != int64(wantBytes) {
		t.Fatalf("BytesSent = %d, want %d", a.BytesSent(), wantBytes)
	}
	if _, ok := StreamID([]byte{1, 2, 3}); ok {
		t.Fatal("StreamID read an ID out of three bytes")
	}
}

// TestCapabilityTable pins the table every capability user reads: distinct
// single bits, the retired ones (1 and 5) kept in the table and left out of
// AllCaps.
func TestCapabilityTable(t *testing.T) {
	seen := uint32(0)
	names := map[string]bool{}
	for _, c := range Capabilities {
		if c.Bit == 0 || c.Bit&(c.Bit-1) != 0 || seen&c.Bit != 0 || names[c.Name] || c.Name == "" {
			t.Fatalf("capability %+v is not one fresh, named bit", c)
		}
		seen |= c.Bit
		names[c.Name] = true
	}
	want := CapCancel | CapTextQuery | CapReject | CapPrepared | CapResultVectors
	if AllCaps() != want {
		t.Fatalf("AllCaps = %#x, want %#x", AllCaps(), want)
	}
	for _, bit := range []uint32{1 << 1, 1 << 5} {
		if AllCaps()&bit != 0 || seen&bit == 0 {
			t.Fatalf("retired bit %#x is offered, or left out of the table", bit)
		}
	}
	if CapResultVectors != 1<<6 {
		t.Fatalf("CapResultVectors is %#x, want bit 6", CapResultVectors)
	}
}

// DictBytes returns the charge of the dictionary entries the decoder holds,
// at most ResultStreamDictBytes.
func (d *ResultDecoder) DictBytes() int { return d.charge }
