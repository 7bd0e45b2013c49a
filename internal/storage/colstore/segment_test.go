package colstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"csq/internal/types"
	"csq/internal/wire"
)

// encodeChunk encodes vals as a column chunk: in the plain codec, or with
// the auto choice encodeSegment makes, which takes the dictionary codec only
// where it is the smaller encoding.
func encodeChunk(t testing.TB, vals []types.Value, auto bool) []byte {
	t.Helper()
	b := &wire.TupleBatch{Tuples: make([]types.Tuple, len(vals))}
	for i := range vals {
		b.Tuples[i] = vals[i : i+1 : i+1]
	}
	return encodeBatch(t, b, auto)
}

// encodeBatch encodes b behind its codec's tag byte, plain or auto.
func encodeBatch(t testing.TB, b *wire.TupleBatch, auto bool) []byte {
	t.Helper()
	if !auto {
		chunk, err := wire.AppendTupleBatch([]byte{codecPlain}, b)
		if err != nil {
			t.Fatal(err)
		}
		return chunk
	}
	chunk, usedDict, err := wire.AppendTupleBatchAuto([]byte{codecPlain}, b)
	if err != nil {
		t.Fatal(err)
	}
	if usedDict {
		chunk[0] = codecDict
	}
	return chunk
}

// scatterChunk is the read path decodeColumnChunk replaced: decode the chunk
// as a batch of one-value tuples, then copy each value into its row's slot.
// The dictionary codec has no row decoder, so a dictionary chunk is decoded
// densely, at stride 1, and scattered from there.
func scatterChunk(raw []byte, dst []types.Value, stride, rows int) error {
	if len(raw) < 1 {
		return fmt.Errorf("empty chunk")
	}
	var b wire.TupleBatch
	var err error
	switch raw[0] {
	case codecPlain:
		err = wire.DecodeTupleBatchInto(&b, raw[1:])
	case codecDict:
		dense := make([]types.Value, rows)
		err = wire.DecodeColumnInto(dense, 1, rows, raw[1:], true)
		for i := range dense {
			b.Tuples = append(b.Tuples, dense[i:i+1])
		}
	default:
		return fmt.Errorf("unknown codec %d", raw[0])
	}
	if err != nil {
		return err
	}
	if len(b.Tuples) != rows {
		return fmt.Errorf("%d rows, want %d", len(b.Tuples), rows)
	}
	for r, tup := range b.Tuples {
		if len(tup) != 1 {
			return fmt.Errorf("row %d has %d values", r, len(tup))
		}
		dst[r*stride] = tup[0]
	}
	return nil
}

// sentinelArena returns an arena of n slots, each holding a negative FLOAT
// that names its slot and that no generated column holds, so a decode that
// writes outside its column shows.
func sentinelArena(n int) []types.Value {
	arena := make([]types.Value, n)
	for i := range arena {
		arena[i] = types.NewFloat(-0.5 - float64(i))
	}
	return arena
}

// requireSameValues compares two arenas slot by slot through the value
// encoding, which tells apart NULL kinds and INT from FLOAT.
func requireSameValues(t testing.TB, want, got []types.Value) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%d slots, want %d", len(got), len(want))
	}
	for i := range want {
		w, err := types.EncodeValue(nil, want[i])
		if err != nil {
			t.Fatal(err)
		}
		g, err := types.EncodeValue(nil, got[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w, g) {
			t.Fatalf("slot %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// randomColumnValue draws a value of the given kind: NULL about one time in
// five, and the variable-width kinds sometimes empty or nil.
func randomColumnValue(rng *rand.Rand, kind types.Kind, distinct int) types.Value {
	if rng.Intn(5) == 0 {
		return types.Null(kind)
	}
	x := rng.Intn(distinct)
	switch kind {
	case types.KindInt:
		return types.NewInt(int64(x) - 3)
	case types.KindFloat:
		return types.NewFloat(float64(x) / 3)
	case types.KindBool:
		return types.NewBool(x%2 == 0)
	case types.KindString:
		return types.NewString(fmt.Sprintf("%.*s", x%4, "sym"))
	case types.KindBytes:
		if x == 0 {
			return types.NewBytes(nil)
		}
		return types.NewBytes(bytes.Repeat([]byte{byte(x)}, x%3))
	default:
		if x == 0 {
			return types.NewTimeSeries(nil)
		}
		return types.NewTimeSeries(types.TimeSeries{float64(x), float64(x % 3)})
	}
}

// TestDecodeColumnChunkMatchesScatter holds the strided decode to the path it
// replaced: for random columns of every kind, in the plain codec and as the
// auto choice encodes them, it writes the same values into the column's slots
// and leaves every other slot alone. The dictionary decoder on columns the
// auto choice keeps plain is held to the encoded values in package wire.
func TestDecodeColumnChunkMatchesScatter(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	kinds := []types.Kind{types.KindInt, types.KindFloat, types.KindBool, types.KindString, types.KindBytes, types.KindTimeSeries}
	dictChunks := 0
	for round := 0; round < 300; round++ {
		kind := kinds[round%len(kinds)]
		rows, width := rng.Intn(70), 1+rng.Intn(5)
		col := rng.Intn(width)
		vals := make([]types.Value, rows)
		for i := range vals {
			vals[i] = randomColumnValue(rng, kind, 1+rng.Intn(8))
		}
		for _, auto := range []bool{false, true} {
			chunk := encodeChunk(t, vals, auto)
			if chunk[0] == codecDict {
				dictChunks++
			}
			want, got := sentinelArena(rows*width), sentinelArena(rows*width)
			if err := scatterChunk(chunk, want[min(col, len(want)):], width, rows); err != nil {
				t.Fatalf("round %d codec %d: scatter: %v", round, chunk[0], err)
			}
			if err := decodeColumnChunk(chunk, got[min(col, len(got)):], width, rows); err != nil {
				t.Fatalf("round %d codec %d: %v", round, chunk[0], err)
			}
			requireSameValues(t, want, got)
			for r, v := range vals {
				requireSameValues(t, []types.Value{v}, got[r*width+col:r*width+col+1])
			}
		}
	}
	if dictChunks == 0 {
		t.Error("the auto choice took the dictionary codec for none of 300 columns")
	}
}

// TestDecodeColumnChunkMalformed feeds damaged chunks to the decoder: each
// must be refused with an error.
func TestDecodeColumnChunkMalformed(t *testing.T) {
	// Long repeated strings, so that the dictionary encoding is the smaller.
	a, b := types.NewString(strings.Repeat("a", 32)), types.NewString(strings.Repeat("b", 32))
	vals := []types.Value{a, b, a, types.Null(types.KindString)}
	plain, dict := encodeChunk(t, vals, false), encodeChunk(t, vals, true)
	twoValue := &wire.TupleBatch{Tuples: []types.Tuple{vals[:1], vals[:2], vals[:1], vals[:1]}}
	twoPlain, twoDict := encodeBatch(t, twoValue, false), encodeBatch(t, twoValue, true)
	if dict[0] != codecDict || twoDict[0] != codecDict {
		t.Fatal("the auto choice keeps the malformed-chunk seeds plain")
	}
	badIndex := append([]byte(nil), dict...)
	badIndex[len(badIndex)-1] = 0x7f
	cases := []struct {
		name  string
		chunk []byte
		rows  int
	}{
		{"empty chunk", nil, 4},
		{"unknown codec", append([]byte{7}, plain[1:]...), 4},
		{"plain fewer rows than the segment", plain, 5},
		{"plain more rows than the segment", plain, 3},
		{"dict wrong row count", dict, 3},
		{"plain two-value row", twoPlain, 4},
		{"dict two-value row", twoDict, 4},
		{"index outside the dictionary", badIndex, 4},
		{"plain trailing bytes", append(append([]byte(nil), plain...), 0), 4},
		{"dict trailing bytes", append(append([]byte(nil), dict...), 0), 4},
	}
	for _, chunk := range [][]byte{plain, dict} {
		for cut := 0; cut < len(chunk); cut++ {
			cases = append(cases, struct {
				name  string
				chunk []byte
				rows  int
			}{fmt.Sprintf("codec %d truncated at %d", chunk[0], cut), chunk[:cut], 4})
		}
	}
	for _, c := range cases {
		if err := decodeColumnChunk(c.chunk, make([]types.Value, 2*c.rows), 2, c.rows); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// FuzzDecodeColumnChunk feeds arbitrary chunks to the column decoder, as a
// damaged segments file would, for a segment of rows rows stored at a stride
// of 1–4 values. It must never panic, never allocate more than a fixed
// multiple of the chunk, agree with the decode-then-scatter path, and decode
// what it accepts to values that encode again unchanged. Seeds live in
// testdata/fuzz/FuzzDecodeColumnChunk.
func FuzzDecodeColumnChunk(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, rows uint16, stride uint8) {
		n, s := int(rows%1024), int(stride%4)+1
		got, want := sentinelArena(n*s), sentinelArena(n*s)
		var err error
		// An entry or a row takes at least one chunk byte and yields at most
		// one Value; payloads are no longer than their encodings.
		if a := bytesAllocatedBy(func() { err = decodeColumnChunk(raw, got, s, n) }); a > uint64(64*len(raw)+64<<10) {
			t.Fatalf("a %d-byte chunk made the decoder allocate %d bytes", len(raw), a)
		}
		werr := scatterChunk(raw, want, s, n)
		if (err == nil) != (werr == nil) {
			t.Fatalf("strided decode error %v, scatter error %v", err, werr)
		}
		if err != nil {
			return
		}
		requireSameValues(t, want, got)
		for r := 0; r < n; r++ {
			v := got[r*s]
			enc, err := types.EncodeValue(nil, v)
			if err != nil {
				t.Fatalf("row %d decoded to a value that does not encode: %v", r, err)
			}
			again, _, err := types.DecodeValue(enc)
			if err != nil {
				t.Fatalf("row %d: re-decode: %v", r, err)
			}
			requireSameValues(t, []types.Value{v}, []types.Value{again})
		}
	})
}

func bytesAllocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
