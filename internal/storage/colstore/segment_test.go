package colstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"csq/internal/types"
)

// oneColumn wraps vals as one-column rows.
func oneColumn(vals []types.Value) []types.Tuple {
	rows := make([]types.Tuple, len(vals))
	for i := range vals {
		rows[i] = vals[i : i+1 : i+1]
	}
	return rows
}

// chunkOf encodes vals (at least one) as encodeSegment does, in the smaller
// form.
func chunkOf(t testing.TB, vals []types.Value) []byte {
	t.Helper()
	var e chunkEncoder
	chunk, err := e.appendChunk(nil, oneColumn(vals), 0)
	if err != nil {
		t.Fatal(err)
	}
	return chunk
}

// chunkForms returns vals encoded in each form the encoder may write for
// them: the dictionary form always, the vector form when the column is of
// one kind and spends a byte per row.
func chunkForms(t testing.TB, vals []types.Value) map[byte][]byte {
	t.Helper()
	var e chunkEncoder
	dict, err := e.dictionary(oneColumn(vals), 0, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	forms := map[byte][]byte{codecDict: bytes.Clone(dict)}
	if len(vals) == 0 {
		return forms
	}
	if n, ok := types.MinVectorSize(oneColumn(vals), 0); ok && n >= len(vals) {
		forms[codecVector] = types.AppendVector([]byte{codecVector}, oneColumn(vals), 0)
	}
	return forms
}

// referenceChunk is the reference read path: it decodes the chunk a value at
// a time, the vector form through the vector cursor and the dictionary form
// entry by entry, and checks the chunk's length as decodeColumnChunk does.
func referenceChunk(raw []byte, rows int) ([]types.Value, error) {
	if len(raw) < 1 || len(raw)-1 < rows {
		return nil, fmt.Errorf("short chunk")
	}
	src, out, off := raw[1:], make([]types.Value, rows), 0
	switch raw[0] {
	case codecVector:
		h, n, err := types.DecodeVectorHead(src, rows)
		if err != nil {
			return nil, err
		}
		var cur types.VectorCursor
		for r := range out {
			if h.Null(r) {
				out[r] = types.Null(h.Kind)
				continue
			}
			v, m, err := cur.Decode(src[n:], h.Kind)
			if err != nil {
				return nil, err
			}
			out[r], n = v, n+m
		}
		off = n
	case codecDict:
		entries, n := binary.Uvarint(src)
		if n <= 0 || entries > uint64(len(src)-n) {
			return nil, fmt.Errorf("bad dictionary size")
		}
		off = n
		dict := make([]types.Value, entries)
		for i := range dict {
			v, n, err := types.DecodeValue(src[off:])
			if err != nil {
				return nil, err
			}
			dict[i], off = v, off+n
		}
		for r := range out {
			code, n := binary.Uvarint(src[off:])
			if n <= 0 || code >= entries {
				return nil, fmt.Errorf("bad code")
			}
			out[r], off = dict[code], off+n
		}
	default:
		return nil, fmt.Errorf("unknown codec")
	}
	if off != len(src) {
		return nil, fmt.Errorf("trailing bytes")
	}
	return out, nil
}

// cells returns the cells of v.
func cells(v *types.Vec) []types.Value {
	out := make([]types.Value, v.Len())
	for i := range out {
		out[i] = v.Value(i)
	}
	return out
}

// dirtyVec returns a vector already holding n cells of a decode, as a
// reused destination does.
func dirtyVec(n int) *types.Vec {
	v := &types.Vec{}
	for i := 0; i < n; i++ {
		v.Append(types.NewFloat(-0.5 - float64(i)))
	}
	return v
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
// five, and the variable-width kinds sometimes empty or nil. With mixed, it
// also draws what validate lets into a column beside its own kind: INTs
// among FLOATs, and NULLs of another kind.
func randomColumnValue(rng *rand.Rand, kind types.Kind, distinct int, mixed bool) types.Value {
	if rng.Intn(5) == 0 {
		if mixed && rng.Intn(2) == 0 {
			return types.Null(types.KindInt)
		}
		return types.Null(kind)
	}
	x := rng.Intn(distinct)
	switch kind {
	case types.KindInt:
		return types.NewInt(int64(x) - 3)
	case types.KindFloat:
		if mixed && x%2 == 0 {
			return types.NewInt(int64(x))
		}
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

// TestDecodeColumnChunkMatchesReference holds the typed decode to the
// value-at-a-time one: for random columns of every kind, some of them mixing
// kinds, in every form the encoder may write them, it decodes the encoded
// values into a reused vector, typed when they are all of one typed kind.
// The encoder's choice is the smallest of those forms, and every chunk
// spends a byte per row.
func TestDecodeColumnChunkMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	kinds := []types.Kind{types.KindInt, types.KindFloat, types.KindBool, types.KindString, types.KindBytes, types.KindTimeSeries}
	chosen := map[byte]int{}
	for round := 0; round < 300; round++ {
		kind := kinds[round%len(kinds)]
		rows := rng.Intn(70)
		vals := make([]types.Value, rows)
		mixed := rng.Intn(3) == 0
		for i := range vals {
			vals[i] = randomColumnValue(rng, kind, 1+rng.Intn(8), mixed)
		}
		forms := chunkForms(t, vals)
		if rows > 0 {
			chunk := chunkOf(t, vals)
			chosen[chunk[0]]++
			for _, f := range forms {
				if len(f) < len(chunk) {
					t.Fatalf("round %d: the encoder kept a %d-byte chunk over a %d-byte one", round, len(chunk), len(f))
				}
			}
			if !bytes.Equal(chunk, forms[chunk[0]]) {
				t.Fatalf("round %d: the encoder's chunk is not its form %d", round, chunk[0])
			}
		}
		for form, chunk := range forms {
			if len(chunk) <= rows {
				t.Fatalf("round %d form %d: %d rows in %d bytes", round, form, rows, len(chunk))
			}
			want, err := referenceChunk(chunk, rows)
			if err != nil {
				t.Fatalf("round %d form %d: reference: %v", round, form, err)
			}
			got := dirtyVec(rng.Intn(5))
			if err := decodeColumnChunk(chunk, got, rows); err != nil {
				t.Fatalf("round %d form %d: %v", round, form, err)
			}
			requireSameValues(t, want, cells(got))
			requireSameValues(t, vals, cells(got))
			if isTyped := kind == types.KindInt || kind == types.KindFloat || kind == types.KindBool; isTyped && !mixed && rows > 0 && got.Kind != kind {
				t.Fatalf("round %d form %d: a %s column decoded to a vector of kind %s", round, form, kind, got.Kind)
			}
		}
	}
	if chosen[codecVector] == 0 || chosen[codecDict] == 0 {
		t.Errorf("the encoder chose the forms %v times over 300 columns, want both", chosen)
	}
}

// TestDecodeColumnChunkMalformed feeds damaged chunks to the decoder: each
// must be refused with an error.
func TestDecodeColumnChunkMalformed(t *testing.T) {
	// Long repeated strings, so that the dictionary form is the smaller.
	a, b := types.NewString(strings.Repeat("a", 32)), types.NewString(strings.Repeat("b", 32))
	vals := []types.Value{a, b, a, types.Null(types.KindString)}
	forms := chunkForms(t, vals)
	vector, dict := forms[codecVector], forms[codecDict]
	if chunk := chunkOf(t, vals); !bytes.Equal(chunk, dict) {
		t.Fatal("the encoder keeps the malformed-chunk seeds in vector form")
	}
	badCode := bytes.Clone(dict)
	badCode[len(badCode)-1] = 0x7f
	badKind := bytes.Clone(vector)
	badKind[1] = 0x7f
	badFlags := bytes.Clone(vector)
	badFlags[2] = 0x02
	cases := []struct {
		name  string
		chunk []byte
		rows  int
	}{
		{"empty chunk", nil, 4},
		{"unknown codec", append([]byte{7}, dict[1:]...), 4},
		{"vector fewer rows than the segment", vector, 5},
		{"vector more rows than the segment", vector, 3},
		{"dict fewer rows than the segment", dict, 5},
		{"dict more rows than the segment", dict, 3},
		{"more rows than chunk bytes", dict, len(dict)},
		{"code outside the dictionary", badCode, 4},
		{"entries beyond the bytes left", binary.AppendUvarint([]byte{codecDict}, 1<<24), 4},
		{"unknown vector kind", badKind, 4},
		{"unknown vector flags", badFlags, 4},
		{"vector trailing bytes", append(bytes.Clone(vector), 0), 4},
		{"dict trailing bytes", append(bytes.Clone(dict), 0), 4},
	}
	for _, chunk := range [][]byte{vector, dict} {
		for cut := 0; cut < len(chunk); cut++ {
			cases = append(cases, struct {
				name  string
				chunk []byte
				rows  int
			}{fmt.Sprintf("codec %d truncated at %d", chunk[0], cut), chunk[:cut], 4})
		}
	}
	for _, c := range cases {
		if err := decodeColumnChunk(c.chunk, &types.Vec{}, c.rows); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// FuzzDecodeColumnChunk feeds arbitrary chunks to the column decoder, as a
// damaged segments file would, for a segment of rows rows, into a vector
// that already holds the cells of 0–3 earlier rows. It must never panic,
// never allocate more than a fixed multiple of the chunk, agree with the
// value-at-a-time reference decode, and decode what it accepts to values
// that encode again unchanged. Seeds live in
// testdata/fuzz/FuzzDecodeColumnChunk; TestColumnChunkFuzzSeeds builds them.
func FuzzDecodeColumnChunk(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, rows uint16, dirt uint8) {
		n := int(rows % 1024)
		got := dirtyVec(int(dirt % 4))
		var err error
		// An entry takes at least one chunk byte and yields one Value;
		// payloads are no longer than their encodings.
		if a := bytesAllocatedBy(func() { err = decodeColumnChunk(raw, got, n) }); a > uint64(64*len(raw)+64<<10) {
			t.Fatalf("a %d-byte chunk made the decoder allocate %d bytes", len(raw), a)
		}
		want, werr := referenceChunk(raw, n)
		if (err == nil) != (werr == nil) {
			t.Fatalf("typed decode error %v, reference error %v", err, werr)
		}
		if err != nil {
			return
		}
		requireSameValues(t, want, cells(got))
		for r := 0; r < n; r++ {
			v := got.Value(r)
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

// columnChunkSeed is one FuzzDecodeColumnChunk input: a chunk, the rows of
// its segment and the fuzzer's dirt byte.
type columnChunkSeed struct {
	chunk []byte
	rows  uint16
	dirt  byte
}

// columnChunkSeeds builds the FuzzDecodeColumnChunk corpus from the
// encoder's two forms: "dict-<kind>" seeds hold the dictionary form of a
// column of one kind, "plain-<kind>" seeds its vector form (the values
// themselves, no dictionary), and the rest damage the dictionary chunk of a
// STRING column or ask it for the wrong number of rows.
func columnChunkSeeds(t testing.TB) map[string]columnChunkSeed {
	samples := map[string][2]types.Value{
		"bool":   {types.NewBool(true), types.NewBool(false)},
		"bytes":  {types.NewBytes([]byte{1, 2}), types.NewBytes(nil)},
		"float":  {types.NewFloat(2.5), types.NewFloat(math.NaN())},
		"int":    {types.NewInt(-7), types.NewInt(1 << 53)},
		"series": {types.NewTimeSeries(types.TimeSeries{1, 2.5}), types.NewTimeSeries(nil)},
		"string": {types.NewString("hello"), types.NewString("")},
	}
	kindOf := map[string]types.Kind{"bool": types.KindBool, "bytes": types.KindBytes, "float": types.KindFloat,
		"int": types.KindInt, "series": types.KindTimeSeries, "string": types.KindString}
	seeds := map[string]columnChunkSeed{}
	for name, s := range samples {
		vals := []types.Value{s[0], s[1], types.Null(kindOf[name]), s[0]}
		forms := chunkForms(t, vals)
		seeds["dict-"+name] = columnChunkSeed{forms[codecDict], 4, 1}
		seeds["plain-"+name] = columnChunkSeed{forms[codecVector], 4, 3}
	}
	nulls := []types.Value{types.Null(types.KindNull), types.Null(types.KindNull)}
	seeds["dict-null"] = columnChunkSeed{chunkForms(t, append(nulls, nulls...))[codecDict], 4, 1}
	seeds["plain-null"] = columnChunkSeed{chunkForms(t, nulls)[codecVector], 2, 3}
	seeds["dict-empty"] = columnChunkSeed{chunkForms(t, nil)[codecDict], 0, 2}
	// No column of no rows is written in vector form: this is the head of
	// one, a kind and no flags.
	seeds["plain-empty"] = columnChunkSeed{[]byte{codecVector, byte(types.KindInt), 0}, 0, 2}

	str := seeds["dict-string"].chunk
	damaged := func(chunk []byte, rows uint16) columnChunkSeed { return columnChunkSeed{chunk, rows, 2} }
	seeds["hostile-entries"] = damaged(binary.AppendUvarint([]byte{codecDict}, 1<<24), 4)
	seeds["hostile-rows"] = damaged(str, 1000)
	seeds["index-outside-dictionary"] = damaged(append(bytes.Clone(str[:len(str)-1]), 0x7f), 4)
	seeds["trailing-bytes"] = damaged(append(bytes.Clone(str), 0), 4)
	seeds["truncated"] = damaged(str[:len(str)-1], 4)
	seeds["unknown-codec"] = damaged(append([]byte{9}, str[1:]...), 4)
	seeds["wrong-row-count"] = damaged(str, 5)
	return seeds
}

// TestColumnChunkFuzzSeeds holds the committed FuzzDecodeColumnChunk seeds
// to what columnChunkSeeds builds from the encoder, and rewrites them when
// run with -regenerate:
// go test ./internal/storage/colstore -run TestColumnChunkFuzzSeeds -regenerate
// The "dict-" and "plain-" seeds must decode; every other seed must not.
func TestColumnChunkFuzzSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeColumnChunk")
	seeds := columnChunkSeeds(t)
	for name, s := range seeds {
		err := decodeColumnChunk(s.chunk, &types.Vec{}, int(s.rows))
		if valid := strings.HasPrefix(name, "dict-") || strings.HasPrefix(name, "plain-"); valid != (err == nil) {
			t.Errorf("seed %s decodes with error %v", name, err)
		}
	}
	if *regenerate {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, s := range seeds {
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\nuint16(%d)\nbyte(%q)\n", s.chunk, s.rows, s.dirt)
		path := filepath.Join(dir, name)
		if *regenerate {
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Errorf("seed %s is not what the encoder gives (%v); rerun with -regenerate", name, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(seeds) {
		t.Errorf("%s holds %d seeds, the builder makes %d", dir, len(entries), len(seeds))
	}
}

func bytesAllocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
