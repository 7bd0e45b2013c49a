package wire

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"csq/internal/types"
)

var regenerate = flag.Bool("regenerate", false, "rewrite the committed seeds under testdata/fuzz/FuzzDecodeResultStream")

// packStream is the fuzz input format: a stream's frames, each as a u16
// length, a type byte and that many body bytes, back to back.
func packStream(frames []ResultFrame) []byte {
	var out []byte
	for _, f := range frames {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(f.Body)))
		out = append(out, byte(f.Type))
		out = append(out, f.Body...)
	}
	return out
}

func unpackStream(data []byte) []ResultFrame {
	var frames []ResultFrame
	for len(data) >= 3 {
		n := int(binary.LittleEndian.Uint16(data))
		t := MsgType(data[2])
		data = data[3:]
		n = min(n, len(data))
		frames = append(frames, ResultFrame{Type: t, Body: data[:n]})
		data = data[n:]
	}
	return frames
}

// FuzzDecodeResultStream feeds arbitrary frame sequences to one decoder, as a
// requester would a peer's stream. The decoder must never panic, never hold
// more dictionary than the cap, never accept a vector frame of fewer bytes
// than cells, and whatever it accepts must survive a trip through the
// encoder. Seeds live in testdata/fuzz/FuzzDecodeResultStream;
// TestResultStreamFuzzSeeds writes them.
func FuzzDecodeResultStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var dec ResultDecoder
		var fx streamFixture
		for _, frame := range unpackStream(data) {
			rows, err := dec.DecodeFrame(frame)
			if err != nil {
				break // a requester stops at the first bad frame
			}
			if dec.charge < 0 || dec.charge > ResultStreamDictBytes {
				t.Fatalf("decoder holds a dictionary charge of %d", dec.charge)
			}
			if frame.Type == MsgResultVectors && len(rows) > 0 && len(rows)*len(rows[0]) > len(frame.Body) {
				t.Fatalf("accepted %d × %d cells in %d bytes", len(rows), len(rows[0]), len(frame.Body))
			}
			for _, row := range rows {
				for _, v := range row {
					if _, err := types.EncodeValue(nil, v); err != nil {
						t.Fatalf("decoded a value that does not encode: %v", err)
					}
				}
			}
			fx = append(fx, rows)
		}
		requireRowsEqual(t, fx.rows(), decodeStream(t, encodeStream(t, true, fx)))
	})
}

// resultStreamSeeds builds the fuzz seeds from encoder output: streams that
// cover every kind with NULLs, wrapping INT deltas, a raw switch and plain
// frames, and damaged copies that stop the decoder at each of its checks.
func resultStreamSeeds(t *testing.T) map[string][]byte {
	frames := func(stream bool, fx streamFixture) []ResultFrame { return encodeStream(t, stream, fx) }
	damaged := func(fs []ResultFrame, i int, edit func(b []byte) []byte) []byte {
		fs = append([]ResultFrame(nil), fs...)
		fs[i] = ResultFrame{Type: fs[i].Type, Body: edit(bytes.Clone(fs[i].Body))}
		return packStream(fs)
	}

	kinds := []types.Value{types.NewInt(-5), types.NewFloat(math.Copysign(0, -1)), types.NewString("str"),
		types.NewBool(true), types.NewBytes([]byte{0, 1, 2}), types.NewTimeSeries(types.TimeSeries{1.5, math.NaN()})}
	var everyKind streamFixture
	for f := 0; f < 3; f++ {
		var rows []types.Tuple
		for r := 0; r < 6; r++ {
			row := make(types.Tuple, len(kinds))
			for c, v := range kinds {
				if (r+c)%4 == 0 {
					row[c] = types.Null(v.Kind())
				} else {
					row[c] = v
				}
			}
			rows = append(rows, row)
		}
		everyKind = append(everyKind, rows)
	}
	wrap := streamFixture{{
		{types.NewInt(math.MaxInt64), types.NewFloat(math.NaN())},
		{types.NewInt(math.MinInt64), types.NewFloat(math.Inf(-1))},
		{types.NewInt(math.MaxInt64), types.NewFloat(0)},
	}}
	// A unique INT column turns raw after its probe window, with the fifth
	// frame; the string column keeps its dictionary.
	var rawSwitch streamFixture
	for f := 0; f < 6; f++ {
		rows := make([]types.Tuple, 64)
		for r := range rows {
			rows[r] = types.Tuple{types.NewInt(int64(f*64 + r)), types.NewString(strconv.Itoa(r % 3))}
		}
		rawSwitch = append(rawSwitch, rows)
	}
	a, b := types.NewString("a"), types.NewString("b")
	mixed := streamFixture{{{a, b}, {a, b}}, {{a}, {a, b, b}}, {{a, b}, {types.NewInt(1), b}}, {}, {{a, b}}}
	dup := frames(true, dupAnswer(200, 5))
	switched := frames(true, rawSwitch)

	return map[string][]byte{
		"every-kind":   packStream(frames(true, everyKind)),
		"int-wrap":     packStream(frames(true, wrap)),
		"raw-switch":   packStream(switched),
		"dup-answer":   packStream(dup),
		"mixed-frames": packStream(frames(true, mixed)),
		"plain-only":   packStream(frames(false, dupAnswer(40, 5))),
		// The second frame's row count, past the cells its bytes can hold.
		"bad-counts": damaged(dup, 1, func(b []byte) []byte { b[1] = 127; return b }),
		// The second frame's first T cell, a reference past the dictionary.
		"bad-index": damaged(dup, 1, func(b []byte) []byte {
			at := bytes.Index(b, []byte{byte(types.KindBytes), 0}) + 2
			b[at] = 0x7f
			return b
		}),
		// The frame after the switch names the switched column again.
		"bad-raw-switch": damaged(switched, 5, func(b []byte) []byte {
			return append([]byte{b[0], b[1], 1, 0}, b[3:]...)
		}),
		// The second frame claims a third column.
		"bad-width": damaged(dup, 1, func(b []byte) []byte { b[0] = 3; return b }),
		// A one-row frame cut inside its literal of T.
		"truncated-literal": damaged(frames(true, dupAnswer(1, 1)), 0, func(b []byte) []byte { return b[:len(b)-30] }),
	}
}

// TestResultStreamFuzzSeeds holds the committed seeds to what
// resultStreamSeeds builds from the encoder, and rewrites them when run with
// -regenerate: go test ./internal/wire -run TestResultStreamFuzzSeeds -regenerate
// A damaged seed must stop the decoder; every other seed must decode whole.
func TestResultStreamFuzzSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeResultStream")
	seeds := resultStreamSeeds(t)
	for name, data := range seeds {
		var dec ResultDecoder
		var err error
		for _, f := range unpackStream(data) {
			if _, err = dec.DecodeFrame(f); err != nil {
				break
			}
		}
		if damaged := strings.HasPrefix(name, "bad-") || strings.HasPrefix(name, "truncated-"); damaged != (err != nil) {
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
	for name, data := range seeds {
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
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
