package wire

import (
	"encoding/binary"
	"testing"

	"csq/internal/types"
)

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
// more dictionary than the cap, and whatever it accepts must survive a trip
// through the encoder. Seeds live in testdata/fuzz/FuzzDecodeResultStream.
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
