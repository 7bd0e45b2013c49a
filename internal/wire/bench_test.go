package wire

import (
	"fmt"
	"testing"

	"csq/internal/types"
)

// The codec benchmarks compare encoding into a fresh buffer and decoding
// into a fresh batch with the pooled buffers and reused batch the operators
// use. cmd/benchrun runs them and
// folds the numbers into BENCH_exec.json.

func benchBatch(n int) *TupleBatch {
	b := &TupleBatch{SessionID: 7, Seq: 3}
	for i := 0; i < n; i++ {
		b.Tuples = append(b.Tuples, types.NewTuple(
			types.NewString(fmt.Sprintf("C%03d", i)),
			types.NewFloat(float64(i)),
			types.NewInt(int64(i)),
			types.NewTimeSeries(types.TimeSeries{100, 100 + float64(i)}),
		))
	}
	return b
}

func BenchmarkEncodeTupleBatch(b *testing.B) {
	batch := benchBatch(64)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := AppendTupleBatch(nil, batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf := GetBuffer()
			payload, err := AppendTupleBatch(*buf, batch)
			if err != nil {
				b.Fatal(err)
			}
			*buf = payload
			PutBuffer(buf)
		}
	})
}

func BenchmarkDecodeTupleBatch(b *testing.B) {
	payload, err := AppendTupleBatch(nil, benchBatch(64))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := DecodeTupleBatchInto(&TupleBatch{}, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("into", func(b *testing.B) {
		b.ReportAllocs()
		var batch TupleBatch
		for i := 0; i < b.N; i++ {
			if err := DecodeTupleBatchInto(&batch, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// The result-stream benchmarks run a whole answer — 8 000 rows of (Id, T)
// with 800 distinct 64-byte T values, in 64-row frames — through one encoder
// or decoder, beside the plain encoding of the same frames.
func BenchmarkResultStreamEncode(b *testing.B) {
	fx := dupAnswer(8000, 800)
	for _, mode := range []struct {
		name   string
		stream bool
	}{{"stream", true}, {"plain", false}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			buf := GetBuffer()
			defer PutBuffer(buf)
			for i := 0; i < b.N; i++ {
				enc := NewResultEncoder(mode.stream)
				for _, rows := range fx {
					f, err := enc.AppendFrame((*buf)[:0], rows)
					if err != nil {
						b.Fatal(err)
					}
					*buf = f.Body
				}
			}
		})
	}
}

func BenchmarkResultStreamDecode(b *testing.B) {
	fx := dupAnswer(8000, 800)
	for _, mode := range []struct {
		name   string
		stream bool
	}{{"stream", true}, {"plain", false}} {
		frames := encodeStream(b, mode.stream, fx)
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var dec ResultDecoder
				for _, f := range frames {
					if _, err := dec.DecodeFrame(f); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
