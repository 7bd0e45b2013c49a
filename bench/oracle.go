package main

import (
	"encoding/binary"
	"math"

	"csq/internal/types"
)

// This file is the answer oracle. It computes what every benchmark query must
// return from the generator's own rows, with plain loops and maps and none of
// the engine's packages (types only), and compares a response with that by row
// count and an order-insensitive 64-bit checksum.

// answer is the oracle's summary of a result set.
type answer struct {
	rows int
	sum  uint64
}

func (a *answer) add(row types.Tuple) {
	a.rows++
	a.sum += hashRow(row)
}

// summarize folds a response into an answer.
func summarize(rows []types.Tuple) answer {
	var a answer
	for _, r := range rows {
		a.add(r)
	}
	return a
}

func mix(h, x uint64) uint64 {
	h ^= x
	h *= 0x9E3779B97F4A7C15
	return h ^ (h >> 29)
}

func hashBytes(h uint64, b []byte) uint64 {
	h = mix(h, uint64(len(b)))
	for len(b) >= 8 {
		h = mix(h, binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	var tail uint64
	for i, c := range b {
		tail |= uint64(c) << (8 * i)
	}
	return mix(h, tail)
}

// hashRow hashes one row, column order and kinds included. Rows are summed,
// so the checksum does not depend on row order but does on multiplicity.
func hashRow(t types.Tuple) uint64 {
	h := uint64(len(t))
	for _, v := range t {
		h = mix(h, uint64(v.Kind()))
		if v.IsNull() {
			h = mix(h, math.MaxUint64)
			continue
		}
		switch v.Kind() {
		case types.KindInt:
			i, _ := v.Int()
			h = mix(h, uint64(i))
		case types.KindFloat:
			f, _ := v.Float()
			h = mix(h, math.Float64bits(f))
		case types.KindBool:
			b, _ := v.Bool()
			if b {
				h = mix(h, 1)
			} else {
				h = mix(h, 2)
			}
		case types.KindString:
			s, _ := v.Str()
			h = mix(h, uint64(len(s)))
			for i := 0; i < len(s); i++ {
				h = mix(h, uint64(s[i]))
			}
		case types.KindBytes:
			b, _ := v.Bytes()
			h = hashBytes(h, b)
		default:
			// No benchmark query returns another kind; a response that does is
			// wrong, and an unmatched constant makes its checksum say so.
			h = mix(h, 0xBAD)
		}
	}
	return h
}

// ---- udf_semijoin_lan ----

const tagBytes = 64

// tagUDF is the body of the client UDF tag: a 64-byte digest of its key.
func tagUDF(key []byte) []byte {
	out := make([]byte, tagBytes)
	acc := byte(len(key))
	for j := range out {
		acc = acc*31 + key[j%len(key)] + byte(j)
		out[j] = acc
	}
	return out
}

// eventsData is what the oracle needs of the events table: row i is
// (Id=i, Key=keys[keyOf[i]], Pad).
type eventsData struct {
	keys  [][]byte
	keyOf []int
}

// expectTagged answers t(Id,T) :- events(Id,Key,_), udf tag(Key) as T.
func (d *eventsData) expectTagged() answer {
	tags := make([][]byte, len(d.keys))
	for k, key := range d.keys {
		tags[k] = tagUDF(key)
	}
	var a answer
	for id, k := range d.keyOf {
		a.add(types.Tuple{types.NewInt(int64(id)), types.NewBytes(tags[k])})
	}
	return a
}

// ---- udf_clientjoin_asym ----

const (
	renderBytes = 1024
	rankCutoff  = 26
)

// rankUDF is the body of the client UDF rank: a score in [0, 256) read off the
// key's first two bytes.
func rankUDF(key []byte) float64 {
	return float64(key[0]) + float64(key[1])/256
}

// renderUDF is the body of the client UDF render: a 1 KiB image of its key.
func renderUDF(key []byte) []byte {
	out := make([]byte, renderBytes)
	for j := range out {
		out[j] = key[j%len(key)] ^ byte(j>>2)
	}
	return out
}

// imgsData is what the oracle needs of the imgs table: row i is
// (Id=i, Cam, Key=keys[i], Pad).
type imgsData struct {
	keys [][]byte
}

// expectRanked answers
// t(Id,R,Img) :- imgs(Id,_,Key,_), udf rank(Key) as R, udf render(Key) as Img, R < 26.
func (d *imgsData) expectRanked() answer {
	var a answer
	for id, key := range d.keys {
		r := rankUDF(key)
		if r < rankCutoff {
			a.add(types.Tuple{types.NewInt(int64(id)), types.NewFloat(r), types.NewBytes(renderUDF(key))})
		}
	}
	return a
}

// ---- scan_join_agg ----

// factData holds the columns of fact the benchmark query reads (row i has
// Ts=i) and the cust table's Tier by customer.
type factData struct {
	cust   []int32
	region []uint8
	qty    []int32
	tierOf []uint8 // by customer
}

func regionName(r uint8) string { return "region-" + string(rune('0'+r)) }
func tierName(t uint8) string   { return "tier-" + string(rune('0'+t)) }

// expectRollup answers
// r(Tier,Region,sum(Qty) as Q,count(Ts) as N) :- fact(Ts,Cust,Region,Qty,_,_), cust(Cust,Tier,_), Ts >= lo, Ts < hi.
func (d *factData) expectRollup(lo, hi int64) answer {
	type group struct{ tier, region uint8 }
	type agg struct{ q, n int64 }
	groups := make(map[group]*agg)
	if hi > int64(len(d.cust)) {
		hi = int64(len(d.cust))
	}
	for ts := lo; ts < hi; ts++ {
		g := group{d.tierOf[d.cust[ts]], d.region[ts]}
		s := groups[g]
		if s == nil {
			s = &agg{}
			groups[g] = s
		}
		s.q += int64(d.qty[ts])
		s.n++
	}
	var a answer
	for g, s := range groups {
		a.add(types.Tuple{
			types.NewString(tierName(g.tier)), types.NewString(regionName(g.region)),
			types.NewInt(s.q), types.NewInt(s.n),
		})
	}
	return a
}

// ---- hot_rw ----

// hotRow builds the hot table's row for a key, so that the table loader, the
// inserts and the model all agree on a row's contents.
func hotRow(k int64) types.Tuple {
	return types.Tuple{types.NewInt(k), types.NewInt(k % 97), types.NewFloat(float64(k) * 0.5)}
}

// hotModel is the harness's model of the hot table: the expected answer of
// each query shape, kept current as rows are inserted. Shape g selects
// g·hotStride <= K < g·hotStride+hotSpan.
type hotModel struct {
	stride, span int64
	shapes       []answer
}

func newHotModel(rows, shapes int, stride, span int64) *hotModel {
	m := &hotModel{stride: stride, span: span, shapes: make([]answer, shapes)}
	for k := int64(0); k < int64(rows); k++ {
		m.insert(k)
	}
	return m
}

// insert records that hotRow(k) is now in the table.
func (m *hotModel) insert(k int64) {
	row := hotRow(k)
	for g := range m.shapes {
		lo := int64(g) * m.stride
		if k >= lo && k < lo+m.span {
			m.shapes[g].add(row)
		}
	}
}

// expect answers r(K,G,V) :- hot(K,G,V), K >= lo, K < lo+span for shape g.
func (m *hotModel) expect(g int) answer { return m.shapes[g] }
