package types

import (
	"hash/maphash"
	"math"
	"slices"
)

// Batch is a window of rows held column-major: the unit operators pass.
//
// Each column is a Vec, the decoded form of a column vector, with one typed
// payload slice: int64s for INT and BOOL, float64s for FLOAT, each with a
// null bitmap. The variable-width kinds, untyped NULLs and a column mixing
// kinds keep payload references instead: a Value per cell, sharing its
// payload, NULL where the cell is. A Vec with no cells is a column its
// producer did not fill, whose every cell reads as NULL.
//
// N rows are live: rows 0..N-1 when Sel is nil, otherwise the physical rows
// in Sel, ascending. Row, which takes a physical row, is the only row view.
// The columns belong to the operator that filled the batch and stay
// unchanged until it is next called; Sel and the column headers belong to
// the batch. Only a batch's owner calls Reset and AppendRows on it.
type Batch struct {
	Cols []Vec
	N    int
	Sel  []int
	// Max bounds the live rows a producer may put in the batch; the caller
	// sets it, at least 1.
	Max int
	idx []int // Sel's storage
}

// Vec is one column of a Batch; see Batch.
type Vec struct {
	// Kind is the kind of every cell: KindInvalid when the cells mix kinds.
	Kind   Kind
	Nulls  []byte    // bit i, least significant first, set when typed cell i is NULL
	Ints   []int64   // INT and BOOL cells
	Floats []float64 // FLOAT cells
	Vals   []Value   // every other column's cells
}

// typed reports whether k's cells are held in Ints or Floats.
func typed(k Kind) bool { return k == KindInt || k == KindBool || k == KindFloat }

// Len returns the number of cells.
func (v *Vec) Len() int {
	switch v.Kind {
	case KindInt, KindBool:
		return len(v.Ints)
	case KindFloat:
		return len(v.Floats)
	}
	return len(v.Vals)
}

// Null reports whether cell i is NULL.
func (v *Vec) Null(i int) bool {
	if !typed(v.Kind) {
		return v.Value(i).IsNull()
	}
	return i/8 < len(v.Nulls) && v.Nulls[i/8]&(1<<(i%8)) != 0
}

// Value returns cell i.
func (v *Vec) Value(i int) Value {
	switch {
	case !typed(v.Kind):
		if i < len(v.Vals) {
			return v.Vals[i]
		}
		return Value{} // a column nobody filled
	case v.Null(i):
		return Null(v.Kind)
	case v.Kind == KindFloat:
		return NewFloat(v.Floats[i])
	}
	return Value{kind: v.Kind, w: uint64(v.Ints[i]), valid: true}
}

// Reset empties the vector, keeping its storage.
func (v *Vec) Reset() {
	*v = Vec{Nulls: v.Nulls[:0], Ints: v.Ints[:0], Floats: v.Floats[:0], Vals: v.Vals[:0]}
}

// Reserve makes room for n more cells of kind k, an empty vector's kind.
func (v *Vec) Reserve(k Kind, n int) {
	if v.Len() == 0 {
		v.Kind = k
	}
	switch {
	case k == KindFloat:
		v.Floats = slices.Grow(v.Floats, n)
	case typed(k):
		v.Ints = slices.Grow(v.Ints, n)
	default:
		v.Vals = slices.Grow(v.Vals, n)
	}
}

// Append adds x as the last cell. A cell whose kind is not the vector's,
// a NULL's included, turns a typed vector into payload references.
func (v *Vec) Append(x Value) {
	if k := x.Kind(); x.null || k != v.Kind {
		if v.Len() == 0 {
			v.Kind = k
		} else if k != v.Kind && v.Kind != KindInvalid {
			v.mix()
		}
		if x.IsNull() && typed(v.Kind) {
			v.setNull(v.Len())
		}
	}
	switch {
	case !typed(v.Kind):
		v.Vals = append(v.Vals, x)
	case v.Kind == KindFloat:
		v.Floats = append(v.Floats, math.Float64frombits(x.w))
	default:
		v.Ints = append(v.Ints, int64(x.w))
	}
}

// AppendRows adds cells rows of src as the last cells, in order.
func (v *Vec) AppendRows(src *Vec, rows []int) {
	v.Reserve(src.Kind, len(rows))
	switch {
	case v.Kind != src.Kind || len(src.Nulls) > 0:
		for _, r := range rows {
			v.Append(src.Value(r))
		}
	case v.Kind == KindFloat:
		for _, r := range rows {
			v.Floats = append(v.Floats, src.Floats[r])
		}
	case typed(v.Kind):
		for _, r := range rows {
			v.Ints = append(v.Ints, src.Ints[r])
		}
	default:
		for _, r := range rows {
			v.Vals = append(v.Vals, src.Value(r))
		}
	}
}

func (v *Vec) setNull(i int) {
	for len(v.Nulls) <= i/8 {
		v.Nulls = append(v.Nulls, 0)
	}
	v.Nulls[i/8] |= 1 << (i % 8)
}

// mix turns the vector's cells into payload references.
func (v *Vec) mix() {
	vals := v.Vals[:0]
	for i := 0; i < v.Len(); i++ {
		vals = append(vals, v.Value(i))
	}
	*v = Vec{Kind: KindInvalid, Nulls: v.Nulls[:0], Ints: v.Ints[:0], Floats: v.Floats[:0], Vals: vals}
}

// Reset makes the batch width empty columns of its own, keeping their
// storage.
func (b *Batch) Reset(width int) {
	b.Cols = slices.Grow(b.Cols[:0], width)[:width]
	for c := range b.Cols {
		b.Cols[c].Reset()
	}
	b.N, b.Sel = 0, nil
}

// AppendRows adds rows, one value per column each, as the last live rows of
// a batch Reset made dense. It goes a column at a time.
func (b *Batch) AppendRows(rows ...Tuple) {
	for c := range b.Cols {
		v := &b.Cols[c]
		if len(rows) > 0 {
			v.Reserve(rows[0][c].Kind(), len(rows))
		}
		for _, t := range rows {
			switch x := &t[c]; {
			case !x.valid || x.null || x.kind != v.Kind || !typed(x.kind):
				v.Append(*x)
			case x.kind == KindFloat:
				v.Floats = append(v.Floats, math.Float64frombits(x.w))
			default:
				v.Ints = append(v.Ints, int64(x.w))
			}
		}
	}
	b.N += len(rows)
}

// View points the batch at n dense rows of cols, which stay their owner's.
func (b *Batch) View(cols []Vec, n int) {
	b.Cols = append(b.Cols[:0], cols...)
	b.N, b.Sel = n, nil
}

// Window narrows a dense batch to its n rows from lo on.
func (b *Batch) Window(lo, n int) {
	b.idx = slices.Grow(b.idx[:0], n)
	for r := lo; r < lo+n; r++ {
		b.idx = append(b.idx, r)
	}
	b.N, b.Sel = n, b.idx
}

// Live returns the physical rows of the live ones, ascending: Sel, or
// 0..N-1 in the batch's own storage. A filter may compact it in place and
// make the result Sel.
func (b *Batch) Live() []int {
	if b.Sel != nil {
		return b.Sel
	}
	b.Window(0, b.N)
	b.Sel = nil
	return b.idx
}

// Row appends the values of physical row r to dst and returns it.
func (b *Batch) Row(r int, dst Tuple) Tuple {
	for c := range b.Cols {
		dst = append(dst, b.Cols[c].Value(r))
	}
	return dst
}

// Tuples copies the live rows out into tuples that share one backing array.
func (b *Batch) Tuples() []Tuple {
	w, live := len(b.Cols), b.Live()
	vals := make([]Value, b.N*w)
	for c := range b.Cols { // a column at a time
		switch v := &b.Cols[c]; {
		case v.Kind == KindInt && len(v.Nulls) == 0:
			for i, r := range live {
				vals[i*w+c] = Value{kind: KindInt, w: uint64(v.Ints[r]), valid: true}
			}
		case !typed(v.Kind) && len(v.Vals) > 0:
			for i, r := range live {
				vals[i*w+c] = v.Vals[r]
			}
		default:
			for i, r := range live {
				vals[i*w+c] = v.Value(r)
			}
		}
	}
	rows := make([]Tuple, b.N)
	for i := range rows {
		rows[i] = vals[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}

// HashRows returns the key hash of cols of each physical row of rows, in
// hs's storage, a column at a time. Rows whose cells compare equal
// (Compare == 0) hash alike. It is the one value hash: it keys in-memory
// tables and picks spill partitions, which never outlive their process, and
// it differs between processes.
func (b *Batch) HashRows(rows, cols []int, hs []uint64) []uint64 {
	hs = slices.Grow(hs[:0], len(rows))[:len(rows)]
	clear(hs)
	for _, c := range cols {
		v := &b.Cols[c]
		for i, r := range rows {
			var vh uint64
			switch {
			case v.Kind == KindInt && !v.Null(r):
				vh = mix64(numericBits(float64(v.Ints[r])))
			default:
				vh = v.Value(r).keyHash()
			}
			hs[i] = mix64(hs[i] ^ vh)
		}
	}
	return hs
}

// keySeed seeds the key hash of strings and byte strings.
var keySeed = maphash.MakeSeed()

// keyHash is a value's key hash; see HashRows.
func (v Value) keyHash() uint64 {
	switch {
	case v.IsNull():
		return 1
	case v.kind == KindInt:
		return mix64(numericBits(float64(v.int())))
	case v.kind == KindFloat:
		return mix64(numericBits(v.float()))
	case (v.kind == KindString || v.kind == KindBytes) && v.w > 8:
		return maphash.String(keySeed, v.str())
	case v.kind == KindString || v.kind == KindBytes:
		// Up to 8 bytes and the length fit one word, which mixes alone.
		w, s := v.w<<59, v.str()
		for i := 0; i < len(s); i++ {
			w ^= uint64(s[i]) << (8 * i)
		}
		return mix64(w)
	case v.kind == KindBool:
		return mix64(v.w ^ 0xb001)
	case v.kind == KindTimeSeries:
		// A series compares by the bits of its points, so they are hashed.
		h := v.w
		for _, f := range v.series() {
			h = mix64(h ^ math.Float64bits(f))
		}
		return h
	}
	return 0
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// Equal reports whether cell r equals x by Compare == 0, without calling
// Compare for two non-NULL cells of one kind other than FLOAT.
func (v *Vec) Equal(r int, x Value) bool {
	y := v.Value(r)
	if y.kind == x.kind && y.valid && x.valid && !y.null && !x.null {
		switch y.kind {
		case KindInt, KindBool:
			return y.w == x.w
		case KindString, KindBytes:
			return y.w == x.w && (y.p == x.p || y.str() == x.str())
		}
	}
	c, err := Compare(y, x)
	return err == nil && c == 0
}

// MemSize returns the bytes rows from on keep resident: 8 a typed cell, or a
// Value and its payload, counted once per cell as Tuple.MemSize does.
func (b *Batch) MemSize(from int) int64 {
	size := 0
	for c := range b.Cols {
		v := &b.Cols[c]
		if n := v.Len() - from; typed(v.Kind) && n > 0 {
			size += 8*n + (n+7)/8
		}
		for _, x := range v.Vals[min(from, len(v.Vals)):] {
			size += ValueMemSize + x.payloadMemSize()
		}
	}
	return int64(size)
}
