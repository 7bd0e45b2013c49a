package exec

import "csq/internal/types"

// keyTable is the one in-memory hash table of the package: the hash join's
// build, the aggregate's groups and the semi-join's argument table. Its rows
// live in columns of its own, in insertion order, so a row's index is its
// identity. The rows of one key hash (Batch.HashRows over the key columns)
// are chained in insertion order by int32 links, and a lookup walks the chain
// of its hash comparing key cells with Vec.Equal (Compare == 0: NULL keys
// equal NULL keys, INT keys equal FLOAT ones). Compare == 0 is not
// transitive across INT and FLOAT past 2⁵³, so a lookup never assumes that a
// chain holds one key: the join visits every row of its chain, and find
// takes the first equal row in insertion order.
type keyTable struct {
	rows   types.Batch         // dense, in insertion order
	keys   []int               // the key columns of rows
	chains map[uint64]keyChain // key hash → its first and last row
	next   []int32             // row → the next row of its chain, or -1
	one    [1]int              // scratch for adding a single row
	hash   [1]uint64
}

// keyChain is the first and last row of one key hash.
type keyChain struct{ head, tail int32 }

// keyChainMemSize is what a chain's map entry keeps resident: 23 to 46 bytes
// of buckets at Go's load factors.
const keyChainMemSize = 32

// KeyRowMemSize is what a keyTable charges for one row of the given kinds
// whose variable-width cells hold payload bytes in all, when the row starts
// a chain of its own: 8 B and a null bit a typed (INT, BOOL, FLOAT) cell, a
// Value otherwise, the payload, a chain link and a map entry. The planner's
// memory estimates call it, so an estimate is the charge.
func KeyRowMemSize(kinds []types.Kind, payload float64) float64 {
	n := 4 + keyChainMemSize + payload
	for _, k := range kinds {
		switch k {
		case types.KindInt, types.KindBool, types.KindFloat:
			n += 8 + 1.0/8
		default:
			n += float64(types.ValueMemSize)
		}
	}
	return n
}

// reset empties the table to width columns keyed on keys, keeping its
// storage.
func (t *keyTable) reset(width int, keys []int) {
	t.rows.Reset(width)
	t.keys = keys
	if t.chains == nil {
		t.chains = make(map[uint64]keyChain)
	}
	clear(t.chains)
	t.next = t.next[:0]
}

// release drops the table's storage.
func (t *keyTable) release() { *t = keyTable{} }

// add appends rows of b as the table's last rows, chained under their key
// hashes; cols are the columns of b that fill the table's, in order (all of
// b's when nil). It returns the bytes the table grew by: the cells, a chain
// link a row and a map entry a new chain.
func (t *keyTable) add(b *types.Batch, rows, cols []int, hashes []uint64) int64 {
	from, chains := t.rows.N, len(t.chains)
	for c := range t.rows.Cols {
		src := c
		if cols != nil {
			src = cols[c]
		}
		t.rows.Cols[c].AppendRows(&b.Cols[src], rows)
	}
	for _, h := range hashes {
		i := int32(t.rows.N)
		t.rows.N++
		t.next = append(t.next, -1)
		if ch, ok := t.chains[h]; ok {
			t.next[ch.tail] = i
			t.chains[h] = keyChain{ch.head, i}
		} else {
			t.chains[h] = keyChain{i, i}
		}
	}
	return t.rows.MemSize(from) + 4*int64(len(rows)) + keyChainMemSize*int64(len(t.chains)-chains)
}

// head returns the first row of hash h's chain, or -1.
func (t *keyTable) head(h uint64) int32 {
	if ch, ok := t.chains[h]; ok {
		return ch.head
	}
	return -1
}

// match returns the first row from r on along its chain whose key cells
// equal row row of b's columns cols, or -1. Two INT columns without NULLs
// compare their words; every other pair of cells goes through Vec.Equal.
func (t *keyTable) match(r int32, b *types.Batch, row int, cols []int) int32 {
	for ; r >= 0; r = t.next[r] {
		eq := true
		for k, c := range cols {
			x, y := &b.Cols[c], &t.rows.Cols[t.keys[k]]
			if x.Kind == types.KindInt && y.Kind == types.KindInt && len(x.Nulls) == 0 && len(y.Nulls) == 0 {
				eq = x.Ints[row] == y.Ints[r]
			} else {
				eq = x.Equal(row, y.Value(int(r)))
			}
			if !eq {
				break
			}
		}
		if eq {
			return r
		}
	}
	return -1
}

// find returns the first row whose key equals row row of b's columns cols,
// whose key hash is h, adding that row's cols as a new row when there is
// none; grown is the charge of the added row, 0 when the key was there.
func (t *keyTable) find(b *types.Batch, row int, cols []int, h uint64) (r int32, grown int64) {
	if r = t.match(t.head(h), b, row, cols); r >= 0 {
		return r, 0
	}
	r, t.one[0], t.hash[0] = int32(t.rows.N), row, h
	return r, t.add(b, t.one[:], cols, t.hash[:])
}
