package main

import (
	"fmt"
	"math/rand"
	"path/filepath"

	"csq/internal/catalog"
	"csq/internal/storage"
	"csq/internal/storage/colstore"
	"csq/internal/types"
)

// This file generates the benchmark's tables from a seed. Every column has a
// fixed width and every table a fixed shape (row count, distinct counts,
// predicate selectivity), so two seeds give different bytes of the same sizes.

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	_, _ = rng.Read(b) // math/rand's Read never fails
	return b
}

// addTable registers a loaded relation in the catalog with its statistics.
func addTable(cat *catalog.Catalog, name string, schema *types.Schema, data any, rows, avgRow int) error {
	return cat.AddTable(&catalog.Table{
		Name:   name,
		Schema: schema,
		Stats:  catalog.TableStats{RowCount: rows, AvgRowSize: avgRow},
		Data:   data,
	})
}

func loadHeap(cat *catalog.Catalog, name string, schema *types.Schema, rows []types.Tuple) (*storage.HeapTable, error) {
	t, err := storage.NewHeapTable(name, schema)
	if err != nil {
		return nil, err
	}
	if err := t.InsertBatch(rows); err != nil {
		return nil, err
	}
	st := t.Stats()
	return t, addTable(cat, name, schema, t, st.RowCount, st.AvgRowSize)
}

const (
	eventRows    = 8000
	eventKeys    = 800
	eventKeyLen  = 48
	eventPadLen  = 64
	imgRows      = 240
	imgKeyLen    = 512
	imgPadLen    = 128
	custRows     = 2000
	factRegions  = 8
	custTiers    = 5
	factNotes    = 5000
	factSegment  = 4096
	hotRows      = 20000
	hotShapes    = 16
	hotStride    = 1000
	hotSpan      = 4000
	hotInsertMax = hotStride*(hotShapes-1) + hotSpan // inserts land inside a queried range
)

// genEvents builds events(Id INT, Key BYTES, Pad BYTES): eventKeys distinct
// keys, each on exactly eventRows/eventKeys rows.
func genEvents(rng *rand.Rand, cat *catalog.Catalog) (*eventsData, error) {
	d := &eventsData{keyOf: make([]int, eventRows)}
	for k := 0; k < eventKeys; k++ {
		d.keys = append(d.keys, randBytes(rng, eventKeyLen))
	}
	for i := range d.keyOf {
		d.keyOf[i] = i % eventKeys
	}
	// Which rows repeat which key is part of the table's shape, not of its
	// bytes: how many frames the semi-join ships depends on where the
	// duplicates fall, so the placement is the same on every seed.
	placement := rand.New(rand.NewSource(eventKeys))
	placement.Shuffle(len(d.keyOf), func(i, j int) { d.keyOf[i], d.keyOf[j] = d.keyOf[j], d.keyOf[i] })
	schema := types.NewSchema(
		types.Column{Name: "Id", Kind: types.KindInt},
		types.Column{Name: "Key", Kind: types.KindBytes},
		types.Column{Name: "Pad", Kind: types.KindBytes},
	)
	rows := make([]types.Tuple, eventRows)
	for i := range rows {
		rows[i] = types.Tuple{types.NewInt(int64(i)), types.NewBytes(d.keys[d.keyOf[i]]), types.NewBytes(randBytes(rng, eventPadLen))}
	}
	_, err := loadHeap(cat, "events", schema, rows)
	return d, err
}

// genImgs builds imgs(Id INT, Cam INT, Key BYTES, Pad BYTES) with unique keys.
// The first key byte — what rank reads — takes the values ⌊p·256/imgRows⌋ of
// a seeded permutation p, so the same number of rows pass R < 26 on any seed.
func genImgs(rng *rand.Rand, cat *catalog.Catalog) (*imgsData, error) {
	d := &imgsData{}
	schema := types.NewSchema(
		types.Column{Name: "Id", Kind: types.KindInt},
		types.Column{Name: "Cam", Kind: types.KindInt},
		types.Column{Name: "Key", Kind: types.KindBytes},
		types.Column{Name: "Pad", Kind: types.KindBytes},
	)
	rows := make([]types.Tuple, imgRows)
	for i, p := range rng.Perm(imgRows) {
		key := randBytes(rng, imgKeyLen)
		key[0] = byte(p * 256 / imgRows)
		d.keys = append(d.keys, key)
		rows[i] = types.Tuple{types.NewInt(int64(i)), types.NewInt(int64(rng.Intn(16))), types.NewBytes(key), types.NewBytes(randBytes(rng, imgPadLen))}
	}
	_, err := loadHeap(cat, "imgs", schema, rows)
	return d, err
}

// genFact builds the columnar fact(Ts INT, Cust INT, Region STRING, Qty INT,
// Price FLOAT, Note STRING) under dir, with Ts = row number so zone maps can
// prune a Ts range, and the heap cust(Cust INT, Tier STRING, Name STRING).
func genFact(rng *rand.Rand, cat *catalog.Catalog, dir string, rows int) (*factData, *colstore.Table, error) {
	d := &factData{
		cust:   make([]int32, rows),
		region: make([]uint8, rows),
		qty:    make([]int32, rows),
		tierOf: make([]uint8, custRows),
	}
	custSchema := types.NewSchema(
		types.Column{Name: "Cust", Kind: types.KindInt},
		types.Column{Name: "Tier", Kind: types.KindString},
		types.Column{Name: "Name", Kind: types.KindString},
	)
	custTuples := make([]types.Tuple, custRows)
	for c := range custTuples {
		d.tierOf[c] = uint8(rng.Intn(custTiers))
		custTuples[c] = types.Tuple{
			types.NewInt(int64(c)), types.NewString(tierName(d.tierOf[c])),
			types.NewString(fmt.Sprintf("customer-%08x", rng.Uint32())),
		}
	}
	if _, err := loadHeap(cat, "cust", custSchema, custTuples); err != nil {
		return nil, nil, err
	}

	factSchema := types.NewSchema(
		types.Column{Name: "Ts", Kind: types.KindInt},
		types.Column{Name: "Cust", Kind: types.KindInt},
		types.Column{Name: "Region", Kind: types.KindString},
		types.Column{Name: "Qty", Kind: types.KindInt},
		types.Column{Name: "Price", Kind: types.KindFloat},
		types.Column{Name: "Note", Kind: types.KindString},
	)
	table, err := colstore.Create(filepath.Join(dir, "fact"), "fact", factSchema, colstore.Options{SegmentRows: factSegment})
	if err != nil {
		return nil, nil, err
	}
	notes := make([]types.Value, factNotes)
	for n := range notes {
		notes[n] = types.NewString(fmt.Sprintf("note-%04d-%08x", n, rng.Uint32()))
	}
	regions := make([]types.Value, factRegions)
	for r := range regions {
		regions[r] = types.NewString(regionName(uint8(r)))
	}
	batch := make([]types.Tuple, 0, factSegment)
	for ts := 0; ts < rows; ts++ {
		d.cust[ts] = int32(rng.Intn(custRows))
		d.region[ts] = uint8(rng.Intn(factRegions))
		d.qty[ts] = int32(1 + rng.Intn(100))
		batch = append(batch, types.Tuple{
			types.NewInt(int64(ts)), types.NewInt(int64(d.cust[ts])), regions[d.region[ts]],
			types.NewInt(int64(d.qty[ts])), types.NewFloat(float64(rng.Intn(100000)) / 100),
			notes[rng.Intn(factNotes)],
		})
		if len(batch) == cap(batch) || ts == rows-1 {
			if err := table.InsertBatch(batch); err != nil {
				_ = table.Close()
				return nil, nil, err
			}
			batch = batch[:0]
		}
	}
	if err := table.Flush(); err != nil {
		_ = table.Close()
		return nil, nil, err
	}
	if err := addTable(cat, "fact", factSchema, table, table.RowCount(), table.AvgRowSize()); err != nil {
		_ = table.Close()
		return nil, nil, err
	}
	return d, table, nil
}

// genHot builds hot(K INT, G INT, V FLOAT) with K = 0..hotRows-1.
func genHot(cat *catalog.Catalog) (*storage.HeapTable, error) {
	schema := types.NewSchema(
		types.Column{Name: "K", Kind: types.KindInt},
		types.Column{Name: "G", Kind: types.KindInt},
		types.Column{Name: "V", Kind: types.KindFloat},
	)
	rows := make([]types.Tuple, hotRows)
	for k := range rows {
		rows[k] = hotRow(int64(k))
	}
	return loadHeap(cat, "hot", schema, rows)
}
