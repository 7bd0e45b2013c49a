package colstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csq/internal/types"
)

func testSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "ID", Kind: types.KindInt},
		types.Column{Name: "Price", Kind: types.KindFloat},
		types.Column{Name: "Sym", Kind: types.KindString},
	)
}

func testRows(n int) []types.Tuple {
	rows := make([]types.Tuple, n)
	for i := range rows {
		var sym types.Value
		if i%7 == 3 {
			sym = types.Null(types.KindString)
		} else {
			sym = types.NewString(fmt.Sprintf("SYM%02d", i%5))
		}
		rows[i] = types.Tuple{
			types.NewInt(int64(i)),
			types.NewFloat(float64(i) / 4),
			sym,
		}
	}
	return rows
}

func encodeAll(t *testing.T, rows []types.Tuple) []byte {
	t.Helper()
	var buf []byte
	var err error
	for _, r := range rows {
		buf, err = types.EncodeTuple(buf, r)
		if err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// readAll materializes every row of the snapshot, segment by segment and then
// the buffered tail, in insertion order. Each segment is decoded into the
// previous one's vectors.
func readAll(t *testing.T, snap *Snapshot) []types.Tuple {
	t.Helper()
	var out []types.Tuple
	var buf []byte
	var vecs []types.Vec
	for i := 0; i < snap.NumSegments(); i++ {
		var b []byte
		var err error
		vecs, _, b, err = snap.ReadSegment(i, nil, buf, vecs)
		if err != nil {
			t.Fatal(err)
		}
		buf = b
		seg := types.Batch{Cols: vecs, N: snap.SegmentRowCount(i)}
		out = append(out, seg.Tuples()...)
	}
	return append(out, snap.Tail()...)
}

// TestRoundTrip inserts rows across several segments plus a buffered tail and
// verifies a snapshot reads them back byte-identically and in order.
func TestRoundTrip(t *testing.T) {
	tbl, err := Create(t.TempDir(), "quotes", testSchema(), Options{SegmentRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	rows := testRows(100) // 6 full segments + 4-row tail
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	if got := tbl.RowCount(); got != 100 {
		t.Fatalf("RowCount = %d, want 100", got)
	}
	if got := tbl.Snapshot().NumSegments(); got != 6 {
		t.Fatalf("NumSegments = %d, want 6", got)
	}

	if !bytes.Equal(encodeAll(t, readAll(t, tbl.Snapshot())), encodeAll(t, rows)) {
		t.Fatal("read rows differ from inserted rows")
	}
}

// TestReopen closes and reopens the table and verifies schema, rows and zone
// maps survive.
func TestReopen(t *testing.T) {
	dir := t.TempDir()
	tbl, err := Create(dir, "quotes", testSchema(), Options{SegmentRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	rows := testRows(30)
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Close(); err != nil { // flushes the 6-row tail
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Name() != "quotes" {
		t.Fatalf("reopened name = %q", re.Name())
	}
	if re.Schema().String() != testSchema().String() {
		t.Fatalf("reopened schema = %v", re.Schema())
	}
	if re.RowCount() != 30 {
		t.Fatalf("reopened RowCount = %d, want 30", re.RowCount())
	}
	snap := re.Snapshot()
	if snap.NumSegments() != 4 {
		t.Fatalf("reopened NumSegments = %d, want 4", snap.NumSegments())
	}
	zm := snap.ZoneMap(0, 0)
	if !zm.HasMinMax {
		t.Fatal("segment 0 column 0 has no zone map")
	}
	if min, _ := zm.Min.Int(); min != 0 {
		t.Fatalf("segment 0 min = %d, want 0", min)
	}
	if max, _ := zm.Max.Int(); max != 7 {
		t.Fatalf("segment 0 max = %d, want 7", max)
	}

	if !bytes.Equal(encodeAll(t, readAll(t, snap)), encodeAll(t, rows)) {
		t.Fatal("reopened rows differ from inserted rows")
	}
}

// TestZoneMapPruning exercises SegmentMayMatch over every prunable operator.
func TestZoneMapPruning(t *testing.T) {
	tbl, err := Create(t.TempDir(), "quotes", testSchema(), Options{SegmentRows: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	if err := tbl.InsertBatch(testRows(40)); err != nil { // col 0: [0..9][10..19][20..29][30..39]
		t.Fatal(err)
	}
	snap := tbl.Snapshot()
	if snap.NumSegments() != 4 {
		t.Fatalf("NumSegments = %d", snap.NumSegments())
	}
	cases := []struct {
		name string
		pred PrunePredicate
		want [4]bool // may-match per segment
	}{
		{"eq-15", PrunePredicate{Col: 0, Op: PruneEq, Value: types.NewInt(15)}, [4]bool{false, true, false, false}},
		{"lt-10", PrunePredicate{Col: 0, Op: PruneLt, Value: types.NewInt(10)}, [4]bool{true, false, false, false}},
		{"le-10", PrunePredicate{Col: 0, Op: PruneLe, Value: types.NewInt(10)}, [4]bool{true, true, false, false}},
		{"gt-29", PrunePredicate{Col: 0, Op: PruneGt, Value: types.NewInt(29)}, [4]bool{false, false, false, true}},
		{"ge-29", PrunePredicate{Col: 0, Op: PruneGe, Value: types.NewInt(29)}, [4]bool{false, false, true, true}},
		{"ne-5", PrunePredicate{Col: 0, Op: PruneNe, Value: types.NewInt(5)}, [4]bool{true, true, true, true}},
		{"eq-null", PrunePredicate{Col: 0, Op: PruneEq, Value: types.Null(types.KindInt)}, [4]bool{false, false, false, false}},
		{"float-cross-kind", PrunePredicate{Col: 0, Op: PruneLt, Value: types.NewFloat(9.5)}, [4]bool{true, false, false, false}},
	}
	for _, tc := range cases {
		for seg := 0; seg < 4; seg++ {
			got := snap.SegmentMayMatch(seg, []PrunePredicate{tc.pred})
			if got != tc.want[seg] {
				t.Errorf("%s: segment %d MayMatch = %v, want %v", tc.name, seg, got, tc.want[seg])
			}
		}
	}
}

// TestProjectedRead verifies ReadSegment decodes only the requested columns
// and reads fewer bytes doing so.
func TestProjectedRead(t *testing.T) {
	tbl, err := Create(t.TempDir(), "quotes", testSchema(), Options{SegmentRows: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	rows := testRows(32)
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	snap := tbl.Snapshot()
	full, fullBytes, _, err := snap.ReadSegment(0, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	proj, projBytes, _, err := snap.ReadSegment(0, []int{2}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if projBytes >= fullBytes {
		t.Fatalf("projected read of %d bytes not smaller than full read of %d", projBytes, fullBytes)
	}
	if len(full) != 3 || len(proj) != 3 {
		t.Fatalf("%d and %d vectors, want one per column", len(full), len(proj))
	}
	if proj[0].Len() != 0 || proj[1].Len() != 0 {
		t.Fatal("unrequested columns were decoded")
	}
	for r := range rows {
		fs, _ := full[2].Value(r).Str()
		ps, _ := proj[2].Value(r).Str()
		if fs != ps || full[2].Null(r) != proj[2].Null(r) {
			t.Fatalf("row %d column 2 differs between full and projected read", r)
		}
	}
}

// TestSnapshotIsolation verifies a snapshot taken before inserts and flushes
// does not observe them.
func TestSnapshotIsolation(t *testing.T) {
	tbl, err := Create(t.TempDir(), "quotes", testSchema(), Options{SegmentRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	rows := testRows(12)
	if err := tbl.InsertBatch(rows[:10]); err != nil {
		t.Fatal(err)
	}
	snap := tbl.Snapshot()
	v1 := tbl.SegmentSetVersion()
	if err := tbl.InsertBatch(rows[10:]); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	if v2 := tbl.SegmentSetVersion(); v2 == v1 {
		t.Fatalf("SegmentSetVersion unchanged across flush: %q", v2)
	}
	if count := len(readAll(t, snap)); count != 10 {
		t.Fatalf("snapshot saw %d rows, want 10", count)
	}
}

// TestDictCodecFallback checks both forms appear on a table whose columns
// differ in redundancy: the low-cardinality string column should pick the
// dictionary form, the dense unique int column the vector form.
func TestDictCodecFallback(t *testing.T) {
	tbl, err := Create(t.TempDir(), "quotes", testSchema(), Options{SegmentRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	if err := tbl.InsertBatch(testRows(64)); err != nil {
		t.Fatal(err)
	}
	snap := tbl.Snapshot()
	var tag [1]byte
	codec := func(col int) byte {
		cm := snap.segs[0].cols[col]
		if _, err := tbl.dataF.ReadAt(tag[:], cm.off); err != nil {
			t.Fatal(err)
		}
		return tag[0]
	}
	if c := codec(0); c != codecVector {
		t.Errorf("unique int column used codec %d, want vector", c)
	}
	if c := codec(2); c != codecDict {
		t.Errorf("5-distinct string column used codec %d, want dict", c)
	}
}

// TestMixedKindColumnsReopen writes, through Close and Open, the columns the
// vector form cannot hold: an all-NULL column, a FLOAT column that holds
// INTs, and a STRING column with NULLs of another kind. Every value must
// come back with its kind, and every chunk spends at least a byte per row.
func TestMixedKindColumnsReopen(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "Empty", Kind: types.KindString},
		types.Column{Name: "Price", Kind: types.KindFloat},
		types.Column{Name: "Sym", Kind: types.KindString},
	)
	rows := make([]types.Tuple, 48)
	for i := range rows {
		price := types.NewInt(int64(i)) // the first segment's prices are all INTs
		if i >= 16 && i%3 != 0 {
			price = types.NewFloat(float64(i) / 2)
		}
		sym := types.NewString(fmt.Sprintf("SYM%d", i%3))
		if i%5 == 0 {
			sym = types.Null(types.KindInt)
		}
		rows[i] = types.Tuple{types.Null(types.KindString), price, sym}
	}
	dir := t.TempDir()
	tbl, err := Create(dir, "mixed", schema, Options{SegmentRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	snap := re.Snapshot()
	requireSameRows(t, rows, readAll(t, snap))
	for i := 0; i < snap.NumSegments(); i++ {
		for col, cm := range snap.segs[i].cols {
			if cm.size <= int64(snap.segs[i].rows) {
				t.Errorf("segment %d column %d: %d rows in a %d-byte chunk", i, col, snap.segs[i].rows, cm.size)
			}
			var tag [1]byte
			if _, err := re.dataF.ReadAt(tag[:], cm.off); err != nil {
				t.Fatal(err)
			}
			if mixed := col == 0 || col == 2 || (col == 1 && i > 0); mixed && tag[0] != codecDict {
				t.Errorf("segment %d column %d is in form %d, want the dictionary", i, col, tag[0])
			}
		}
	}
}

// TestOpenRefusesVersion1 checks a table in the first format, whose chunks
// were the wire package's batches, fails to open with an error naming the
// version.
func TestOpenRefusesVersion1(t *testing.T) {
	dir := t.TempDir()
	tbl, err := Create(dir, "old", testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, metaFile)
	meta, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(meta, "CSQCOL1\n")
	if err := os.WriteFile(path, meta, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("Open of a CSQCOL1 table: %v, want an error naming version 1", err)
	}
}

// ZoneMap returns the zone map of column col of segment i.
func (s *Snapshot) ZoneMap(i, col int) ZoneMap { return s.segs[i].cols[col].zm }
