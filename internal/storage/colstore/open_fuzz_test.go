package colstore

import (
	"encoding/binary"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"csq/internal/types"
)

// testdata/table is a small committed table: testRows(10) under testSchema
// in segments of 4 rows, so three segments (4, 4 and 2 rows) and no tail.
// Regenerate it with: go test ./internal/storage/colstore -run TestFuzzTableFiles -regenerate
const fuzzTableDir = "testdata/table"

var regenerate = flag.Bool("regenerate", false, "rewrite the committed table under testdata/table and the FuzzDecodeColumnChunk seeds")

var fuzzTableFiles = []string{metaFile, dataFile, idxFile}

// readFuzzTable returns the committed table's three files.
func readFuzzTable(t testing.TB) [][]byte {
	t.Helper()
	files := make([][]byte, len(fuzzTableFiles))
	for i, name := range fuzzTableFiles {
		raw, err := os.ReadFile(filepath.Join(fuzzTableDir, name))
		if err != nil {
			t.Fatal(err)
		}
		files[i] = raw
	}
	return files
}

// openCopy writes the files to a fresh directory and opens the table there,
// so nothing Open does can touch the committed copy.
func openCopy(t testing.TB, files [][]byte) (*Table, error) {
	t.Helper()
	dir := t.TempDir()
	for i, name := range fuzzTableFiles {
		if err := os.WriteFile(filepath.Join(dir, name), files[i], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return Open(dir)
}

// TestFuzzTableFiles checks the committed table still opens to the rows it
// was written from, and rewrites it when run with -regenerate.
func TestFuzzTableFiles(t *testing.T) {
	if *regenerate {
		if err := os.RemoveAll(fuzzTableDir); err != nil {
			t.Fatal(err)
		}
		tab, err := Create(fuzzTableDir, "fuzz", testSchema(), Options{SegmentRows: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.InsertBatch(testRows(10)); err != nil {
			t.Fatal(err)
		}
		if err := tab.Close(); err != nil {
			t.Fatal(err)
		}
	}
	tab, err := openCopy(t, readFuzzTable(t))
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	snap := tab.Snapshot()
	if snap.NumSegments() != 3 || len(snap.Tail()) != 0 {
		t.Fatalf("%d segments and a %d-row tail, want 3 and none", snap.NumSegments(), len(snap.Tail()))
	}
	requireSameRows(t, testRows(10), readAll(t, snap))
}

// requireSameRows compares two row lists value by value.
func requireSameRows(t testing.TB, want, got []types.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		requireSameValues(t, want[i], got[i])
	}
}

// FuzzOpenTable opens the committed table after one damage to one of its
// files — a truncation to cut bytes, or a flip of bit (at % 8) of byte at —
// then scans it in full and reads the last column alone of every segment.
// The format has no checksums, so a flipped payload bit may well decode to
// another valid value; what must hold is that nothing panics, that no
// segment read allocates more than the files' sizes justify, and that a
// truncated zonemaps.csq opens to exactly the segments whose index records
// it still holds whole.
func FuzzOpenTable(f *testing.F) {
	for i, raw := range readFuzzTable(f) {
		f.Add(uint8(i), true, uint32(8*len(raw))) // the file whole
	}
	f.Fuzz(func(t *testing.T, file uint8, truncate bool, at uint32) {
		files := readFuzzTable(t)
		orig := files[int(file)%len(files)]
		damaged := append([]byte(nil), orig...)
		pos := int(at/8) % (len(orig) + 1)
		switch {
		case truncate:
			damaged = damaged[:pos]
		case pos < len(orig):
			damaged[pos] ^= 1 << (at % 8)
		}
		files[int(file)%len(files)] = damaged
		total := 0
		for _, raw := range files {
			total += len(raw)
		}
		// A decoded Value or tuple header is 24 bytes and stands for at
		// least one byte of some file.
		limit := uint64(64*total + 64<<10)

		var tab *Table
		var err error
		if a := bytesAllocatedBy(func() { tab, err = openCopy(t, files) }); a > limit {
			t.Fatalf("Open of %d bytes of files allocated %d bytes", total, a)
		}
		if err != nil {
			return
		}
		defer tab.Close()
		snap := tab.Snapshot()
		if fuzzTableFiles[int(file)%len(files)] == idxFile && truncate {
			if want := wholeRecords(orig[:pos]); snap.NumSegments() != want {
				t.Fatalf("index cut to %d bytes opened to %d segments, want %d", pos, snap.NumSegments(), want)
			}
		}
		width := tab.Schema().Len()
		for i := 0; i < snap.NumSegments(); i++ {
			// Check what ReadSegment is about to allocate before it does.
			if vecs := uint64(snap.SegmentRowCount(i)) * uint64(width*types.ValueMemSize); vecs > limit {
				t.Fatalf("segment %d declares %d rows: %d bytes of vectors from %d bytes of files", i, snap.SegmentRowCount(i), vecs, total)
			}
			for _, cols := range [][]int{nil, {width - 1}} {
				if a := bytesAllocatedBy(func() { _, _, _, err = snap.ReadSegment(i, cols, nil, nil) }); a > limit {
					t.Fatalf("reading columns %v of segment %d allocated %d bytes from %d bytes of files", cols, i, a, total)
				}
			}
		}
		if fuzzTableFiles[int(file)%len(files)] != idxFile || !truncate {
			return
		}
		// A cut index keeps the segments it holds whole, with their rows.
		rows := readAll(t, snap)
		requireSameRows(t, testRows(len(rows)), rows)
	})
}

// wholeRecords counts the length-prefixed index records raw holds whole.
func wholeRecords(raw []byte) int {
	n := 0
	for len(raw) > 0 {
		recLen, c := binary.Uvarint(raw)
		if c <= 0 || uint64(len(raw)-c) < recLen {
			break
		}
		raw = raw[c+int(recLen):]
		n++
	}
	return n
}

// TestOpenRejectsRowsBeyondChunks checks an index record whose row count its
// column chunks cannot hold fails Open, before any read sizes an arena by
// it: here the committed table's first segment claims 1<<20 rows, which a
// scan would have materialized as a 96 MiB arena out of 436 bytes of data.
func TestOpenRejectsRowsBeyondChunks(t *testing.T) {
	files := readFuzzTable(t)
	idx := files[2]
	recLen, c := binary.Uvarint(idx)
	seg, err := decodeSegmentMeta(idx[c:c+int(recLen)], testSchema().Len(), int64(len(files[1])))
	if err != nil {
		t.Fatal(err)
	}
	seg.rows = 1 << 20
	rec, err := encodeSegmentMeta(seg)
	if err != nil {
		t.Fatal(err)
	}
	files[2] = append(binary.AppendUvarint(nil, uint64(len(rec))), rec...)
	if tab, err := openCopy(t, files); err == nil {
		tab.Close()
		t.Fatalf("Open accepted a %d-row segment in %d bytes of data", seg.rows, len(files[1]))
	}
}
