// Package colstore implements the disk-backed columnar storage engine: an
// append-only table stored as fixed-size per-column segments on disk, each
// column chunk stored as a types column vector or, where that is smaller or
// the column mixes kinds, as a dictionary of types value encodings, and
// summarized by a zone map (min/max, row count, null count).
//
// The execution engine reads a columnar table only through its vectorized
// ColumnarScan, over the Snapshot surface: it materializes only the columns a
// query needs and skips whole segments via zone maps before any decode
// happens. The planner keys its caches on the table's storage.Versioned and
// storage.SegmentVersioned versions.
//
// # On-disk layout
//
// A table is a directory of three files:
//
//	meta.csq     magic ("CSQCOL2\n"), table name, schema
//	             (types.EncodeSchema), segment rows
//	segments.csq column chunks, appended segment by segment
//	zonemaps.csq one length-prefixed index record per segment: per column the
//	             chunk offset/size in segments.csq, null count and min/max
//
// Each column chunk in segments.csq is one tag byte (codecVector or
// codecDict) followed by the column's values in that form (see segment.go).
// Segments are immutable once written; a crash mid-flush leaves at worst a
// trailing partial index record, which Open ignores (the matching data bytes
// are unreferenced and simply overwritten by reuse of the offset bookkeeping
// on the next append).
package colstore

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"csq/internal/storage"
	"csq/internal/types"
)

const (
	metaFile = "meta.csq"
	dataFile = "segments.csq"
	idxFile  = "zonemaps.csq"

	// DefaultSegmentRows is the number of rows per segment when Options does
	// not override it.
	DefaultSegmentRows = 4096

	// maxMetaEntry bounds decoded counts against corrupt files.
	maxMetaEntry = 1 << 24
)

// metaMagic opens meta.csq: "CSQCOL", the format version, a newline. Version
// 2 stores column chunks as types vectors or dictionaries; version 1 (the
// wire package's batch codecs) is refused, not read.
var metaMagic = [8]byte{'C', 'S', 'Q', 'C', 'O', 'L', '2', '\n'}

// Options configures table creation.
type Options struct {
	// SegmentRows is the number of rows per on-disk segment
	// (DefaultSegmentRows when 0).
	SegmentRows int
}

// Table is a disk-backed columnar relation. It is safe for concurrent readers
// and writers; scans see a consistent snapshot of the segments and buffered
// tail rows present when the snapshot was taken.
type Table struct {
	name        string
	schema      *types.Schema
	dir         string
	segmentRows int

	version  atomic.Uint64 // bumps on every mutation (storage.Versioned)
	flushGen atomic.Uint64 // bumps on every segment flush

	mu       sync.RWMutex
	dataF    *os.File
	idxF     *os.File
	dataEnd  int64
	segs     []segmentMeta // append-only; sealed entries are immutable
	tail     []types.Tuple // buffered rows not yet flushed to a segment
	rows     int           // total rows (segments + tail)
	size     int64         // accumulated encoded size of all rows
	closed   bool
	writeErr error // sticky: a failed flush poisons the table
}

// colMeta locates one column chunk inside segments.csq and carries its zone
// map.
type colMeta struct {
	off  int64
	size int64
	zm   ZoneMap
}

// segmentMeta describes one immutable on-disk segment.
type segmentMeta struct {
	rows int
	cols []colMeta
}

// ZoneMap summarizes one column of one segment: the number of rows and nulls,
// and (for comparable, not-all-null columns) the min and max value. Pruning
// is conservative: HasMinMax is false whenever min/max could not be
// maintained (non-comparable kinds, cross-kind values), and such segments are
// never skipped.
type ZoneMap struct {
	Rows      int
	Nulls     int
	HasMinMax bool
	Min, Max  types.Value
}

// Create creates a new columnar table in dir (which must be empty or not yet
// exist).
func Create(dir, name string, schema *types.Schema, opts Options) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("colstore: table name must not be empty")
	}
	if schema == nil || schema.Len() == 0 {
		return nil, fmt.Errorf("colstore: table %q needs at least one column", name)
	}
	segRows := opts.SegmentRows
	if segRows <= 0 {
		segRows = DefaultSegmentRows
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("colstore: create %q: %w", dir, err)
	}
	if _, err := os.Stat(filepath.Join(dir, metaFile)); err == nil {
		return nil, fmt.Errorf("colstore: table already exists in %q", dir)
	}
	meta := append([]byte(nil), metaMagic[:]...)
	meta = binary.AppendUvarint(meta, uint64(len(name)))
	meta = append(meta, name...)
	meta = types.EncodeSchema(meta, schema)
	meta = binary.AppendUvarint(meta, uint64(segRows))
	if err := os.WriteFile(filepath.Join(dir, metaFile), meta, 0o644); err != nil {
		return nil, fmt.Errorf("colstore: write meta: %w", err)
	}
	t := &Table{name: name, schema: schema.Clone(), dir: dir, segmentRows: segRows}
	if err := t.openFiles(); err != nil {
		return nil, err
	}
	return t, nil
}

// Open opens an existing columnar table directory, reading the metadata and
// the zone-map index. A truncated trailing index record (crash mid-flush) is
// ignored.
func Open(dir string) (*Table, error) {
	meta, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return nil, fmt.Errorf("colstore: open %q: %w", dir, err)
	}
	if len(meta) < len(metaMagic) || string(meta[:6]) != string(metaMagic[:6]) || meta[7] != '\n' {
		return nil, fmt.Errorf("colstore: %q is not a columnar table (bad magic)", dir)
	}
	if meta[6] != metaMagic[6] {
		return nil, fmt.Errorf("colstore: %q is a version %c table; this build reads version %c only", dir, meta[6], metaMagic[6])
	}
	src := meta[len(metaMagic):]
	nameLen, c := binary.Uvarint(src)
	if c <= 0 || nameLen > maxMetaEntry || int(nameLen) > len(src[c:]) {
		return nil, fmt.Errorf("colstore: corrupt meta in %q", dir)
	}
	src = src[c:]
	name := string(src[:nameLen])
	src = src[nameLen:]
	schema, used, err := types.DecodeSchema(src)
	if err != nil {
		return nil, fmt.Errorf("colstore: corrupt schema in %q: %w", dir, err)
	}
	src = src[used:]
	segRows, c := binary.Uvarint(src)
	if c <= 0 || segRows == 0 || segRows > maxMetaEntry {
		return nil, fmt.Errorf("colstore: corrupt segment size in %q", dir)
	}
	t := &Table{name: name, schema: schema, dir: dir, segmentRows: int(segRows)}
	if err := t.openFiles(); err != nil {
		return nil, err
	}
	if err := t.loadIndex(); err != nil {
		_ = t.Close()
		return nil, err
	}
	return t, nil
}

func (t *Table) openFiles() error {
	var err error
	t.dataF, err = os.OpenFile(filepath.Join(t.dir, dataFile), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("colstore: open data file: %w", err)
	}
	t.idxF, err = os.OpenFile(filepath.Join(t.dir, idxFile), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		_ = t.dataF.Close()
		return fmt.Errorf("colstore: open index file: %w", err)
	}
	st, err := t.dataF.Stat()
	if err != nil {
		_ = t.dataF.Close()
		_ = t.idxF.Close()
		return fmt.Errorf("colstore: stat data file: %w", err)
	}
	t.dataEnd = st.Size()
	return nil
}

// loadIndex replays zonemaps.csq into the in-memory segment list.
func (t *Table) loadIndex() error {
	raw, err := os.ReadFile(filepath.Join(t.dir, idxFile))
	if err != nil {
		return fmt.Errorf("colstore: read index: %w", err)
	}
	off := 0
	for off < len(raw) {
		recLen, c := binary.Uvarint(raw[off:])
		if c <= 0 || recLen > maxMetaEntry || off+c+int(recLen) > len(raw) {
			// Truncated trailing record from a crash mid-flush: the segment
			// was never committed, so stop here.
			break
		}
		off += c
		seg, err := decodeSegmentMeta(raw[off:off+int(recLen)], t.schema.Len(), t.dataEnd)
		if err != nil {
			return fmt.Errorf("colstore: segment %d: %w", len(t.segs), err)
		}
		off += int(recLen)
		t.segs = append(t.segs, seg)
		t.rows += seg.rows
		for _, cm := range seg.cols {
			t.size += cm.size
		}
	}
	t.flushGen.Store(uint64(len(t.segs)))
	t.version.Store(uint64(t.rows))
	return nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema. Callers must not modify it.
func (t *Table) Schema() *types.Schema { return t.schema }

// Version implements storage.Versioned: it changes on every mutation.
func (t *Table) Version() uint64 { return t.version.Load() }

// SegmentSetVersion implements storage.SegmentVersioned: it identifies the
// exact segment set and buffered tail a scan would see, so the planner's
// statistics cache keys stay precise about what zone-map pruning applied to.
func (t *Table) SegmentSetVersion() string {
	t.mu.RLock()
	segs, tail := len(t.segs), len(t.tail)
	t.mu.RUnlock()
	return fmt.Sprintf("%d.%d+%d", segs, t.flushGen.Load(), tail)
}

// RowCount returns the number of stored rows (flushed and buffered).
func (t *Table) RowCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows
}

// AvgRowSize returns the mean on-disk row size in bytes (buffered tail rows
// count at their encoded size; 0 for empty tables).
func (t *Table) AvgRowSize() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.rows == 0 {
		return 0
	}
	return int(t.size / int64(t.rows))
}

// Insert appends a tuple after validating its arity and column kinds. Full
// tail buffers are flushed to an on-disk segment automatically.
func (t *Table) Insert(row types.Tuple) error {
	return t.InsertBatch([]types.Tuple{row})
}

// InsertBatch appends many tuples, validating each.
func (t *Table) InsertBatch(rows []types.Tuple) error {
	for _, r := range rows {
		if err := t.validate(r); err != nil {
			return err
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.writeState(); err != nil {
		return err
	}
	for _, r := range rows {
		t.tail = append(t.tail, r.Clone())
		t.rows++
		t.size += int64(r.Size())
		if len(t.tail) >= t.segmentRows {
			if err := t.flushLocked(); err != nil {
				return err
			}
		}
	}
	t.version.Add(1)
	return nil
}

// Flush seals the buffered tail into a (possibly partial) on-disk segment.
func (t *Table) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.writeState(); err != nil {
		return err
	}
	if len(t.tail) == 0 {
		return nil
	}
	if err := t.flushLocked(); err != nil {
		return err
	}
	t.version.Add(1)
	return nil
}

func (t *Table) writeState() error {
	if t.closed {
		return fmt.Errorf("colstore: table %q is closed", t.name)
	}
	if t.writeErr != nil {
		return fmt.Errorf("colstore: table %q failed earlier: %w", t.name, t.writeErr)
	}
	return nil
}

// flushLocked encodes the tail as one segment: per-column chunks appended to
// the data file, then one committed index record. Called with mu held.
func (t *Table) flushLocked() error {
	seg, data, idxRec, err := encodeSegment(t.schema, t.tail, t.dataEnd)
	if err != nil {
		t.writeErr = err
		return err
	}
	if _, err := t.dataF.WriteAt(data, t.dataEnd); err != nil {
		t.writeErr = fmt.Errorf("colstore: write segment: %w", err)
		return t.writeErr
	}
	idxEnd := int64(0)
	if st, err := t.idxF.Stat(); err == nil {
		idxEnd = st.Size()
	}
	rec := binary.AppendUvarint(nil, uint64(len(idxRec)))
	rec = append(rec, idxRec...)
	if _, err := t.idxF.WriteAt(rec, idxEnd); err != nil {
		t.writeErr = fmt.Errorf("colstore: write zone map: %w", err)
		return t.writeErr
	}
	t.dataEnd += int64(len(data))
	t.segs = append(t.segs, seg)
	t.tail = nil
	t.flushGen.Add(1)
	return nil
}

// Close flushes the buffered tail and releases the table's files.
func (t *Table) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	var err error
	if t.writeErr == nil && len(t.tail) > 0 {
		err = t.flushLocked()
	}
	t.closed = true
	if e := t.dataF.Close(); err == nil {
		err = e
	}
	if e := t.idxF.Close(); err == nil {
		err = e
	}
	return err
}

func (t *Table) validate(row types.Tuple) error {
	if row.Len() != t.schema.Len() {
		return fmt.Errorf("colstore: table %q expects %d columns, got %d", t.name, t.schema.Len(), row.Len())
	}
	for i, v := range row {
		want := t.schema.Columns[i].Kind
		if v.IsNull() {
			continue
		}
		got := v.Kind()
		if got == want {
			continue
		}
		if got.Numeric() && want.Numeric() {
			continue
		}
		return fmt.Errorf("colstore: table %q column %d (%s) expects %s, got %s",
			t.name, i, t.schema.Columns[i].Name, want, got)
	}
	return nil
}

// Compile-time checks: the columnar table carries the versions the planner's
// caches key on.
var (
	_ storage.Versioned        = (*Table)(nil)
	_ storage.SegmentVersioned = (*Table)(nil)
)
