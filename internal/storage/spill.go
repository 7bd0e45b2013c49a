package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Spill runs: length-prefixed record files backing the execution engine's
// Grace-style partitioning. A RunWriter appends records to a temporary file;
// Finish rewinds the same descriptor into a RunReader that replays the
// records in append order.
//
// Two lifecycles exist. NewRunWriter unlinks the file immediately after
// creation (anonymous: the descriptor is the only reference, so a crashed
// process leaks nothing, but nothing is observable either). NewRetainedRunWriter
// keeps the file named inside a per-query spill namespace directory — the
// run is visible to operators and accounting, is removed when the writer or
// its reader closes, and a crash leaves it behind for the startup sweep
// (SweepSpillDirs) to reclaim.
//
// Records are opaque byte strings — the execution layer encodes tuples (and,
// for order-preserving join spills, sequence prefixes) with the deterministic
// types encoding, so replaying a run reproduces exactly the bytes written.

// RunWriter appends length-prefixed records to a temporary spill file.
type RunWriter struct {
	f    *os.File
	bw   *bufio.Writer
	path string // non-empty for retained runs; removed on Discard/reader Close
	size int64
}

// NewRunWriter creates a spill run in dir (the system temp directory when
// empty). The backing file is unlinked immediately: it lives exactly as long
// as the writer (or the reader Finish hands it to) holds the descriptor.
func NewRunWriter(dir string) (*RunWriter, error) {
	f, err := os.CreateTemp(dir, "csq-spill-*.run")
	if err != nil {
		return nil, fmt.Errorf("storage: create spill run: %w", err)
	}
	// Unlink now; the descriptor keeps the data reachable. Nothing to clean
	// up even if the process dies mid-spill.
	if err := os.Remove(f.Name()); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("storage: unlink spill run: %w", err)
	}
	return &RunWriter{f: f, bw: bufio.NewWriterSize(f, 64<<10)}, nil
}

// NewRetainedRunWriter creates a named spill run in dir. The file stays
// linked until the writer (or the reader Finish hands it to) is closed; a
// process killed mid-spill leaves it on disk inside its query's namespace
// directory, where the next startup's SweepSpillDirs reclaims it.
func NewRetainedRunWriter(dir string) (*RunWriter, error) {
	f, err := os.CreateTemp(dir, "csq-spill-*.run")
	if err != nil {
		return nil, fmt.Errorf("storage: create spill run: %w", err)
	}
	return &RunWriter{f: f, bw: bufio.NewWriterSize(f, 64<<10), path: f.Name()}, nil
}

// Append writes one record.
func (w *RunWriter) Append(rec []byte) error {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(rec)))
	if _, err := w.bw.Write(hdr[:n]); err != nil {
		return fmt.Errorf("storage: spill write: %w", err)
	}
	if _, err := w.bw.Write(rec); err != nil {
		return fmt.Errorf("storage: spill write: %w", err)
	}
	w.size += int64(n + len(rec))
	return nil
}

// Bytes returns the number of bytes appended so far (including prefixes).
func (w *RunWriter) Bytes() int64 { return w.size }

// Finish flushes the run and rewinds it into a reader. The writer must not be
// used afterwards; closing the reader releases the file.
func (w *RunWriter) Finish() (*RunReader, error) {
	if err := w.bw.Flush(); err != nil {
		return nil, fmt.Errorf("storage: spill flush: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("storage: spill rewind: %w", err)
	}
	r := &RunReader{f: w.f, br: bufio.NewReaderSize(w.f, 64<<10), path: w.path}
	w.f, w.bw, w.path = nil, nil, ""
	return r, nil
}

// Discard releases the run without reading it (error paths); retained runs
// are removed from disk.
func (w *RunWriter) Discard() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	if w.path != "" {
		_ = os.Remove(w.path)
	}
	w.f, w.bw, w.path = nil, nil, ""
	return err
}

// RunReader replays the records of a finished spill run in append order.
type RunReader struct {
	f    *os.File
	br   *bufio.Reader
	path string
	buf  []byte
}

// Next returns the next record, or io.EOF at the end of the run. The returned
// slice is only valid until the next call.
func (r *RunReader) Next() ([]byte, error) {
	n, err := binary.ReadUvarint(r.br)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("storage: spill read: %w", err)
	}
	if n > 1<<31 {
		return nil, fmt.Errorf("storage: spill record of %d bytes exceeds limit", n)
	}
	if uint64(cap(r.buf)) < n {
		r.buf = make([]byte, n)
	}
	buf := r.buf[:n]
	if _, err := io.ReadFull(r.br, buf); err != nil {
		return nil, fmt.Errorf("storage: spill read: %w", err)
	}
	return buf, nil
}

// Close releases the run's file; retained runs are removed from disk.
func (r *RunReader) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	if r.path != "" {
		_ = os.Remove(r.path)
	}
	r.f, r.br, r.path = nil, nil, ""
	return err
}
