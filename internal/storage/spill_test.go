package storage

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"csq/internal/types"
)

func TestRunWriterRoundTrip(t *testing.T) {
	w, err := NewRunWriter(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 1000; i++ {
		rec := []byte(fmt.Sprintf("record-%04d-%s", i, bytes.Repeat([]byte{byte(i)}, i%64)))
		want = append(want, rec)
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if w.Bytes() <= 0 {
		t.Fatalf("writer bytes = %d", w.Bytes())
	}
	r, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, wantRec := range want {
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(rec, wantRec) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected io.EOF after the last record, got %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent.
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRunWriterEmptyRun(t *testing.T) {
	w, err := NewRunWriter("")
	if err != nil {
		t.Fatal(err)
	}
	r, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("empty run Next = %v, want io.EOF", err)
	}
}

func TestRunWriterDiscard(t *testing.T) {
	w, err := NewRunWriter("")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := w.Discard(); err != nil {
		t.Fatal(err)
	}
	// Discard is idempotent.
	if err := w.Discard(); err != nil {
		t.Fatal(err)
	}
}

func TestRunWriterZeroLengthRecords(t *testing.T) {
	w, err := NewRunWriter("")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append(nil); err != nil {
			t.Fatal(err)
		}
	}
	r, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 3; i++ {
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if len(rec) != 0 {
			t.Fatalf("record %d has %d bytes, want 0", i, len(rec))
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected io.EOF, got %v", err)
	}
}

func TestHeapTableVersionAdvances(t *testing.T) {
	table, err := NewHeapTable("v", types.NewSchema(types.Column{Name: "K", Kind: types.KindInt}))
	if err != nil {
		t.Fatal(err)
	}
	v0 := table.Version()
	if err := table.Insert(types.NewTuple(types.NewInt(1))); err != nil {
		t.Fatal(err)
	}
	if table.Version() == v0 {
		t.Fatalf("insert did not advance the version")
	}
}
