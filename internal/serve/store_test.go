package serve

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestStoreCheckpointRecover(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := s.Recover()
	if err != nil || !fresh.Fresh {
		t.Fatalf("empty store recover = %+v, %v; want Fresh", fresh, err)
	}

	st := sampleState(t, 2, 200)
	d, w, err := s.Checkpoint(EncodeCPSS(st))
	if err != nil {
		t.Fatal(err)
	}
	// Log a few observations on top of the snapshot.
	recs := walRecords(5)
	for _, r := range recs {
		if err := w.Append(uint16(r.Stream), r.Addr, r.Tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	rec, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Fresh || rec.BaseDigest != d {
		t.Fatalf("recovered digest %x, want %x", rec.BaseDigest[:4], d[:4])
	}
	if !reflect.DeepEqual(rec.Base, st) {
		t.Fatal("recovered base state differs from the checkpointed state")
	}
	if len(rec.Records) != len(recs) {
		t.Fatalf("recovered %d WAL records, want %d", len(rec.Records), len(recs))
	}
	for i := range recs {
		if rec.Records[i] != recs[i] {
			t.Fatalf("record %d recovered as %+v, want %+v", i, rec.Records[i], recs[i])
		}
	}
}

// TestStoreContentAddressSelfCheck: a snapshot whose bytes no longer
// hash to their own file name is corruption, reported loudly.
func TestStoreContentAddressSelfCheck(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, w, err := s.Checkpoint(EncodeCPSS(sampleState(t, 1, 200)))
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	path := s.snapPath(d)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[20] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = s.Recover()
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "content address") {
		t.Fatalf("corrupted snapshot recover: %v, want content-address ErrCorrupt", err)
	}
}

// TestStoreGCKeepsOnlyCurrent: superseded generations are collected
// once CURRENT moves on, so the store's footprint stays bounded.
func TestStoreGCKeepsOnlyCurrent(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, w1, err := s.Checkpoint(EncodeCPSS(sampleState(t, 1, 200)))
	if err != nil {
		t.Fatal(err)
	}
	w1.Close()
	d2, w2, err := s.Checkpoint(EncodeCPSS(sampleState(t, 2, 200)))
	if err != nil {
		t.Fatal(err)
	}
	w2.Close()

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	want := []string{"CURRENT", filepath.Base(s.snapPath(d2)), filepath.Base(s.walPath(d2))}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("store holds %v, want %v", names, want)
	}
}
