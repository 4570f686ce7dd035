package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

func walRecords(n int) []WALRecord {
	recs := make([]WALRecord, n)
	for i := range recs {
		recs[i] = WALRecord{
			Stream: i % 2,
			Addr:   coherence.Addr((i % 8) * 64),
			Tup: coherence.Tuple{
				Sender: coherence.NodeID(i % 16),
				Type:   coherence.MsgType(1 + i%int(coherence.NumMsgTypes-1)),
			},
		}
	}
	return recs
}

func writeWAL(t *testing.T, path string, base [32]byte, recs []WALRecord, syncAfter int) *WAL {
	t.Helper()
	w, err := CreateWAL(path, base)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if err := w.Append(uint16(r.Stream), r.Addr, r.Tup); err != nil {
			t.Fatal(err)
		}
		if i+1 == syncAfter {
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return w
}

// replayFile replays the log file at path.
func replayFile(t *testing.T, path string, base [32]byte, apply func(WALRecord) error) (int, int, error) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return replayWAL(path, data, base, apply)
}

func TestWALAppendReplay(t *testing.T) {
	base := [32]byte{1, 2, 3}
	path := filepath.Join(t.TempDir(), "wal")
	recs := walRecords(50)
	w := writeWAL(t, path, base, recs, 50)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got []WALRecord
	n, torn, err := replayFile(t, path, base, func(r WALRecord) error {
		got = append(got, r)
		return nil
	})
	if err != nil || torn != 0 || n != len(recs) {
		t.Fatalf("replay = %d records, %d torn bytes, %v", n, torn, err)
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d replayed as %+v, want %+v", i, got[i], recs[i])
		}
	}
}

// TestWALTornTailTolerated chops the file at every byte boundary in
// the tail region: each chop must replay the intact prefix silently.
func TestWALTornTailTolerated(t *testing.T) {
	base := [32]byte{9}
	dir := t.TempDir()
	recs := walRecords(10)
	for cut := 0; cut <= 2*walRecordSize; cut++ {
		path := filepath.Join(dir, "wal")
		w := writeWAL(t, path, base, recs, len(recs))
		w.Close()
		full := walHeaderSize + int64(len(recs))*walRecordSize
		if err := os.Truncate(path, full-int64(cut)); err != nil {
			t.Fatal(err)
		}
		n, torn, err := replayFile(t, path, base, func(WALRecord) error { return nil })
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		wantFull := (int(full) - cut - walHeaderSize) / walRecordSize
		wantTorn := (int(full) - cut - walHeaderSize) % walRecordSize
		if n != wantFull || torn != wantTorn {
			t.Fatalf("cut %d: replayed %d records with %d torn bytes, want %d and %d",
				cut, n, torn, wantFull, wantTorn)
		}
	}
}

// TestWALCorruptionIsLoud: damage that cannot be a torn tail fails
// with ErrWALCorrupt instead of silently dropping records.
func TestWALCorruptionIsLoud(t *testing.T) {
	base := [32]byte{7}
	path := filepath.Join(t.TempDir(), "wal")
	recs := walRecords(10)
	w := writeWAL(t, path, base, recs, len(recs))
	w.Close()
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, mut []byte, wantText string) {
		t.Helper()
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := replayFile(t, path, base, func(WALRecord) error { return nil })
		if !errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("%s: %v, want ErrWALCorrupt", name, err)
		}
		if wantText != "" && !strings.Contains(err.Error(), wantText) {
			t.Fatalf("%s: error %q does not mention %q", name, err, wantText)
		}
	}

	mid := append([]byte(nil), pristine...)
	mid[walHeaderSize+3*walRecordSize+4] ^= 0x01 // third record, mid-file
	check("mid-file bit flip", mid, "intact bytes after it")

	mag := append([]byte(nil), pristine...)
	mag[0] = 'X'
	check("bad magic", mag, "magic")

	ver := append([]byte(nil), pristine...)
	ver[4] = walVersion + 1
	check("future version", ver, "version")

	// A log bound to a different snapshot: mispaired generation.
	if err := os.WriteFile(path, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = replayFile(t, path, [32]byte{8}, func(WALRecord) error { return nil })
	if !errors.Is(err, ErrWALCorrupt) || !strings.Contains(err.Error(), "mispaired") {
		t.Fatalf("wrong base digest: %v, want mispaired-generation ErrWALCorrupt", err)
	}
}

// TestWALSyncBoundary pins the durability bookkeeping the crash
// harness relies on: SyncedSize tracks the fsynced prefix, Size the
// written length.
func TestWALSyncBoundary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w := writeWAL(t, path, [32]byte{}, walRecords(10), 6)
	defer w.Close()
	if w.SyncedSize() != walHeaderSize+6*walRecordSize {
		t.Fatalf("SyncedSize = %d, want header+6 records", w.SyncedSize())
	}
	if w.Size() != walHeaderSize+10*walRecordSize {
		t.Fatalf("Size = %d, want header+10 records", w.Size())
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if w.SyncedSize() != w.Size() {
		t.Fatal("Sync did not advance the durable boundary")
	}
}

// walBytes is the log CreateWAL and Append write for recs.
func walBytes(base [32]byte, recs []WALRecord) []byte {
	data := append([]byte(nil), walMagic[:]...)
	data = binary.LittleEndian.AppendUint16(data, walVersion)
	data = append(data, base[:]...)
	for _, r := range recs {
		data = appendRecord(data, uint16(r.Stream), r.Addr, r.Tup)
	}
	return data
}

// FuzzReplayWAL: replay either fails, or what it accepted is exactly
// the log that writing its records would produce — the header plus
// every applied record, re-encoded — followed by the torn tail it
// reported. So replay neither invents, alters nor silently skips a
// record. The seeds are the truncations of TestWALTornTailTolerated and
// the damage of TestWALCorruptionIsLoud.
func FuzzReplayWAL(f *testing.F) {
	base := [32]byte{7}
	pristine := walBytes(base, walRecords(10))
	for cut := 0; cut <= 2*walRecordSize; cut++ {
		f.Add(pristine[:len(pristine)-cut])
	}
	for _, off := range []int{walHeaderSize + 3*walRecordSize + 4, 0, 4, 6, len(pristine) - 1} {
		d := append([]byte(nil), pristine...)
		d[off] ^= 0x01
		f.Add(d)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var applied []WALRecord
		n, torn, err := replayWAL("fuzz", data, base, func(r WALRecord) error {
			applied = append(applied, r)
			return nil
		})
		if err != nil {
			return
		}
		if n != len(applied) || torn < 0 || torn > len(data) {
			t.Fatalf("replay reports %d records and %d torn bytes of %d, applied %d", n, torn, len(data), len(applied))
		}
		if want := walBytes(base, applied); !bytes.Equal(want, data[:len(data)-torn]) {
			t.Fatalf("replay accepted %d bytes (%d records, %d torn) that re-encode differently", len(data), n, torn)
		}
	})
}
