package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

// The write-ahead log makes every applied observation durable between
// snapshots. Each WAL generation is bound to the snapshot it extends:
// the header carries the base snapshot's content digest, so replaying
// a log against the wrong snapshot — a mispaired CURRENT, a stale
// file — is a loud error instead of silent predictor divergence.
//
// Records are fixed-size and individually checksummed:
//
//	header: magic "CWAL" | version u16 | base snapshot digest [32]byte
//	record: stream u16 | addr u64 | sender u16 | type u8 | crc32c u32
//
// Replay distinguishes the two ways a log goes bad. A damaged record
// in the tail region — the final record slot, whether short or
// complete-but-bad-checksum, plus any sub-record remainder after it —
// is a torn write: the crash interrupted an append, the record was
// never acknowledged as applied, and replay tolerates it by stopping
// there. A damaged record with at least one full record after it
// cannot be a torn tail; that is corruption and replay fails loudly.

const (
	walVersion    = 1
	walHeaderSize = 4 + 2 + 32
	walRecordSize = 2 + 8 + 2 + 1 + 4
)

var walMagic = [4]byte{'C', 'W', 'A', 'L'}

// ErrWALCorrupt marks mid-file WAL damage (as opposed to a tolerated
// torn tail). Match with errors.Is.
var ErrWALCorrupt = errors.New("serve: wal: corrupt")

// WAL is an append-only observation log. Appends buffer in the OS; the
// durable prefix is everything up to the last Sync. SyncedSize and
// Size expose the boundary so the crash harness can tear the unsynced
// tail at an arbitrary byte, the way a real power cut would.
type WAL struct {
	f      *os.File
	path   string
	size   int64
	synced int64
}

// CreateWAL creates (truncating any previous file) a new WAL
// generation bound to the snapshot with the given digest, fsyncing the
// header so the generation exists durably before it is referenced.
func CreateWAL(path string, base [32]byte) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: wal: create %s: %w", path, err)
	}
	hdr := make([]byte, 0, walHeaderSize)
	hdr = append(hdr, walMagic[:]...)
	hdr = binary.LittleEndian.AppendUint16(hdr, walVersion)
	hdr = append(hdr, base[:]...)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("serve: wal: write header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("serve: wal: sync header: %w", err)
	}
	return &WAL{f: f, path: path, size: walHeaderSize, synced: walHeaderSize}, nil
}

// appendRecord encodes one observation record.
func appendRecord(buf []byte, stream uint16, addr coherence.Addr, tup coherence.Tuple) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint16(buf, stream)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(addr))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(tup.Sender))
	buf = append(buf, byte(tup.Type))
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], cpssCRCTable))
}

// Append logs one observation. The record is handed to the OS but not
// fsynced; call Sync to move the durable boundary.
func (w *WAL) Append(stream uint16, addr coherence.Addr, tup coherence.Tuple) error {
	rec := appendRecord(make([]byte, 0, walRecordSize), stream, addr, tup)
	if _, err := w.f.Write(rec); err != nil {
		return fmt.Errorf("serve: wal: append: %w", err)
	}
	w.size += walRecordSize
	return nil
}

// Sync makes every appended record durable.
func (w *WAL) Sync() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("serve: wal: sync: %w", err)
	}
	w.synced = w.size
	return nil
}

// Close closes the underlying file without syncing (matching crash
// semantics: unsynced appends may be lost).
func (w *WAL) Close() error { return w.f.Close() }

// Path returns the log's file path.
func (w *WAL) Path() string { return w.path }

// Size returns the written length; SyncedSize the durable prefix.
func (w *WAL) Size() int64       { return w.size }
func (w *WAL) SyncedSize() int64 { return w.synced }

// WALRecord is one replayed observation.
type WALRecord struct {
	Stream int
	Addr   coherence.Addr
	Tup    coherence.Tuple
}

// ReplayWAL reads the log at path, verifies it extends the snapshot
// with digest base, and calls apply for each intact record in order.
// It returns the number of records applied and how many torn tail
// bytes were tolerated. Damage anywhere but the tail wraps
// ErrWALCorrupt.
func ReplayWAL(path string, base [32]byte, apply func(WALRecord) error) (applied int, tornBytes int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("serve: wal: read %s: %w", path, err)
	}
	return replayWAL(path, data, base, apply)
}

// replayWAL is ReplayWAL over the log's bytes; errors name the log as
// path.
func replayWAL(path string, data []byte, base [32]byte, apply func(WALRecord) error) (applied int, tornBytes int, err error) {
	if len(data) < walHeaderSize {
		return 0, 0, fmt.Errorf("%w: %s: %d bytes is shorter than the header", ErrWALCorrupt, path, len(data))
	}
	if [4]byte(data[:4]) != walMagic {
		return 0, 0, fmt.Errorf("%w: %s: bad magic %q", ErrWALCorrupt, path, data[:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != walVersion {
		return 0, 0, fmt.Errorf("%w: %s: log version %d, this build reads %d", ErrWALCorrupt, path, v, walVersion)
	}
	if got := [32]byte(data[6:38]); got != base {
		return 0, 0, fmt.Errorf("%w: %s: log extends snapshot %x, expected %x — mispaired generation",
			ErrWALCorrupt, path, got[:4], base[:4])
	}
	off := walHeaderSize
	for len(data)-off >= walRecordSize {
		rec := data[off : off+walRecordSize]
		body := rec[:walRecordSize-4]
		want := binary.LittleEndian.Uint32(rec[walRecordSize-4:])
		if crc32.Checksum(body, cpssCRCTable) != want {
			rem := len(data) - off - walRecordSize
			if rem < walRecordSize {
				// Tail region: a torn final append, possibly followed by a
				// sub-record shred of the same interrupted write burst.
				return applied, len(data) - off, nil
			}
			return applied, 0, fmt.Errorf("%w: %s: record %d fails its checksum with %d intact bytes after it",
				ErrWALCorrupt, path, applied, rem)
		}
		r := WALRecord{
			Stream: int(binary.LittleEndian.Uint16(body)),
			Addr:   coherence.Addr(binary.LittleEndian.Uint64(body[2:])),
			Tup: coherence.Tuple{
				Sender: coherence.NodeID(int16(binary.LittleEndian.Uint16(body[10:]))),
				Type:   coherence.MsgType(body[12]),
			},
		}
		if !r.Tup.Type.Valid() || r.Tup.Sender < 0 || r.Tup.Sender >= 1<<12 {
			return applied, 0, fmt.Errorf("%w: %s: record %d decodes to invalid tuple %v",
				ErrWALCorrupt, path, applied, r.Tup)
		}
		if err := apply(r); err != nil {
			return applied, 0, err
		}
		applied++
		off += walRecordSize
	}
	return applied, len(data) - off, nil
}
