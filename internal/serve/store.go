package serve

import (
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// Store is the content-addressed durable home of the service state,
// living alongside internal/tracecache in design: every snapshot is a
// CPSS container named by the SHA-256 of its bytes, installed with the
// write-fsync-rename idiom so readers and crashed writers never see a
// partial file. A CURRENT pointer file names the live snapshot, and
// each snapshot owns a WAL generation named by the same digest, so the
// (snapshot, log) pair that recovery reads is consistent no matter
// where a crash lands:
//
//	snap-<sha256>.cpss   immutable, content-addressed containers
//	wal-<sha256>         the log extending that snapshot
//	CURRENT              "<sha256>\n", atomically replaced
//
// Checkpoint ordering — snapshot, then its (empty) WAL generation,
// then CURRENT, with the directory fsynced after every install so the
// renames and creations themselves survive a power cut — means CURRENT
// never names a pair that is not fully on disk. Obsolete generations
// are garbage-collected only after CURRENT durably moves on.
type Store struct {
	dir string
}

// OpenStore opens (creating if needed) a store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: store: create %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) snapPath(d [32]byte) string {
	return filepath.Join(s.dir, "snap-"+hex.EncodeToString(d[:])+".cpss")
}

func (s *Store) walPath(d [32]byte) string {
	return filepath.Join(s.dir, "wal-"+hex.EncodeToString(d[:]))
}

func (s *Store) currentPath() string { return filepath.Join(s.dir, "CURRENT") }

// syncDir fsyncs the store directory, making renames and file
// creations in it durable. Without it a power cut can undo a rename
// the process already observed — leaving CURRENT naming a generation
// whose files were gc'd, or a wal whose directory entry never stuck.
func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("serve: store: open dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("serve: store: fsync dir %s: %w", s.dir, err)
	}
	return nil
}

// writeFileAtomic installs data at path via temp + fsync + rename +
// directory fsync (the tracecache idiom, plus the dir sync): the file
// is durable before it is visible, and the rename itself is durable
// before writeFileAtomic returns.
func (s *Store) writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("serve: store: temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: store: write %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: store: fsync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("serve: store: close %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("serve: store: install %s: %w", path, err)
	}
	return s.syncDir()
}

// Checkpoint makes the encoded CPSS container enc the store's durable
// state: it writes enc under its content address, opens a fresh WAL
// generation bound to it, atomically repoints CURRENT, and
// garbage-collects superseded generations. It does not retain enc. The
// returned WAL is open for appending; the caller owns closing it.
func (s *Store) Checkpoint(enc []byte) ([32]byte, *WAL, error) {
	d := Digest(enc)
	if _, err := os.Stat(s.snapPath(d)); errors.Is(err, fs.ErrNotExist) {
		if err := s.writeFileAtomic(s.snapPath(d), enc); err != nil {
			return d, nil, err
		}
	}
	// Recreate the WAL generation even if one exists: checkpointing to
	// a state seen before (content addressing at work) must still start
	// from an empty log for that state.
	w, err := CreateWAL(s.walPath(d), d)
	if err != nil {
		return d, nil, err
	}
	// The wal file is fsynced by CreateWAL, but its directory entry is
	// not durable until the directory is — and CURRENT must never point
	// at a generation whose wal could vanish in a power cut.
	if err := s.syncDir(); err != nil {
		w.Close()
		return d, nil, err
	}
	if err := s.writeFileAtomic(s.currentPath(), []byte(hex.EncodeToString(d[:])+"\n")); err != nil {
		w.Close()
		return d, nil, err
	}
	// writeFileAtomic fsynced the directory after the CURRENT rename,
	// so the repoint is durable before any old generation is unlinked.
	s.gc(d)
	return d, w, nil
}

// gc removes generations other than keep. Best-effort: a leftover file
// is wasted disk, not a correctness problem.
func (s *Store) gc(keep [32]byte) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	keepHex := hex.EncodeToString(keep[:])
	for _, e := range entries {
		name := e.Name()
		if (strings.HasPrefix(name, "snap-") || strings.HasPrefix(name, "wal-")) &&
			!strings.Contains(name, keepHex) {
			os.Remove(filepath.Join(s.dir, name))
		}
	}
}

// Deliberate-damage modes for CorruptStore.
const (
	// CorruptSnapshot flips a payload byte in the CURRENT snapshot:
	// recovery must refuse it (content-address self-check).
	CorruptSnapshot = "snapshot"
	// CorruptWAL flips a byte in the WAL with intact records after it:
	// recovery must distinguish it from a tolerable torn tail.
	CorruptWAL = "wal"
	// CorruptVersion rewrites the CURRENT snapshot as a well-formed
	// container from a future format version (re-addressed, so the
	// content hash is honest): recovery must refuse it as a version
	// mismatch, not lump it in with corruption.
	CorruptVersion = "version"
)

// CorruptStore injects the named damage into the store at dir and
// returns the sentinel error the next Recover must fail with. It
// exists for the chaos harness's self-check: a recovery path whose
// corruption detection is never watched firing proves nothing.
func CorruptStore(dir, mode string) (error, error) {
	s := &Store{dir: dir}
	cur, err := os.ReadFile(s.currentPath())
	if err != nil {
		return nil, fmt.Errorf("serve: corrupt store: %w", err)
	}
	raw, err := hex.DecodeString(strings.TrimSpace(string(cur)))
	if err != nil || len(raw) != 32 {
		return nil, fmt.Errorf("serve: corrupt store: bad CURRENT")
	}
	var d [32]byte
	copy(d[:], raw)
	switch mode {
	case CorruptSnapshot:
		data, err := os.ReadFile(s.snapPath(d))
		if err != nil {
			return nil, err
		}
		data[len(data)/2] ^= 0x01
		return ErrCorrupt, os.WriteFile(s.snapPath(d), data, 0o644)
	case CorruptWAL:
		path := s.walPath(d)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if len(data) >= walHeaderSize+2*walRecordSize {
			// Damage the first record: full records follow, so this can
			// never pass as a torn tail.
			data[walHeaderSize+2] ^= 0x01
		} else {
			data[0] ^= 0x01 // too short for a mid-file flip: break the magic
		}
		return ErrWALCorrupt, os.WriteFile(path, data, 0o644)
	case CorruptVersion:
		data, err := os.ReadFile(s.snapPath(d))
		if err != nil {
			return nil, err
		}
		// A container a future build might leave: version bumped, footer
		// refitted, installed under its honest content address.
		data[4]++
		body := data[:len(data)-cpssFooterSize]
		data = appendFooter(body)
		nd := Digest(data)
		if err := s.writeFileAtomic(s.snapPath(nd), data); err != nil {
			return nil, err
		}
		// Point CURRENT at it with a matching (empty) WAL generation so
		// the version mismatch is the only thing wrong.
		if _, err := CreateWAL(s.walPath(nd), nd); err != nil {
			return nil, err
		}
		return ErrVersion, s.writeFileAtomic(s.currentPath(), []byte(hex.EncodeToString(nd[:])+"\n"))
	default:
		return nil, fmt.Errorf("serve: unknown corruption mode %q", mode)
	}
}

// Recovery is what a crashed server left behind: the last durable
// snapshot plus every intact observation logged after it. Applying
// Records to Base in order reproduces the pre-crash state up to the
// durable boundary.
type Recovery struct {
	// Fresh reports an empty store: no snapshot has ever been taken.
	Fresh bool
	// Base is the decoded CURRENT snapshot.
	Base State
	// BaseDigest is its content address.
	BaseDigest [32]byte
	// Records are the WAL records to replay on top of Base, in applied
	// order. TornBytes counts tolerated torn-tail bytes the crash left.
	Records   []WALRecord
	TornBytes int
}

// Recover reads the store back. Every integrity failure is loud: a
// snapshot whose bytes do not hash to its own name, a CPSS container
// that fails its footer, a WAL bound to the wrong snapshot or damaged
// anywhere but its torn tail.
func (s *Store) Recover() (Recovery, error) {
	cur, err := os.ReadFile(s.currentPath())
	if errors.Is(err, fs.ErrNotExist) {
		return Recovery{Fresh: true}, nil
	}
	if err != nil {
		return Recovery{}, fmt.Errorf("serve: store: read CURRENT: %w", err)
	}
	raw, err := hex.DecodeString(strings.TrimSpace(string(cur)))
	if err != nil || len(raw) != 32 {
		return Recovery{}, fmt.Errorf("%w: CURRENT holds %q, not a snapshot digest", ErrCorrupt, strings.TrimSpace(string(cur)))
	}
	var d [32]byte
	copy(d[:], raw)

	enc, err := os.ReadFile(s.snapPath(d))
	if err != nil {
		return Recovery{}, fmt.Errorf("serve: store: read snapshot %x: %w", d[:4], err)
	}
	// The content-address self-check: the name promises the bytes.
	if got := Digest(enc); got != d {
		return Recovery{}, fmt.Errorf("%w: snapshot %x hashes to %x — bytes do not match their content address",
			ErrCorrupt, d[:4], got[:4])
	}
	st, err := DecodeCPSS(enc)
	if err != nil {
		return Recovery{}, fmt.Errorf("snapshot %x: %w", d[:4], err)
	}

	rec := Recovery{Base: st, BaseDigest: d}
	// Errors name the log relative to the store, so a report reads the
	// same whichever directory the store lives in.
	walPath := s.walPath(d)
	wal, err := os.ReadFile(walPath)
	if err != nil {
		return Recovery{}, fmt.Errorf("serve: wal: read %s: %w", walPath, err)
	}
	_, rec.TornBytes, err = replayWAL(filepath.Base(walPath), wal, d, func(r WALRecord) error {
		if r.Stream < 0 || r.Stream >= len(st.Streams) {
			return fmt.Errorf("%w: record for stream %d of %d", ErrWALCorrupt, r.Stream, len(st.Streams))
		}
		rec.Records = append(rec.Records, r)
		return nil
	})
	if err != nil {
		return Recovery{}, err
	}
	return rec, nil
}
