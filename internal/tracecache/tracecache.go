// Package tracecache persists CTRC-encoded traces on disk, keyed by a
// content hash of everything that determines the trace bytes. A warm
// cache turns the expensive simulate-then-capture step into a single
// decode: because the simulator is deterministic, the cached bytes are
// exactly the bytes a fresh simulation would encode, so evaluations
// against a cache hit are byte-identical to cold-cache runs (a
// regression test pins this).
//
// The cache is strict about integrity. The CTRC v2 footer
// (length + CRC-32C) makes truncated or corrupted files fail loudly at
// load time, and a load failure is reported to the caller rather than
// silently falling back to re-simulation: a cache that quietly papers
// over corruption would hide exactly the disk faults it is most likely
// to meet.
package tracecache

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"github.com/cosmos-coherence/cosmos/internal/trace"
)

// Cache is a content-addressed trace store rooted at one directory.
// The zero value (empty Dir) is a disabled cache: Load always misses
// and Store is a no-op, so callers thread one value through without
// branching on whether caching is on.
type Cache struct {
	// Dir is the cache root. Created on first Store.
	Dir string
}

// Enabled reports whether the cache is backed by a directory.
func (c Cache) Enabled() bool { return c.Dir != "" }

// path maps a key to its file. Keys are hex content hashes produced by
// the caller (see experiments.Config.traceKey); the format version is
// part of the key, so a codec bump naturally invalidates every entry.
func (c Cache) path(key string) string {
	return filepath.Join(c.Dir, key+".ctrc")
}

// Load returns the cached trace for key. The second result is false on
// a miss (no file). An existing-but-unreadable entry — truncated,
// corrupted, version-mismatched — is an error, never a silent miss.
func (c Cache) Load(key string) (*trace.Trace, bool, error) {
	if !c.Enabled() {
		return nil, false, nil
	}
	p := c.path(key)
	f, err := os.Open(p)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("tracecache: open %s: %w", p, err)
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		return nil, false, fmt.Errorf("tracecache: %s is unusable (delete it to re-simulate): %w", p, err)
	}
	return tr, true, nil
}

// fsyncTemp flushes the temp file to stable storage before the rename.
// A test hook so the crash-window test can observe (and sabotage) the
// ordering without a real power cut.
var fsyncTemp = (*os.File).Sync

// Store writes the trace under key: TempFile, trace.Write, Promote. The
// write goes to a temporary file in the cache directory, is fsynced,
// and is renamed into place, so
// concurrent readers and crashed writers never observe a partial entry.
// The fsync before the rename closes the power-loss window where the
// rename is durable but the data blocks are not — without it a crash
// can leave a correctly-named entry full of zeros, which the CTRC
// footer would catch only at the next load, as corruption rather than
// a miss. A cache entry must be durable before it is visible.
func (c Cache) Store(key string, tr *trace.Trace) error {
	if !c.Enabled() {
		return nil
	}
	tmp, err := c.TempFile(key)
	if err != nil {
		return err
	}
	if err := trace.Write(tmp, tr); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("tracecache: encode %s: %w", key, err)
	}
	return c.Promote(tmp, key)
}

// OpenStream opens the raw CTRC file for key for streaming reads,
// after a full integrity pass (header shape, footer length, CRC). The
// second result is false on a miss. The caller owns the file and
// typically wraps it in a trace.StreamReader; the verify-then-stream
// split keeps the strict fail-loudly contract of Load without ever
// materializing the records.
func (c Cache) OpenStream(key string) (*os.File, bool, error) {
	if !c.Enabled() {
		return nil, false, nil
	}
	p := c.path(key)
	f, err := os.Open(p)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("tracecache: open %s: %w", p, err)
	}
	if err := trace.Verify(f); err != nil {
		f.Close()
		return nil, false, fmt.Errorf("tracecache: %s is unusable (delete it to re-simulate): %w", p, err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, false, fmt.Errorf("tracecache: rewind %s: %w", p, err)
	}
	return f, true, nil
}

// TempFile creates a temp file in the cache directory for a streaming
// capture destined for key. Pair with Promote (success) or discard
// with Close + os.Remove.
func (c Cache) TempFile(key string) (*os.File, error) {
	if err := os.MkdirAll(c.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("tracecache: create %s: %w", c.Dir, err)
	}
	tmp, err := os.CreateTemp(c.Dir, key+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("tracecache: temp file: %w", err)
	}
	return tmp, nil
}

// Promote installs a finished TempFile capture under key: fsync,
// close, rename, the durability ordering Store documents. The file
// must already hold a complete CTRC stream (trace.Write or
// trace.StreamWriter.Close done).
func (c Cache) Promote(tmp *os.File, key string) error {
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := fsyncTemp(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("tracecache: fsync temp: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("tracecache: close temp: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		return fmt.Errorf("tracecache: install %s: %w", key, err)
	}
	return nil
}
