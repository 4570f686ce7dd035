package core

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

// Snapshot / Restore give a predictor durable state: a long-lived
// prediction service (internal/serve) must survive a crash without
// losing what it has learned, so the in-memory tables — the MHT, each
// block's MHR, and the per-block PHTs — serialize to a canonical byte
// form and load back into an observationally identical predictor.
//
// The encoding is canonical, not positional: blocks are emitted in
// ascending address order and PHT entries in ascending pattern order,
// regardless of the hash tables' internal layout. Two predictors in the
// same logical state therefore snapshot to identical bytes even if
// their slabs and probe sequences differ (one grew organically, one was
// restored), which is what makes snapshots content-addressable and
// lets crash-recovery tests compare state by digest.
//
// Layout (little-endian), versioned by the enclosing CPSS container
// (internal/serve), which also owns the length + CRC-32C footer:
//
//	depth u8 | filterMax u32 | blockCount u32 |
//	per block, ascending addr:
//	  addr u64 | mhr u64 | seen u64 | phtCount u32 |
//	  per entry, ascending pattern:
//	    pattern u64 | sender u16 | type u8 | counter u32

const (
	snapBlockHeaderSize = 8 + 8 + 8 + 4
	snapEntrySize       = 8 + 2 + 1 + 4
)

// phtPair is one pattern and its lane-0 entry, pulled out of a PHT
// for canonical emission.
type phtPair struct {
	key uint64
	ln  bankLane
}

// snapScratch holds the block addresses, and one block's PHT pairs,
// that AppendSnapshot sorts into canonical order.
type snapScratch struct {
	addrs []uint64
	pairs []phtPair
}

// SnapshotSize returns the exact length of the predictor's canonical
// snapshot, so an encoder can reserve its space before writing it.
func (p *Predictor) SnapshotSize() int {
	return 9 + snapBlockHeaderSize*int(p.MHREntries()) + snapEntrySize*int(p.PHTEntries())
}

// AppendSnapshot appends the canonical serialization of the predictor's
// state to buf and returns the extended slice. It grows buf at most
// once, to SnapshotSize more bytes, and sorts through scratch slices
// the predictor keeps, so a buffer with that much spare capacity takes
// no allocation. Snapshot is the allocating convenience wrapper.
func (p *Predictor) AppendSnapshot(buf []byte) []byte {
	n, size := len(buf), p.SnapshotSize()
	buf = slices.Grow(buf, size)[:n+size]
	out := buf[n:]
	out[0] = byte(p.cfg.Depth)
	binary.LittleEndian.PutUint32(out[1:], uint32(p.cfg.FilterMax))
	binary.LittleEndian.PutUint32(out[5:], uint32(p.MHREntries()))
	off := 9

	if p.snap == nil {
		p.snap = &snapScratch{}
	}
	sc := p.snap
	sc.addrs = sc.addrs[:0]
	p.bank.index.Each(func(a uint64, _ *int32) { sc.addrs = append(sc.addrs, a) })
	slices.Sort(sc.addrs)

	for _, a := range sc.addrs {
		bs := p.bank.block(coherence.Addr(a))
		sc.pairs = sc.pairs[:0]
		bs.pht.Each(func(k uint64, e *bankEntry) { sc.pairs = append(sc.pairs, phtPair{k, e[0]}) })
		slices.SortFunc(sc.pairs, func(x, y phtPair) int { return cmp.Compare(x.key, y.key) })
		binary.LittleEndian.PutUint64(out[off:], a)
		binary.LittleEndian.PutUint64(out[off+8:], bs.mhr)
		binary.LittleEndian.PutUint64(out[off+16:], bs.seen)
		binary.LittleEndian.PutUint32(out[off+24:], uint32(len(sc.pairs)))
		off += snapBlockHeaderSize
		for _, pr := range sc.pairs {
			binary.LittleEndian.PutUint64(out[off:], pr.key)
			binary.LittleEndian.PutUint16(out[off+8:], pr.ln.pred>>4)
			out[off+10] = byte(pr.ln.pred & 0xf)
			binary.LittleEndian.PutUint32(out[off+11:], uint32(pr.ln.counter))
			off += snapEntrySize
		}
	}
	return buf
}

// Snapshot returns the canonical serialization of the predictor's
// state.
func (p *Predictor) Snapshot() []byte { return p.AppendSnapshot(nil) }

// StateDigest returns the SHA-256 of the canonical snapshot: equal
// digests mean observationally identical predictors.
func (p *Predictor) StateDigest() [sha256.Size]byte {
	return sha256.Sum256(p.Snapshot())
}

// Restore replaces the predictor's configuration and state with the
// contents of a snapshot produced by Snapshot/AppendSnapshot. The input
// is validated field by field — a corrupted or truncated snapshot is
// rejected with a descriptive error and leaves the receiver untouched.
// Restore reuses the receiver's allocations where it can (the same
// contract as Reset).
func (p *Predictor) Restore(data []byte) error {
	cfg, blocks, err := parseSnapshot(data)
	if err != nil {
		return err
	}
	if err := p.Reset(cfg); err != nil {
		return err
	}
	for _, b := range blocks {
		bs := p.bank.ensureBlock(b.addr)
		bs.mhr = b.mhr
		bs.seen = b.seen
		for _, pr := range b.pairs {
			bs.pht.Insert(pr.key, bankEntry{pr.ln})
		}
		p.bank.phtEntries[cfg.Depth-1] += uint64(len(b.pairs))
	}
	return nil
}

// snapBlock is one parsed block of a snapshot.
type snapBlock struct {
	addr  coherence.Addr
	mhr   uint64
	seen  uint64
	pairs []phtPair
}

// parseSnapshot decodes and validates a canonical snapshot without
// touching any predictor.
func parseSnapshot(data []byte) (Config, []snapBlock, error) {
	fail := func(format string, args ...any) (Config, []snapBlock, error) {
		return Config{}, nil, fmt.Errorf("core: snapshot: "+format, args...)
	}
	if len(data) < 9 {
		return fail("truncated header: %d bytes", len(data))
	}
	cfg := Config{
		Depth:     int(data[0]),
		FilterMax: int(binary.LittleEndian.Uint32(data[1:])),
	}
	if err := cfg.Validate(); err != nil {
		return fail("invalid config: %v", err)
	}
	mhrMask := depthMask(cfg.Depth)
	nBlocks := binary.LittleEndian.Uint32(data[5:])
	off := 9
	// Never size an allocation from an untrusted count (the trace codec
	// lesson): a corrupt header must fail at a short read, not attempt a
	// multi-gigabyte make. Each declared block costs at least a header.
	if uint64(nBlocks)*snapBlockHeaderSize > uint64(len(data)-off) {
		return fail("block count %d exceeds the %d remaining bytes", nBlocks, len(data)-off)
	}
	blocks := make([]snapBlock, 0, nBlocks)
	var prevAddr coherence.Addr
	for i := uint32(0); i < nBlocks; i++ {
		if len(data)-off < snapBlockHeaderSize {
			return fail("truncated at block %d of %d", i, nBlocks)
		}
		b := snapBlock{
			addr: coherence.Addr(binary.LittleEndian.Uint64(data[off:])),
			mhr:  binary.LittleEndian.Uint64(data[off+8:]),
			seen: binary.LittleEndian.Uint64(data[off+16:]),
		}
		nEntries := binary.LittleEndian.Uint32(data[off+24:])
		off += snapBlockHeaderSize
		if i > 0 && b.addr <= prevAddr {
			return fail("block %d address %#x out of canonical order", i, uint64(b.addr))
		}
		prevAddr = b.addr
		if b.mhr&^mhrMask != 0 {
			return fail("block %#x: MHR %#x exceeds depth-%d mask", uint64(b.addr), b.mhr, cfg.Depth)
		}
		// Every tuple shifted in is a nonzero lane, so the lanes that
		// will form a pattern (the last min(seen, depth) messages) must
		// be nonzero: a zero one would make a key that Forget counts
		// at the wrong depth.
		if !lanesNonzero(b.mhr, int(min(b.seen, uint64(cfg.Depth)))) {
			return fail("block %#x: MHR %#x has an empty tuple lane", uint64(b.addr), b.mhr)
		}
		if b.seen < uint64(cfg.Depth) && nEntries > 0 {
			return fail("block %#x: %d PHT entries but only %d messages seen", uint64(b.addr), nEntries, b.seen)
		}
		if uint64(nEntries)*snapEntrySize > uint64(len(data)-off) {
			return fail("block %#x: entry count %d exceeds the %d remaining bytes", uint64(b.addr), nEntries, len(data)-off)
		}
		b.pairs = make([]phtPair, 0, nEntries)
		var prevKey uint64
		for j := uint32(0); j < nEntries; j++ {
			if len(data)-off < snapEntrySize {
				return fail("truncated at block %#x entry %d of %d", uint64(b.addr), j, nEntries)
			}
			key := binary.LittleEndian.Uint64(data[off:])
			pred := coherence.Tuple{
				Sender: coherence.NodeID(int16(binary.LittleEndian.Uint16(data[off+8:]))),
				Type:   coherence.MsgType(data[off+10]),
			}
			counter := int(binary.LittleEndian.Uint32(data[off+11:]))
			off += snapEntrySize
			if j > 0 && key <= prevKey {
				return fail("block %#x: pattern %#x out of canonical order", uint64(b.addr), key)
			}
			prevKey = key
			if key&^mhrMask != 0 {
				return fail("block %#x: pattern %#x exceeds depth-%d mask", uint64(b.addr), key, cfg.Depth)
			}
			if !lanesNonzero(key, cfg.Depth) {
				return fail("block %#x: pattern %#x has an empty tuple lane", uint64(b.addr), key)
			}
			if pred.Sender < 0 || pred.Sender >= 1<<12 || !pred.Type.Valid() {
				return fail("block %#x: invalid prediction %v", uint64(b.addr), pred)
			}
			if counter < 0 || counter > cfg.FilterMax {
				return fail("block %#x: counter %d outside [0, %d]", uint64(b.addr), counter, cfg.FilterMax)
			}
			b.pairs = append(b.pairs, phtPair{key: key, ln: bankLane{pred: laneBits(pred), counter: uint16(counter)}})
		}
		blocks = append(blocks, b)
	}
	if off != len(data) {
		return fail("%d trailing bytes after %d blocks", len(data)-off, nBlocks)
	}
	return cfg, blocks, nil
}

// lanesNonzero reports whether the low n 16-bit lanes of v are all
// nonzero.
func lanesNonzero(v uint64, n int) bool {
	for i := 0; i < n; i++ {
		if uint16(v>>(16*i)) == 0 {
			return false
		}
	}
	return true
}
