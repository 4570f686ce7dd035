package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/table"
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

// phtPair is one (pattern, entry) pair pulled out of a PHT for
// canonical emission.
type phtPair struct {
	key uint64
	e   phtEntry
}

// pairs returns a PHT's contents sorted by pattern.
func pairs(t *table.Table[phtEntry]) []phtPair {
	out := make([]phtPair, 0, t.Len())
	t.Each(func(k uint64, e *phtEntry) { out = append(out, phtPair{k, *e}) })
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// AppendSnapshot appends the canonical serialization of the predictor's
// state to buf and returns the extended slice. Snapshot is the
// allocating convenience wrapper.
func (p *Predictor) AppendSnapshot(buf []byte) []byte {
	buf = append(buf, byte(p.cfg.Depth))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.cfg.FilterMax))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.index.Len()))

	addrs := make([]uint64, 0, p.index.Len())
	p.index.Each(func(a uint64, _ *int32) { addrs = append(addrs, a) })
	slices.Sort(addrs)

	for _, a := range addrs {
		bs := &p.slab[*p.index.Find(a)]
		buf = binary.LittleEndian.AppendUint64(buf, a)
		buf = binary.LittleEndian.AppendUint64(buf, bs.mhr)
		buf = binary.LittleEndian.AppendUint64(buf, bs.seen)
		prs := pairs(&bs.pht)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(prs)))
		for _, pr := range prs {
			buf = binary.LittleEndian.AppendUint64(buf, pr.key)
			buf = binary.LittleEndian.AppendUint16(buf, uint16(pr.e.pred.Sender))
			buf = append(buf, byte(pr.e.pred.Type))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(pr.e.counter))
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
		bs := p.ensureBlock(b.addr)
		bs.mhr = b.mhr
		bs.seen = b.seen
		for _, pr := range b.pairs {
			bs.pht.Insert(pr.key, pr.e)
			p.phtEntries++
		}
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
	mhrMask := (uint64(1) << (16 * cfg.Depth)) - 1
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
			if pred.Sender < 0 || pred.Sender >= 1<<12 || !pred.Type.Valid() {
				return fail("block %#x: invalid prediction %v", uint64(b.addr), pred)
			}
			if counter < 0 || counter > cfg.FilterMax {
				return fail("block %#x: counter %d outside [0, %d]", uint64(b.addr), counter, cfg.FilterMax)
			}
			b.pairs = append(b.pairs, phtPair{key: key, e: phtEntry{pred: pred, counter: counter}})
		}
		blocks = append(blocks, b)
	}
	if off != len(data) {
		return fail("%d trailing bytes after %d blocks", len(data)-off, nBlocks)
	}
	return cfg, blocks, nil
}
