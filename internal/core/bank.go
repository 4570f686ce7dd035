package core

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/table"
)

// A Bank is the one Cosmos block store: it runs several
// configurations over one message stream and reports, for each,
// exactly what Cosmos with that configuration alone would: the same
// predictions, the same MHR count and the same PHT count. Tables 5-7
// evaluate eight configurations over the same traces; a bank pays one
// block lookup per message instead of eight, and one PHT probe per
// configured depth instead of one per configuration. A Predictor is a
// bank of one configuration.
//
// What the configurations share:
//
//   - the MHT, mapping a block to its state;
//   - one MHR per block, kept at the deepest configured depth, and its
//     message count. The depth-d history is the low d lanes of it;
//   - one PHT per block, holding the patterns of every configured
//     depth. The depth-d key is mhr & mask(d). Every tuple is encoded
//     into a nonzero 16-bit lane (message type 0 is invalid and
//     rejected), so a depth-d key has exactly d nonzero lanes and keys
//     of different depths never collide;
//   - each PHT entry, which holds one (prediction, counter) lane per
//     filter setting at its depth. A pattern's first sighting inserts
//     it for every filter at once: insertion does not depend on the
//     filter, only training does.
//
// A Bank is not safe for concurrent use.
type Bank struct {
	lay *Layout
	// index is the MHT: it maps a block address to its slot in slab.
	index table.Table[int32]
	slab  []bankBlock
	// free lists slab slots released by Forget for reuse.
	free []int32
	// phtEntries counts PHT entries by depth-1.
	phtEntries [MaxDepth]uint64
}

// BankLanes is how many distinct filter settings one bank holds per
// depth: the width of a bank PHT entry.
const BankLanes = 4

// bankLane is one filter setting's prediction, as 16 tuple bits, and
// its saturating noise-filter counter.
type bankLane struct {
	pred    uint16
	counter uint16
}

// bankEntry is one pattern's lanes, one per filter setting at the
// pattern's depth.
type bankEntry [BankLanes]bankLane

// bankBlock is one block's shared MHR and PHT.
type bankBlock struct {
	mhr  uint64
	seen uint64
	pht  table.Table[bankEntry]
}

// Layout is the plan a set of banks follows: which depths are
// configured, which filter lanes each holds, and which lane answers for
// each configuration. Compute it once per evaluation and share it
// between every bank of that evaluation; it is immutable.
type Layout struct {
	cfgs []Config
	// lane[i] is the lane answering for cfgs[i]: bit lane[i] of
	// Bank.Observe's result.
	lane   []int
	lanes  int
	depths []layoutDepth
	// mhrMask keeps the deepest configured history.
	mhrMask uint64
}

// layoutDepth is one configured depth: its key mask and its lanes,
// which are bits first..first+n-1 of Bank.Observe's result.
type layoutDepth struct {
	depth   int
	mask    uint64
	first   int
	n       int
	filters [BankLanes]uint16
}

// NewLayout plans a bank for cfgs. Equal configurations share a lane.
// It fails if a configuration is invalid or a depth has more than
// BankLanes distinct filter settings.
func NewLayout(cfgs []Config) (*Layout, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("core: a bank needs at least one configuration")
	}
	// filters[d] lists depth d's filter settings in order of first use.
	var filters [MaxDepth + 1][]int
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if !slices.Contains(filters[c.Depth], c.FilterMax) {
			if len(filters[c.Depth]) == BankLanes {
				return nil, fmt.Errorf("core: a bank holds at most %d filter settings per depth, depth %d has more", BankLanes, c.Depth)
			}
			filters[c.Depth] = append(filters[c.Depth], c.FilterMax)
		}
	}
	lay := &Layout{cfgs: slices.Clone(cfgs), lane: make([]int, len(cfgs))}
	var first [MaxDepth + 1]int
	for d := 1; d <= MaxDepth; d++ {
		if len(filters[d]) == 0 {
			continue
		}
		first[d] = lay.lanes
		ld := layoutDepth{depth: d, mask: depthMask(d), first: lay.lanes, n: len(filters[d])}
		for l, f := range filters[d] {
			ld.filters[l] = uint16(f)
		}
		lay.depths = append(lay.depths, ld)
		lay.lanes += ld.n
		lay.mhrMask = ld.mask
	}
	for i, c := range cfgs {
		lay.lane[i] = first[c.Depth] + slices.Index(filters[c.Depth], c.FilterMax)
	}
	return lay, nil
}

// depthMask keeps the low d tuples of a history.
func depthMask(d int) uint64 { return uint64(1)<<(16*d) - 1 }

// Configs returns the configurations the layout answers for, in the
// order given to NewLayout. The caller must not modify the slice.
func (l *Layout) Configs() []Config { return l.cfgs }

// Lane returns the lane answering for configuration i: the bit of
// Bank.Observe's result that reports its outcome.
func (l *Layout) Lane(i int) int { return l.lane[i] }

// Lanes returns the number of distinct lanes, at most
// MaxDepth*BankLanes.
func (l *Layout) Lanes() int { return l.lanes }

// Reset empties the bank and switches it to lay, keeping every
// allocation the previous use grew: the MHT's arrays, the slab's
// capacity and each slab slot's PHT arrays. The zero Bank becomes
// usable by a Reset. A reset bank is observationally identical to a
// new one.
func (b *Bank) Reset(lay *Layout) {
	b.lay = lay
	b.index.Reset()
	for i := range b.slab {
		b.slab[i].mhr = 0
		b.slab[i].seen = 0
		b.slab[i].pht.Reset()
	}
	b.slab = b.slab[:0]
	b.free = b.free[:0]
	b.phtEntries = [MaxDepth]uint64{}
}

// laneBits encodes a tuple for a history or a prediction. Beyond
// tupleBits' range checks it rejects message type 0: only a nonzero
// lane keeps the keys of different depths apart, and a zero prediction
// means "none".
func laneBits(t coherence.Tuple) uint16 {
	if t.Type == coherence.MsgInvalid {
		panic(fmt.Errorf("core: tuple %v has message type 0", t))
	}
	bits, err := tupleBits(t)
	if err != nil {
		panic(err)
	}
	return bits
}

// laneTuple decodes a lane back into its tuple; lane 0 decodes to the
// zero tuple.
func laneTuple(bits uint16) coherence.Tuple {
	return coherence.Tuple{Sender: coherence.NodeID(bits >> 4), Type: coherence.MsgType(bits & 0xf)}
}

// Observe is every configuration's predict-then-update step for one
// message (Sections 3.3 and 3.4). It returns the set of lanes whose
// prediction was correct: configuration i of the bank's layout was
// right iff bit Lane(i) is set. A missing prediction is a miss.
//
//cosmosvet:hotpath
func (b *Bank) Observe(addr coherence.Addr, actual coherence.Tuple) (correct uint32) {
	tb := laneBits(actual)
	correct, _ = b.observe(addr, tb, tb)
	return correct
}

// observe is the one per-message step every Cosmos predictor takes.
// The PHT entries of the current history are checked against, and
// trained toward, payload; the MHR then shifts in index. The two
// differ only for a sender-agnostic history (MacroPredictor), whose
// index is payload's type alone. pred is the lane-0 prediction of the
// deepest depth that had an entry, before training, and 0 when none
// did: for a one-configuration layout, that configuration's
// prediction. The step probes the MHT once and the PHT once per
// configured depth: the entry consulted is the entry trained.
func (b *Bank) observe(addr coherence.Addr, index, payload uint16) (correct uint32, pred uint16) {
	bs := b.ensureBlock(addr)
	for i := range b.lay.depths {
		ld := &b.lay.depths[i]
		if bs.seen < uint64(ld.depth) {
			break // depths ascend
		}
		key := bs.mhr & ld.mask
		e := bs.pht.Find(key)
		if e == nil {
			var fresh bankEntry
			for l := range fresh {
				fresh[l].pred = payload
			}
			bs.pht.Insert(key, fresh)
			b.phtEntries[ld.depth-1]++
			continue
		}
		pred = e[0].pred
		for l := 0; l < ld.n; l++ {
			ln := &e[l]
			if ln.pred == payload {
				correct |= 1 << (ld.first + l)
			}
			train(ln, payload, ld.filters[l])
		}
	}
	bs.mhr = (bs.mhr<<16 | uint64(index)) & b.lay.mhrMask
	bs.seen++
	return correct, pred
}

// train is the Section 3.4 update rule, filtered by the Section 3.6
// saturating counter: a hit strengthens the counter up to filterMax, a
// miss weakens it, and only a miss at zero replaces the prediction.
func train(ln *bankLane, payload, filterMax uint16) {
	switch {
	case ln.pred == payload:
		if ln.counter < filterMax {
			ln.counter++
		}
	case ln.counter > 0:
		ln.counter--
	default:
		ln.pred = payload
	}
}

// block returns the block's state, or nil if the block is untracked.
// The pointer is valid until the next block is added (slab growth may
// move the backing array), so callers use it within one operation and
// never retain it.
func (b *Bank) block(addr coherence.Addr) *bankBlock {
	if i := b.index.Find(uint64(addr)); i != nil {
		return &b.slab[*i]
	}
	return nil
}

// ensureBlock returns the block's state, allocating a slab slot on
// first reference; a slot kept by Reset revives its PHT arrays.
func (b *Bank) ensureBlock(addr coherence.Addr) *bankBlock {
	if bs := b.block(addr); bs != nil {
		return bs
	}
	var slot int32
	switch {
	case len(b.free) > 0:
		slot = b.free[len(b.free)-1]
		b.free = b.free[:len(b.free)-1]
	case len(b.slab) < cap(b.slab):
		slot = int32(len(b.slab))
		b.slab = b.slab[:slot+1]
	default:
		slot = int32(len(b.slab))
		//cosmosvet:allow hotpath slab growth is amortized; Reset retains the capacity
		b.slab = append(b.slab, bankBlock{})
	}
	b.index.Insert(uint64(addr), slot)
	return &b.slab[slot]
}

// Forget discards a block's history and patterns for every
// configuration (Predictor.Forget, Section 3.7).
func (b *Bank) Forget(addr coherence.Addr) {
	i := b.index.Find(uint64(addr))
	if i == nil {
		return
	}
	slot := *i
	b.index.Delete(uint64(addr))
	bs := &b.slab[slot]
	bs.pht.Each(func(key uint64, _ *bankEntry) {
		// A depth-d key's highest nonzero lane is lane d-1.
		b.phtEntries[(bits.Len64(key)+15)/16-1]--
	})
	*bs = bankBlock{}
	b.free = append(b.free, slot)
}

// MHREntries returns the number of blocks tracked, which every
// configuration shares.
func (b *Bank) MHREntries() uint64 { return uint64(b.index.Len()) }

// PHTEntries returns configuration i's PHT entry count: the patterns
// of its depth.
func (b *Bank) PHTEntries(i int) uint64 { return b.phtEntries[b.lay.cfgs[i].Depth-1] }
