// Package core implements Cosmos, the coherence message predictor that
// is the paper's primary contribution (Section 3).
//
// Cosmos is a two-level adaptive predictor patterned on Yeh and Patt's
// PAp branch predictor, with three differences the paper enumerates
// (Section 3.2): the first-level table is indexed by cache block
// address instead of branch PC; the prediction is a multi-bit
// <sender, message-type> tuple instead of one taken/not-taken bit; and
// second-level entries hold a prediction (optionally guarded by a
// saturating counter used as a noise filter, Section 3.6) instead of a
// two-bit counter FSM.
//
// Structure (Figure 3):
//
//   - The Message History Table (MHT) maps each cache block address to
//     a Message History Register (MHR) holding the <sender, type>
//     tuples of the last `depth` messages received for that block.
//   - Per MHR, a Pattern History Table (PHT) maps an MHR value (the
//     history pattern) to the tuple predicted to arrive next.
//
// Prediction (Section 3.3): index the MHT with the block address, use
// the MHR contents to index that block's PHT, return the entry if one
// exists. Update (Section 3.4): write the actual tuple as the new
// prediction for the current history (subject to the filter), then
// shift the tuple into the MHR.
//
// One Predictor instance corresponds to the predictor sitting beside
// one cache module or one directory module; allocate one per node and
// side, as Section 3.2 prescribes.
package core

import (
	"fmt"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/table"
)

// MaxDepth is the largest supported MHR depth. Histories are packed
// into a 64-bit key of 16-bit tuples (12 bits of sender, 4 bits of
// message type — exactly the 2-byte tuple encoding Table 7 assumes),
// so four tuples fit. The paper evaluates depths 1-4 (Table 5).
const MaxDepth = 4

// Config parameterizes a Cosmos predictor.
type Config struct {
	// Depth is the MHR depth: how many past messages index the PHT.
	// Must be in [1, MaxDepth].
	Depth int
	// FilterMax is the saturating counter maximum for the noise filter
	// of Section 3.6. 0 disables filtering (a single mis-prediction
	// replaces the prediction); 1 reproduces the paper's single-bit
	// counter (replace after two consecutive mis-predictions); Table 6
	// evaluates 0, 1 and 2.
	FilterMax int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Depth < 1 || c.Depth > MaxDepth {
		return fmt.Errorf("core: depth %d out of range [1,%d]", c.Depth, MaxDepth)
	}
	if c.FilterMax < 0 {
		return fmt.Errorf("core: negative filter maximum %d", c.FilterMax)
	}
	return nil
}

// tupleBits packs a tuple into 16 bits: 12 bits of sender, 4 of type.
// This is the hardware encoding Table 7's overhead model assumes
// ("tuple size of two bytes (12 bits for processors and 4 bits for
// coherence message types)").
func tupleBits(t coherence.Tuple) (uint16, error) {
	if t.Sender < 0 || t.Sender >= 1<<12 {
		//cosmosvet:allow hotpath error construction on the reject path; callers panic on it
		return 0, fmt.Errorf("core: sender %d does not fit in 12 bits", t.Sender)
	}
	if t.Type >= 1<<4 {
		//cosmosvet:allow hotpath error construction on the reject path; callers panic on it
		return 0, fmt.Errorf("core: message type %d does not fit in 4 bits", t.Type)
	}
	return uint16(t.Sender)<<4 | uint16(t.Type), nil
}

// phtEntry is one pattern-history entry: the predicted tuple plus the
// saturating noise-filter counter (Section 3.6).
type phtEntry struct {
	pred    coherence.Tuple
	counter int
}

// blockState is one MHR and its PHT.
type blockState struct {
	// mhr holds the last depth tuples, packed; most recent in the low
	// 16 bits. Only meaningful once seen >= depth.
	mhr uint64
	// seen counts messages received for this block.
	seen uint64
	// pht maps a packed history pattern to its entry.
	pht table.Table[phtEntry]
}

// Predictor is one Cosmos predictor instance. It is not safe for
// concurrent use; the simulated machine is single-threaded.
//
// Block states live in one slab indexed through the address table, not
// behind per-block pointers: the evaluator walks millions of messages
// over thousands of blocks, and keeping the states contiguous removes
// an allocation per block plus a cache miss per access.
type Predictor struct {
	cfg     Config
	mhrMask uint64
	// index is the MHT: it maps a block address to its slot in slab.
	index table.Table[int32]
	slab  []blockState
	// free lists slab slots released by Forget for reuse.
	free []int32

	phtEntries uint64

	// snap is AppendSnapshot's sort scratch, allocated on first use:
	// most predictors (the evaluator makes one per node and side) never
	// snapshot, and a pointer keeps them in their allocation size class.
	snap *snapScratch
}

// New creates a predictor.
func New(cfg Config) (*Predictor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Predictor{cfg: cfg, mhrMask: (uint64(1) << (16 * cfg.Depth)) - 1}, nil
}

// block returns the state for addr, or nil if the block is untracked.
// The pointer is valid until the next block is added (slab growth may
// move the backing array), so callers use it within one operation and
// never retain it.
func (p *Predictor) block(addr coherence.Addr) *blockState {
	if i := p.index.Find(uint64(addr)); i != nil {
		return &p.slab[*i]
	}
	return nil
}

// Reset returns the predictor to its freshly-constructed state for
// cfg, as if New(cfg) had been called — but retains every allocation
// the previous use grew: the address index's arrays, the slab's
// capacity, and each slab slot's PHT arrays. The evaluator's per-worker
// predictor pool depends on this: re-evaluating similar traces reaches
// a steady state with no per-evaluation allocation at all. A reset
// predictor is observationally identical to a new one; the sharded
// evaluation equivalence tests pin that.
func (p *Predictor) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	p.cfg = cfg
	p.mhrMask = (uint64(1) << (16 * cfg.Depth)) - 1
	p.index.Reset()
	for i := range p.slab {
		p.slab[i].mhr = 0
		p.slab[i].seen = 0
		p.slab[i].pht.Reset()
	}
	p.slab = p.slab[:0]
	p.free = p.free[:0]
	p.phtEntries = 0
	return nil
}

// MustNew is New for constant configurations; it panics on error.
func MustNew(cfg Config) *Predictor {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Config returns the predictor's configuration.
func (p *Predictor) Config() Config { return p.cfg }

// Predict returns the predicted <sender, type> of the next incoming
// message for the block containing addr (the caller block-aligns
// addresses; Cosmos treats the address as an opaque key). ok is false
// when Cosmos has no prediction: the block is unknown, fewer than
// depth messages have been seen, or the current history pattern has no
// PHT entry yet.
//
//cosmosvet:hotpath
func (p *Predictor) Predict(addr coherence.Addr) (pred coherence.Tuple, ok bool) {
	bs := p.block(addr)
	if bs == nil || bs.seen < uint64(p.cfg.Depth) {
		return coherence.Tuple{}, false
	}
	e := bs.pht.Find(bs.mhr)
	if e == nil {
		return coherence.Tuple{}, false
	}
	return e.pred, true
}

// Update trains the predictor with the actual next message for the
// block: it installs (or filter-adjusts) the PHT entry for the current
// history and shifts the tuple into the MHR (Section 3.4). PHTs are
// allocated lazily, so blocks with fewer protocol references than the
// MHR depth never own one (the Table 7 accounting convention).
//
//cosmosvet:hotpath
func (p *Predictor) Update(addr coherence.Addr, actual coherence.Tuple) {
	p.observeIndexed(addr, actual, actual)
}

// Observe is the combined predict-then-update step a hardware
// predictor performs on every message reception: it returns what
// Cosmos would have predicted for this arrival, whether a prediction
// existed, and whether it was correct, then trains on the actual
// tuple. It is equivalent to Predict followed by Update but probes the
// address index and the PHT once instead of twice — the trace
// evaluators spend most of their time here.
//
//cosmosvet:hotpath
func (p *Predictor) Observe(addr coherence.Addr, actual coherence.Tuple) (pred coherence.Tuple, predicted, correct bool) {
	return p.observeIndexed(addr, actual, actual)
}

// History returns the tuples currently in the block's MHR, oldest
// first. It returns fewer than depth tuples while the register is
// still filling.
func (p *Predictor) History(addr coherence.Addr) []coherence.Tuple {
	bs := p.block(addr)
	if bs == nil {
		return nil
	}
	n := int(bs.seen)
	if n > p.cfg.Depth {
		n = p.cfg.Depth
	}
	out := make([]coherence.Tuple, n)
	for i := 0; i < n; i++ {
		bits := uint16(bs.mhr >> (16 * (n - 1 - i)))
		out[i] = coherence.Tuple{
			Sender: coherence.NodeID(bits >> 4),
			Type:   coherence.MsgType(bits & 0xf),
		}
	}
	return out
}

// Forget discards all state for a block: its MHR contents and its
// PHT. This models the implementation Section 3.7 warns about, where
// the first-level table is merged with cache block state and a
// replacement loses the block's history ("this may lead to a loss of
// Cosmos' history information when cache blocks are replaced").
// Stand-alone Cosmos tables never need it; the replacement experiment
// quantifies what merging would cost.
func (p *Predictor) Forget(addr coherence.Addr) {
	i := p.index.Find(uint64(addr))
	if i == nil {
		return
	}
	slot := *i
	p.index.Delete(uint64(addr))
	bs := &p.slab[slot]
	p.phtEntries -= uint64(bs.pht.Len())
	*bs = blockState{}
	p.free = append(p.free, slot)
}

// MHREntries returns the number of blocks tracked (MHT size): blocks
// that received at least one message.
func (p *Predictor) MHREntries() uint64 { return uint64(p.index.Len()) }

// PHTEntries returns the total number of pattern-history entries
// across all blocks.
func (p *Predictor) PHTEntries() uint64 { return p.phtEntries }

// PHTEntriesFor returns the PHT size of one block.
func (p *Predictor) PHTEntriesFor(addr coherence.Addr) int {
	bs := p.block(addr)
	if bs == nil {
		return 0
	}
	return bs.pht.Len()
}

// MemoryStats is the Table 7 accounting for one or more predictors.
type MemoryStats struct {
	MHREntries uint64
	PHTEntries uint64
}

// Add accumulates another predictor's counters (Table 7 aggregates all
// predictors of a run).
func (m *MemoryStats) Add(p *Predictor) {
	m.MHREntries += p.MHREntries()
	m.PHTEntries += p.PHTEntries()
}

// Ratio is total PHT entries / total MHR entries (Table 7's "Ratio").
func (m MemoryStats) Ratio() float64 {
	if m.MHREntries == 0 {
		return 0
	}
	return float64(m.PHTEntries) / float64(m.MHREntries)
}

// Overhead returns Table 7's "Ovhd": the average per-block predictor
// memory as a percentage of a blockBytes-sized cache block, using the
// paper's formula
//
//	Ovhd = tupleSize * (depth + Ratio*(depth+1)) * 100 / blockBytes %
//
// with tupleSize = 2 bytes. The paper uses blockBytes = 128.
func (m MemoryStats) Overhead(depth int, blockBytes int) float64 {
	const tupleSize = 2.0
	return tupleSize * (float64(depth) + m.Ratio()*float64(depth+1)) * 100 / float64(blockBytes)
}
