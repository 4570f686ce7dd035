package core

import (
	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/table"
)

// PAg is the design-space neighbour of Cosmos in Yeh & Patt's
// taxonomy: per-address history registers (like Cosmos/PAp) indexing
// one *global* pattern history table shared by all blocks, instead of
// a per-block PHT. The paper picks PAp ("a modified version of Yeh and
// Patt's two-level adaptive branch predictor called PAp"); PAg is the
// obvious cheaper alternative — one table instead of thousands — whose
// cost is aliasing: two blocks with the same recent history compete
// for one prediction slot.
//
// Under Stache the aliasing is partially benign (many blocks of one
// data structure share signatures, so they reinforce each other's
// entries) and partially destructive (producer-consumer and migratory
// blocks with identical histories but different next senders fight).
// The PApVsPAg experiment quantifies the trade.
type PAg struct {
	cfg     Config
	mhrMask uint64
	// mhrs holds per-block history registers (first level, as in PAp).
	mhrs table.Table[pagMHR]
	// pht is the single shared pattern table (second level), one
	// prediction lane per pattern.
	pht table.Table[bankLane]
}

type pagMHR struct {
	mhr  uint64
	seen uint64
}

// NewPAg creates a PAg predictor with the same configuration knobs as
// Cosmos.
func NewPAg(cfg Config) (*PAg, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &PAg{cfg: cfg, mhrMask: depthMask(cfg.Depth)}, nil
}

// Predict returns the shared-table prediction for the block's current
// history.
func (p *PAg) Predict(addr coherence.Addr) (coherence.Tuple, bool) {
	m := p.mhrs.Find(uint64(addr))
	if m == nil || m.seen < uint64(p.cfg.Depth) {
		return coherence.Tuple{}, false
	}
	e := p.pht.Find(m.mhr)
	if e == nil {
		return coherence.Tuple{}, false
	}
	return laneTuple(e.pred), true
}

// Update trains the shared table and shifts the block's history.
func (p *PAg) Update(addr coherence.Addr, actual coherence.Tuple) {
	tb := laneBits(actual)
	m := p.mhrs.Find(uint64(addr))
	if m == nil {
		m = p.mhrs.Insert(uint64(addr), pagMHR{})
	}
	if m.seen >= uint64(p.cfg.Depth) {
		if e := p.pht.Find(m.mhr); e != nil {
			train(e, tb, uint16(p.cfg.FilterMax))
		} else {
			p.pht.Insert(m.mhr, bankLane{pred: tb})
		}
	}
	m.mhr = (m.mhr<<16 | uint64(tb)) & p.mhrMask
	m.seen++
}

// Observe is the combined predict-then-train step (the
// directed.MessagePredictor contract).
func (p *PAg) Observe(addr coherence.Addr, actual coherence.Tuple) (pred coherence.Tuple, predicted, correct bool) {
	pred, predicted = p.Predict(addr)
	correct = predicted && pred == actual
	p.Update(addr, actual)
	return pred, predicted, correct
}

// MHREntries returns the number of tracked blocks.
func (p *PAg) MHREntries() uint64 { return uint64(p.mhrs.Len()) }

// PHTEntries returns the shared table's size — the memory the variant
// saves relative to PAp shows up here.
func (p *PAg) PHTEntries() uint64 { return uint64(p.pht.Len()) }
