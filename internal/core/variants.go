package core

import (
	"fmt"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

// This file implements the predictor variants the paper discusses but
// does not evaluate:
//
//   - Macroblock grouping (Section 7, citing Johnson & Hwu): "Cosmos'
//     memory requirement can perhaps be reduced by grouping predictions
//     for multiple cache blocks together". MacroConfig.BlockGroup folds
//     2^k consecutive blocks onto one MHR/PHT pair.
//   - Sender-agnostic histories (Section 3.5, footnote 2): "A more
//     aggressive predictor could ignore the senders for the
//     get_ro_request messages" — generalized here to ignoring senders
//     in the *history* (index) while still predicting full tuples.

// MacroConfig parameterizes a variant predictor.
type MacroConfig struct {
	// Base is the underlying Cosmos configuration.
	Base Config
	// BlockGroup is the number of consecutive cache blocks that share
	// one MHR/PHT (a power of two; 1 = plain Cosmos). The paper calls
	// groups of blocks "macroblocks".
	BlockGroup int
	// BlockBytes is the cache block size used to compute macroblock
	// boundaries.
	BlockBytes uint64
	// SenderAgnosticHistory indexes the PHT with message types only
	// (senders stripped from the history), shrinking the pattern space
	// at the cost of aliasing distinct sharers' patterns. Predictions
	// still carry full <sender, type> tuples.
	SenderAgnosticHistory bool
}

// Validate checks the variant parameters.
func (c MacroConfig) Validate() error {
	if err := c.Base.Validate(); err != nil {
		return err
	}
	if c.BlockGroup < 1 || c.BlockGroup&(c.BlockGroup-1) != 0 {
		return fmt.Errorf("core: BlockGroup %d must be a positive power of two", c.BlockGroup)
	}
	if c.BlockBytes == 0 || c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("core: BlockBytes %d must be a positive power of two", c.BlockBytes)
	}
	return nil
}

// MacroPredictor is a Cosmos variant with macroblock grouping and/or
// sender-agnostic history indexing. It exposes the same Observe
// interface as the base predictor so every evaluator accepts it.
type MacroPredictor struct {
	cfg  MacroConfig
	mask uint64
	p    *Predictor
}

// NewMacro creates a variant predictor.
func NewMacro(cfg MacroConfig) (*MacroPredictor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p, err := New(cfg.Base)
	if err != nil {
		return nil, err
	}
	return &MacroPredictor{
		cfg:  cfg,
		mask: ^(uint64(cfg.BlockGroup)*cfg.BlockBytes - 1),
		p:    p,
	}, nil
}

// Config returns the variant configuration.
func (m *MacroPredictor) Config() MacroConfig { return m.cfg }

// key folds an address onto its macroblock base.
func (m *MacroPredictor) key(addr coherence.Addr) coherence.Addr {
	return coherence.Addr(uint64(addr) & m.mask)
}

// strip removes the sender when the variant ignores senders in
// histories. The *training* of the PHT still records the true tuple as
// the prediction; only the index is coarsened, which we achieve by
// feeding the underlying predictor a two-step update: the history
// register stores stripped tuples while predictions return the last
// full tuple recorded for the pattern.
func (m *MacroPredictor) strip(t coherence.Tuple) coherence.Tuple {
	if !m.cfg.SenderAgnosticHistory {
		return t
	}
	return coherence.Tuple{Sender: 0, Type: t.Type}
}

// Predict returns the predicted next tuple for the block containing
// addr.
func (m *MacroPredictor) Predict(addr coherence.Addr) (coherence.Tuple, bool) {
	return m.p.Predict(m.key(addr))
}

// Update trains the predictor with the actual tuple.
func (m *MacroPredictor) Update(addr coherence.Addr, actual coherence.Tuple) {
	m.p.observeIndexed(m.key(addr), m.strip(actual), actual)
}

// Observe is the combined predict-then-update step, fused into one
// index probe like the base predictor's.
func (m *MacroPredictor) Observe(addr coherence.Addr, actual coherence.Tuple) (pred coherence.Tuple, predicted, correct bool) {
	return m.p.observeIndexed(m.key(addr), m.strip(actual), actual)
}

// MHREntries returns the (macro)block count tracked.
func (m *MacroPredictor) MHREntries() uint64 { return m.p.MHREntries() }

// PHTEntries returns the total pattern entries.
func (m *MacroPredictor) PHTEntries() uint64 { return m.p.PHTEntries() }

// ensureBlock returns the block's state, allocating a slab slot on
// first reference. A slot reclaimed by Reset keeps its PHT arrays, so
// the length-extension branch revives that capacity instead of
// discarding it with a zero blockState.
func (p *Predictor) ensureBlock(addr coherence.Addr) *blockState {
	if bs := p.block(addr); bs != nil {
		return bs
	}
	var slot int32
	switch {
	case len(p.free) > 0:
		slot = p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
	case len(p.slab) < cap(p.slab):
		slot = int32(len(p.slab))
		p.slab = p.slab[:slot+1]
	default:
		slot = int32(len(p.slab))
		//cosmosvet:allow hotpath slab growth is amortized; Reset retains the capacity
		p.slab = append(p.slab, blockState{})
	}
	p.index.Insert(uint64(addr), slot)
	return &p.slab[slot]
}

// train installs (or filter-adjusts) e's prediction toward payload,
// the Section 3.4 update rule shared by every predictor.
func (e *phtEntry) train(payload coherence.Tuple, filterMax int) {
	train(&e.pred, &e.counter, payload, filterMax)
}

// train is the Section 3.4 update rule, filtered by the Section 3.6
// saturating counter: a hit strengthens the counter up to filterMax, a
// miss weakens it, and only a miss at zero replaces the prediction.
// Predictors and banks store predictions and counters in different
// widths and all train through this one rule.
func train[P comparable, C int | uint16](pred *P, counter *C, payload P, filterMax C) {
	switch {
	case *pred == payload:
		if *counter < filterMax {
			*counter++
		}
	case *counter > 0:
		*counter--
	default:
		*pred = payload
	}
}

// observeIndexed is Observe with distinct index and payload tuples: the
// history register shifts in indexTuple (possibly sender-stripped)
// while the PHT entry trained for the current history predicts payload.
// It probes the address index once and the PHT once per message: the
// entry consulted for the prediction is the same entry the update rule
// trains. Update is this step with its results dropped.
func (p *Predictor) observeIndexed(addr coherence.Addr, indexTuple, payload coherence.Tuple) (pred coherence.Tuple, predicted, correct bool) {
	bits, err := tupleBits(indexTuple)
	if err != nil {
		panic(err)
	}
	bs := p.ensureBlock(addr)
	if bs.seen >= uint64(p.cfg.Depth) {
		if e := bs.pht.Find(bs.mhr); e != nil {
			pred, predicted = e.pred, true
			correct = pred == payload
			e.train(payload, p.cfg.FilterMax)
		} else {
			bs.pht.Insert(bs.mhr, phtEntry{pred: payload})
			p.phtEntries++
		}
	}
	bs.mhr = (bs.mhr<<16 | uint64(bits)) & p.mhrMask
	bs.seen++
	return pred, predicted, correct
}
