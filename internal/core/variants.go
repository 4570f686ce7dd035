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
	// hist keeps the bits of a tuple the history register stores: all
	// of them, or the type alone for a sender-agnostic history.
	hist uint16
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
	m := &MacroPredictor{
		cfg:  cfg,
		mask: ^(uint64(cfg.BlockGroup)*cfg.BlockBytes - 1),
		hist: 0xffff,
		p:    p,
	}
	if cfg.SenderAgnosticHistory {
		m.hist = 0xf
	}
	return m, nil
}

// Config returns the variant configuration.
func (m *MacroPredictor) Config() MacroConfig { return m.cfg }

// Observe is the combined predict-then-update step on the block's
// macroblock. The PHT entry for the current history is trained toward
// the full tuple, so predictions keep their sender; only the history
// register, which indexes the PHT, drops it when the variant is
// sender-agnostic.
func (m *MacroPredictor) Observe(addr coherence.Addr, actual coherence.Tuple) (pred coherence.Tuple, predicted, correct bool) {
	tb := laneBits(actual)
	_, pb := m.p.bank.observe(coherence.Addr(uint64(addr)&m.mask), tb&m.hist, tb)
	return outcome(pb, tb)
}

// MHREntries returns the (macro)block count tracked.
func (m *MacroPredictor) MHREntries() uint64 { return m.p.MHREntries() }

// PHTEntries returns the total pattern entries.
func (m *MacroPredictor) PHTEntries() uint64 { return m.p.PHTEntries() }
