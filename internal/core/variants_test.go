package core

import (
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

func TestMacroConfigValidation(t *testing.T) {
	good := MacroConfig{Base: Config{Depth: 1}, BlockGroup: 4, BlockBytes: 64}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []MacroConfig{
		{Base: Config{Depth: 0}, BlockGroup: 1, BlockBytes: 64},
		{Base: Config{Depth: 1}, BlockGroup: 0, BlockBytes: 64},
		{Base: Config{Depth: 1}, BlockGroup: 3, BlockBytes: 64},
		{Base: Config{Depth: 1}, BlockGroup: 4, BlockBytes: 0},
		{Base: Config{Depth: 1}, BlockGroup: 4, BlockBytes: 100},
	}
	for i, c := range bad {
		if _, err := NewMacro(c); err == nil {
			t.Errorf("case %d: NewMacro accepted %+v", i, c)
		}
	}
}

// TestMacroGroupingFoldsBlocks: with BlockGroup=4, four consecutive
// blocks share history state, so training on one block predicts on its
// neighbour — and MHR entries count macroblocks, not blocks.
func TestMacroGroupingFoldsBlocks(t *testing.T) {
	m, err := NewMacro(MacroConfig{Base: Config{Depth: 1}, BlockGroup: 4, BlockBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	a, b := tup(1, coherence.GetROReq), tup(2, coherence.GetRWReq)
	// Train the pattern a->b on block 0.
	for i := 0; i < 3; i++ {
		m.Observe(coherence.Addr(0x000), a)
		m.Observe(coherence.Addr(0x000), b)
	}
	// Block 0xc0 is in the same 256-byte macroblock: prediction carries
	// over.
	m.Observe(coherence.Addr(0x0c0), a)
	if pred, ok, correct := m.Observe(coherence.Addr(0x0c0), b); !ok || !correct {
		t.Errorf("Observe on grouped neighbour predicted %v, %v; want %v", pred, ok, b)
	}
	// Block 0x100 is the next macroblock: no carry-over.
	m.Observe(coherence.Addr(0x100), a)
	if pred, ok, _ := m.Observe(coherence.Addr(0x100), b); ok {
		t.Errorf("prediction %v leaked across macroblock boundary", pred)
	}
	// Blocks 0x000 and 0x0c0 share one MHR; 0x100 has its own.
	if m.MHREntries() != 2 {
		t.Errorf("MHREntries = %d, want 2 macroblocks", m.MHREntries())
	}
}

// TestMacroGroupOne: BlockGroup=1 behaves exactly like the base
// predictor on the same stream.
func TestMacroGroupOneMatchesBase(t *testing.T) {
	m, err := NewMacro(MacroConfig{Base: Config{Depth: 2}, BlockGroup: 1, BlockBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	base := MustNew(Config{Depth: 2})
	stream := []struct {
		addr coherence.Addr
		t    coherence.Tuple
	}{}
	seq := []coherence.Tuple{
		tup(1, coherence.GetROReq), tup(2, coherence.GetROReq),
		tup(3, coherence.InvalROResp), tup(1, coherence.UpgradeReq),
	}
	for i := 0; i < 40; i++ {
		stream = append(stream, struct {
			addr coherence.Addr
			t    coherence.Tuple
		}{coherence.Addr(uint64(i%3) * 64), seq[i%len(seq)]})
	}
	for _, s := range stream {
		p1, ok1, c1 := m.Observe(s.addr, s.t)
		p2, ok2, c2 := base.Observe(s.addr, s.t)
		if p1 != p2 || ok1 != ok2 || c1 != c2 {
			t.Fatalf("variant diverged from base at %v", s)
		}
	}
	if m.PHTEntries() != base.PHTEntries() {
		t.Errorf("PHT entries differ: %d vs %d", m.PHTEntries(), base.PHTEntries())
	}
}

// TestSenderAgnosticHistory: two consumers' reads alias onto one
// history pattern, so the variant re-learns across them (footnote 2's
// aggressive predictor), while the base keeps them distinct.
func TestSenderAgnosticHistory(t *testing.T) {
	m, err := NewMacro(MacroConfig{
		Base: Config{Depth: 1}, BlockGroup: 1, BlockBytes: 64,
		SenderAgnosticHistory: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const addr = coherence.Addr(0x40)
	readP1 := tup(1, coherence.GetROReq)
	readP2 := tup(2, coherence.GetROReq)
	resp := tup(3, coherence.InvalRWResp)

	// Train: any read (regardless of sender) is followed by resp.
	m.Observe(addr, readP1)
	m.Observe(addr, resp)
	m.Observe(addr, readP2) // history indexes the same stripped pattern
	if pred, ok, correct := m.Observe(addr, resp); !ok || !correct {
		t.Errorf("sender-agnostic prediction = %v, %v; want %v", pred, ok, resp)
	}
	// The base predictor has no entry for P2's read history.
	base := MustNew(Config{Depth: 1})
	base.Observe(addr, readP1)
	base.Observe(addr, resp)
	base.Observe(addr, readP2)
	if pred, ok, _ := base.Observe(addr, resp); ok {
		t.Errorf("base predictor predicted %v for an unseen history", pred)
	}
}

// TestSenderAgnosticPayload: the prediction payload keeps the sender
// even though histories drop it.
func TestSenderAgnosticPayload(t *testing.T) {
	m, _ := NewMacro(MacroConfig{
		Base: Config{Depth: 1}, BlockGroup: 1, BlockBytes: 64,
		SenderAgnosticHistory: true,
	})
	const addr = coherence.Addr(0x40)
	m.Observe(addr, tup(1, coherence.GetROReq))
	m.Observe(addr, tup(7, coherence.InvalRWResp))
	m.Observe(addr, tup(2, coherence.GetROReq))
	pred, ok, _ := m.Observe(addr, tup(5, coherence.InvalRWResp))
	if !ok || pred.Sender != 7 || pred.Type != coherence.InvalRWResp {
		t.Errorf("payload = %v, %v; want full tuple <P7, inval_rw_response>", pred, ok)
	}
}

func TestPAgValidation(t *testing.T) {
	if _, err := NewPAg(Config{Depth: 0}); err == nil {
		t.Error("NewPAg accepted bad config")
	}
}

// TestPAgSharesPatterns: two blocks with identical histories reinforce
// one global entry — a block that never saw the pattern itself still
// gets the prediction.
func TestPAgSharesPatterns(t *testing.T) {
	p, err := NewPAg(Config{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, b := coherence.Addr(0x40), coherence.Addr(0x4000)
	x, y := tup(1, coherence.GetROReq), tup(2, coherence.InvalROResp)
	// Train x->y on block a only.
	for i := 0; i < 3; i++ {
		p.Update(a, x)
		p.Update(a, y)
	}
	// Block b sees x once: the global table already predicts y.
	p.Update(b, x)
	if pred, ok := p.Predict(b); !ok || pred != y {
		t.Errorf("PAg cross-block prediction = %v, %v; want %v", pred, ok, y)
	}
	if p.PHTEntries() >= 4 {
		t.Errorf("PHTEntries = %d; global table should be tiny", p.PHTEntries())
	}
}

// TestPAgAliasingDestructive: blocks with the same history but
// different next tuples fight over one entry, which per-block PAp
// (Cosmos) keeps separate.
func TestPAgAliasing(t *testing.T) {
	pag, _ := NewPAg(Config{Depth: 1})
	pap := MustNew(Config{Depth: 1})
	a, b := coherence.Addr(0x40), coherence.Addr(0x4000)
	x := tup(1, coherence.GetROReq)
	ya, yb := tup(2, coherence.InvalROResp), tup(3, coherence.UpgradeReq)

	var pagHits, papHits int
	for i := 0; i < 20; i++ {
		for _, blk := range []struct {
			addr coherence.Addr
			next coherence.Tuple
		}{{a, ya}, {b, yb}} {
			if _, _, ok := pag.Observe(blk.addr, x); ok {
				pagHits++
			}
			pag.Update(blk.addr, blk.next)
			if _, _, ok := pap.Observe(blk.addr, x); ok {
				papHits++
			}
			pap.Update(blk.addr, blk.next)
		}
	}
	_ = pagHits
	// The interesting half: after x, PAg's shared entry was last trained
	// by whichever block went second, so it mispredicts block a's
	// follower; Cosmos predicts both correctly once warm.
	pag.Update(a, x)
	if pred, ok := pag.Predict(a); ok && pred == ya {
		t.Error("PAg should be aliased here (entry owned by block b's pattern)")
	}
	pap.Update(a, x)
	if pred, ok := pap.Predict(a); !ok || pred != ya {
		t.Errorf("PAp prediction = %v, %v; want %v", pred, ok, ya)
	}
}
