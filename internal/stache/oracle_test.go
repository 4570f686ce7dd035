package stache

import (
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

// fixedOracle predicts a constant tuple for every block.
type fixedOracle struct {
	pred coherence.Tuple
	ok   bool
}

func (o fixedOracle) PredictNext(coherence.Addr) (coherence.Tuple, bool) { return o.pred, o.ok }

// TestSpeculativeGrantOnIdleBlock: a read miss to an idle block with a
// matching upgrade prediction is answered exclusively, and the later
// write hits without any message.
func TestSpeculativeGrantOnIdleBlock(t *testing.T) {
	l := newSystem(t, 4, DefaultOptions())
	addr := blockHomedAt(l.geom, 0)
	l.dirs[0].AttachSpeculation(fixedOracle{
		pred: coherence.Tuple{Sender: 1, Type: coherence.UpgradeReq}, ok: true,
	}, nil, SpecActions{RMW: true})

	l.access(1, addr, false) // read
	want := []coherence.MsgType{coherence.GetROReq, coherence.GetRWResp}
	if !eqTypes(l.types(), want) {
		t.Fatalf("flow = %v, want %v", l.types(), want)
	}
	if got := l.caches[1].State(addr); got != CacheReadWrite {
		t.Fatalf("P1 state = %v, want read-write", got)
	}
	l.reset()
	l.access(1, addr, true) // the predicted write: pure hit
	if len(l.log) != 0 {
		t.Fatalf("predicted write generated messages: %v", l.log)
	}
	if l.dirs[0].Speculations() != 1 {
		t.Errorf("Speculations = %d, want 1", l.dirs[0].Speculations())
	}
}

// TestSpeculativeGrantAfterFetchBack: the migratory case — the block
// is fetched back from a remote owner and the requestor is granted
// exclusive directly, skipping the upgrade round trip.
func TestSpeculativeGrantAfterFetchBack(t *testing.T) {
	l := newSystem(t, 4, DefaultOptions())
	addr := blockHomedAt(l.geom, 0)
	l.access(1, addr, false)
	l.access(1, addr, true) // P1 owns exclusive
	l.dirs[0].AttachSpeculation(fixedOracle{
		pred: coherence.Tuple{Sender: 2, Type: coherence.UpgradeReq}, ok: true,
	}, nil, SpecActions{RMW: true})
	l.reset()

	l.access(2, addr, false) // P2 reads; upgrade predicted
	want := []coherence.MsgType{
		coherence.GetROReq,
		coherence.InvalRWReq,
		coherence.InvalRWResp,
		coherence.GetRWResp, // exclusive instead of shared
	}
	if !eqTypes(l.types(), want) {
		t.Fatalf("flow = %v, want %v", l.types(), want)
	}
	l.reset()
	l.access(2, addr, true)
	if len(l.log) != 0 {
		t.Fatalf("upgrade round trip not eliminated: %v", l.log)
	}
}

// TestNoSpeculationWhenPredictionMismatches: predictions for a
// different node or type leave the protocol alone.
func TestNoSpeculationOnMismatch(t *testing.T) {
	cases := []fixedOracle{
		{}, // no prediction
		{pred: coherence.Tuple{Sender: 2, Type: coherence.UpgradeReq}, ok: true}, // wrong node
		{pred: coherence.Tuple{Sender: 1, Type: coherence.GetROReq}, ok: true},   // wrong type
	}
	for i, o := range cases {
		l := newSystem(t, 4, DefaultOptions())
		addr := blockHomedAt(l.geom, 0)
		l.dirs[0].AttachSpeculation(o, nil, SpecActions{RMW: true})
		l.access(1, addr, false)
		want := []coherence.MsgType{coherence.GetROReq, coherence.GetROResp}
		if !eqTypes(l.types(), want) {
			t.Errorf("case %d: flow = %v, want plain read", i, l.types())
		}
		if l.dirs[0].Speculations() != 0 {
			t.Errorf("case %d: speculated", i)
		}
	}
}

// TestNoSpeculationWithSharersPresent: the RMW action only fires when
// the requestor would be the sole holder; with other sharers the read
// is served shared.
func TestNoSpeculationWithSharers(t *testing.T) {
	l := newSystem(t, 4, DefaultOptions())
	addr := blockHomedAt(l.geom, 0)
	l.access(3, addr, false) // P3 is a sharer
	l.dirs[0].AttachSpeculation(fixedOracle{
		pred: coherence.Tuple{Sender: 1, Type: coherence.UpgradeReq}, ok: true,
	}, nil, SpecActions{RMW: true})
	l.reset()
	l.access(1, addr, false)
	want := []coherence.MsgType{coherence.GetROReq, coherence.GetROResp}
	if !eqTypes(l.types(), want) {
		t.Fatalf("flow = %v, want shared grant", l.types())
	}
	if got := l.caches[1].State(addr); got != CacheReadOnly {
		t.Errorf("P1 state = %v, want read-only", got)
	}
}

// TestMisSpeculationIsRecoveryFree: a wrong exclusive grant (the
// predicted upgrade never comes; another node reads instead) costs one
// extra invalidation but stays coherent — Section 4.3's first recovery
// class.
func TestMisSpeculationRecoveryFree(t *testing.T) {
	l := newSystem(t, 4, DefaultOptions())
	addr := blockHomedAt(l.geom, 0)
	l.dirs[0].AttachSpeculation(fixedOracle{
		pred: coherence.Tuple{Sender: 1, Type: coherence.UpgradeReq}, ok: true,
	}, nil, SpecActions{RMW: true})
	l.access(1, addr, false) // speculative exclusive grant to P1
	l.reset()
	// P1 never writes; P2 reads: the mis-speculation surfaces as a
	// fetch-back that a shared grant would have avoided.
	l.access(2, addr, false)
	want := []coherence.MsgType{
		coherence.GetROReq,
		coherence.InvalRWReq,
		coherence.InvalRWResp,
		coherence.GetROResp,
	}
	if !eqTypes(l.types(), want) {
		t.Fatalf("flow = %v, want %v", l.types(), want)
	}
	if got := l.caches[2].State(addr); got != CacheReadOnly {
		t.Errorf("P2 state = %v", got)
	}
	if got := l.caches[1].State(addr); got != CacheInvalid {
		t.Errorf("P1 state = %v", got)
	}
}

// TestNoSpeculationForHomeNode: home-node accesses never speculate
// (they are message-free already).
func TestNoSpeculationForHomeNode(t *testing.T) {
	l := newSystem(t, 4, DefaultOptions())
	addr := blockHomedAt(l.geom, 2)
	l.dirs[2].AttachSpeculation(fixedOracle{
		pred: coherence.Tuple{Sender: 2, Type: coherence.UpgradeReq}, ok: true,
	}, nil, SpecActions{RMW: true})
	l.access(2, addr, false)
	if len(l.log) != 0 || l.dirs[2].Speculations() != 0 {
		t.Errorf("home access speculated: log=%v", l.log)
	}
}
