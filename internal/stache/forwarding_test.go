package stache

import (
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

func forwardingSystem(t *testing.T, n int, halfMigratory bool) *loopback {
	t.Helper()
	opts := Options{HalfMigratory: halfMigratory, Forwarding: true}
	return newSystem(t, n, opts)
}

// TestForwardingWriteMiss reproduces the Section 2.1 Origin contrast
// with Figure 1: P1 stores to a block P2 holds exclusive. The data
// goes P2 -> P1 directly; only the ownership ack returns to the
// directory — three messages on the critical path instead of four.
func TestForwardingWriteMiss(t *testing.T) {
	l := forwardingSystem(t, 4, true)
	addr := blockHomedAt(l.geom, 0)
	l.access(2, addr, true) // P2 exclusive
	l.reset()

	l.access(1, addr, true)
	want := []coherence.MsgType{
		coherence.GetRWReq,    // P1 -> Dir
		coherence.InvalRWReq,  // Dir -> P2 (carrying the forward grant)
		coherence.GetRWResp,   // P2 -> P1: data direct
		coherence.InvalRWResp, // P2 -> Dir: ownership ack
	}
	if !eqTypes(l.types(), want) {
		t.Fatalf("flow = %v, want %v", l.types(), want)
	}
	// The data came from P2, not the home directory.
	if data := l.log[2]; data.Src != 2 || data.Dst != 1 {
		t.Fatalf("forwarded data = %v, want P2 -> P1", data)
	}
	if got := l.caches[1].State(addr); got != CacheReadWrite {
		t.Errorf("P1 state = %v", got)
	}
	if sh := l.dirs[0].Sharers(addr); len(sh) != 1 || sh[0] != 1 {
		t.Errorf("sharers = %v, want {P1}", sh)
	}
}

// TestForwardingReadMissHalfMigratory: the owner forwards a read-only
// copy and invalidates itself.
func TestForwardingReadMiss(t *testing.T) {
	l := forwardingSystem(t, 4, true)
	addr := blockHomedAt(l.geom, 0)
	l.access(2, addr, true)
	l.reset()

	l.access(1, addr, false)
	want := []coherence.MsgType{
		coherence.GetROReq,
		coherence.InvalRWReq,
		coherence.GetROResp,   // P2 -> P1 direct
		coherence.InvalRWResp, // P2 -> Dir
	}
	if !eqTypes(l.types(), want) {
		t.Fatalf("flow = %v, want %v", l.types(), want)
	}
	if got := l.caches[2].State(addr); got != CacheInvalid {
		t.Errorf("P2 state = %v, want invalid (half-migratory)", got)
	}
	if sh := l.dirs[0].Sharers(addr); len(sh) != 1 || sh[0] != 1 {
		t.Errorf("sharers = %v", sh)
	}
}

// TestForwardingReadMissDowngrade: the DASH-like variant downgrades
// the owner, who keeps a shared copy while forwarding.
func TestForwardingReadDowngrade(t *testing.T) {
	l := forwardingSystem(t, 4, false)
	addr := blockHomedAt(l.geom, 0)
	l.access(2, addr, true)
	l.reset()

	l.access(1, addr, false)
	want := []coherence.MsgType{
		coherence.GetROReq,
		coherence.DowngradeReq,
		coherence.GetROResp,
		coherence.DowngradeResp,
	}
	if !eqTypes(l.types(), want) {
		t.Fatalf("flow = %v, want %v", l.types(), want)
	}
	if got := l.caches[2].State(addr); got != CacheReadOnly {
		t.Errorf("P2 state = %v, want read-only", got)
	}
	if sh := l.dirs[0].Sharers(addr); len(sh) != 2 {
		t.Errorf("sharers = %v, want {P1,P2}", sh)
	}
}

// TestForwardingLocalRequestorGoesThroughDirectory: home-node accesses
// complete by callback, never by forwarded message.
func TestForwardingLocalRequestor(t *testing.T) {
	l := forwardingSystem(t, 4, true)
	addr := blockHomedAt(l.geom, 0)
	l.access(2, addr, true) // remote owner
	l.reset()
	l.access(0, addr, false) // the home node itself reads
	want := []coherence.MsgType{
		coherence.InvalRWReq,
		coherence.InvalRWResp, // plain fetch-back, no forward
	}
	if !eqTypes(l.types(), want) {
		t.Fatalf("flow = %v, want %v", l.types(), want)
	}
}

// TestForwardingUpgradeRace: a stale upgrade converted to a fetch is
// also forwarded (the requestor receives data from the previous owner).
func TestForwardingUpgradeRace(t *testing.T) {
	geom := coherence.MustGeometry(64, 256, 4)
	ds := &delaySender{}
	dir := NewDirectory(0, geom, ds, Options{HalfMigratory: true, Forwarding: true})
	addr := blockHomedAt(geom, 0)

	dir.Deliver(coherence.Msg{Src: 1, Dst: 0, Type: coherence.GetROReq, Addr: addr})
	ds.pop(t, coherence.GetROResp)
	dir.Deliver(coherence.Msg{Src: 2, Dst: 0, Type: coherence.GetRWReq, Addr: addr})
	ds.pop(t, coherence.InvalROReq)
	dir.Deliver(coherence.Msg{Src: 1, Dst: 0, Type: coherence.UpgradeReq, Addr: addr}) // queued, stale
	dir.Deliver(coherence.Msg{Src: 1, Dst: 0, Type: coherence.InvalROResp, Addr: addr})
	// P2's write was granted by the directory (sharers case: dir has
	// the data). The stale upgrade is then served by forwarding from P2.
	g := ds.pop(t, coherence.GetRWResp)
	if g.Dst != 2 {
		t.Fatalf("grant to %v, want P2", g.Dst)
	}
	fwd := ds.pop(t, coherence.InvalRWReq)
	if fwd.Dst != 2 || fwd.Requestor != 1 || fwd.Grant != coherence.GetRWResp {
		t.Fatalf("forward request = %+v", fwd)
	}
}

// TestForwardingSpeculationInteraction: the RMW oracle must not fire
// for forwarded transactions (the owner already sent a read-only copy).
func TestForwardingDisablesLateSpeculation(t *testing.T) {
	l := forwardingSystem(t, 4, true)
	addr := blockHomedAt(l.geom, 0)
	l.dirs[0].AttachSpeculation(fixedOracle{
		pred: coherence.Tuple{Sender: 1, Type: coherence.UpgradeReq}, ok: true,
	}, nil, SpecActions{RMW: true})
	l.access(2, addr, true)
	l.reset()
	l.access(1, addr, false) // read with predicted upgrade: forwarded anyway
	types := l.types()
	if types[2] != coherence.GetROResp {
		t.Fatalf("forwarded grant = %v, want get_ro_response (no late exclusive upgrade)", types[2])
	}
	// The idle-block speculative grant still works under forwarding.
	addr2 := blockHomedAt(l.geom, 0) + 64
	l.reset()
	l.access(1, addr2, false)
	want := []coherence.MsgType{coherence.GetROReq, coherence.GetRWResp}
	if !eqTypes(l.types(), want) {
		t.Fatalf("idle speculation flow = %v, want %v", l.types(), want)
	}
}
