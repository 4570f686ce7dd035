package stache

import (
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

// delaySender queues outbound messages so a test can deliver them in a
// chosen order, forcing the races that the asynchronous machine only
// produces occasionally.
type delaySender struct {
	queue []coherence.Msg
}

func (d *delaySender) Send(msg coherence.Msg) { d.queue = append(d.queue, msg) }

// pop removes and returns the first queued message of the given type
// (panics if absent — test bug).
func (d *delaySender) pop(t *testing.T, mt coherence.MsgType) coherence.Msg {
	t.Helper()
	for i, m := range d.queue {
		if m.Type == mt {
			d.queue = append(d.queue[:i], d.queue[i+1:]...)
			return m
		}
	}
	t.Fatalf("no queued %v in %v", mt, d.queue)
	return coherence.Msg{}
}

// TestUpgradeRaceConvertsToFetch drives the classic upgrade race by
// hand: P1 holds a shared copy and sends upgrade_request; before it is
// processed the directory serves P2's get_rw_request, invalidating P1.
// P1's stale upgrade must then be answered with data (get_rw_response),
// not upgrade_response.
func TestUpgradeRaceConvertsToFetch(t *testing.T) {
	geom := coherence.MustGeometry(64, 256, 4)
	ds := &delaySender{}
	dir := NewDirectory(0, geom, ds, DefaultOptions())
	addr := blockHomedAt(geom, 0)

	// P1 reads: becomes a sharer.
	dir.Deliver(coherence.Msg{Src: 1, Dst: 0, Type: coherence.GetROReq, Addr: addr})
	ds.pop(t, coherence.GetROResp)

	// P2's write miss arrives first: directory invalidates P1.
	dir.Deliver(coherence.Msg{Src: 2, Dst: 0, Type: coherence.GetRWReq, Addr: addr})
	inv := ds.pop(t, coherence.InvalROReq)
	if inv.Dst != 1 {
		t.Fatalf("invalidation sent to %v, want P1", inv.Dst)
	}
	// P1's upgrade_request arrives while the directory is busy: queued.
	dir.Deliver(coherence.Msg{Src: 1, Dst: 0, Type: coherence.UpgradeReq, Addr: addr})
	if len(ds.queue) != 0 {
		t.Fatalf("queued request processed while busy: %v", ds.queue)
	}
	// P1 acknowledges the invalidation; P2's transaction completes and
	// the stale upgrade is served as a fetch.
	dir.Deliver(coherence.Msg{Src: 1, Dst: 0, Type: coherence.InvalROResp, Addr: addr})

	grant := ds.pop(t, coherence.GetRWResp)
	if grant.Dst != 2 {
		t.Fatalf("first grant to %v, want P2", grant.Dst)
	}
	// Serving P1's queued upgrade requires invalidating P2 first.
	inv2 := ds.pop(t, coherence.InvalRWReq)
	if inv2.Dst != 2 {
		t.Fatalf("fetch-back sent to %v, want P2", inv2.Dst)
	}
	dir.Deliver(coherence.Msg{Src: 2, Dst: 0, Type: coherence.InvalRWResp, Addr: addr})
	grant2 := ds.pop(t, coherence.GetRWResp)
	if grant2.Dst != 1 {
		t.Fatalf("converted upgrade granted to %v, want P1", grant2.Dst)
	}
	if len(ds.queue) != 0 {
		t.Fatalf("unexpected leftover messages: %v", ds.queue)
	}
	// P1 ends up the exclusive owner.
	if sh := dir.Sharers(addr); len(sh) != 1 || sh[0] != 1 {
		t.Fatalf("sharers = %v, want {P1}", sh)
	}
}

// TestBusyDirectoryQueuesFIFO: requests arriving while an entry is
// busy are served in arrival order.
func TestBusyDirectoryQueuesFIFO(t *testing.T) {
	geom := coherence.MustGeometry(64, 256, 8)
	ds := &delaySender{}
	dir := NewDirectory(0, geom, ds, DefaultOptions())
	addr := blockHomedAt(geom, 0)

	// P1 takes the block exclusive.
	dir.Deliver(coherence.Msg{Src: 1, Dst: 0, Type: coherence.GetRWReq, Addr: addr})
	ds.pop(t, coherence.GetRWResp)

	// P2's read starts a fetch-back; P3 and P4 queue behind it.
	dir.Deliver(coherence.Msg{Src: 2, Dst: 0, Type: coherence.GetROReq, Addr: addr})
	ds.pop(t, coherence.InvalRWReq)
	dir.Deliver(coherence.Msg{Src: 3, Dst: 0, Type: coherence.GetROReq, Addr: addr})
	dir.Deliver(coherence.Msg{Src: 4, Dst: 0, Type: coherence.GetROReq, Addr: addr})

	dir.Deliver(coherence.Msg{Src: 1, Dst: 0, Type: coherence.InvalRWResp, Addr: addr})
	// All three reads are granted, in order.
	for _, want := range []coherence.NodeID{2, 3, 4} {
		g := ds.pop(t, coherence.GetROResp)
		if g.Dst != want {
			t.Fatalf("grant to %v, want %v", g.Dst, want)
		}
	}
	if sh := dir.Sharers(addr); len(sh) != 3 {
		t.Fatalf("sharers = %v", sh)
	}
	_, _, _, queued := dir.Stats()
	if queued != 2 {
		t.Errorf("queued = %d, want 2", queued)
	}
}

// TestWritebackRaceWithInvalidation: the directory asks for a block
// back while the cache's writeback is already in flight; both sides
// settle without wedging or duplicated data.
func TestWritebackRaceWithInvalidation(t *testing.T) {
	geom := coherence.MustGeometry(64, 256, 4)
	ds := &delaySender{}
	dir := NewDirectory(0, geom, ds, DefaultOptions())
	addr := blockHomedAt(geom, 0)

	dir.Deliver(coherence.Msg{Src: 1, Dst: 0, Type: coherence.GetRWReq, Addr: addr})
	ds.pop(t, coherence.GetRWResp)

	// P2 read misses: the directory starts a fetch-back from P1.
	dir.Deliver(coherence.Msg{Src: 2, Dst: 0, Type: coherence.GetROReq, Addr: addr})
	ds.pop(t, coherence.InvalRWReq)
	// Meanwhile P1 had evicted the block: its writeback arrives first
	// and is queued behind the busy entry; then the (crossed)
	// invalidation ack arrives.
	dir.Deliver(coherence.Msg{Src: 1, Dst: 0, Type: coherence.WritebackReq, Addr: addr})
	dir.Deliver(coherence.Msg{Src: 1, Dst: 0, Type: coherence.InvalRWResp, Addr: addr})

	// P2 gets its copy; the stale writeback is acknowledged harmlessly.
	g := ds.pop(t, coherence.GetROResp)
	if g.Dst != 2 {
		t.Fatalf("grant to %v", g.Dst)
	}
	ds.pop(t, coherence.WritebackAck)
	if len(ds.queue) != 0 {
		t.Fatalf("leftovers: %v", ds.queue)
	}
	if sh := dir.Sharers(addr); len(sh) != 1 || sh[0] != 2 {
		t.Fatalf("sharers = %v, want {P2}", sh)
	}
}

// TestUpgradeFromIdleAndExclusive: degenerate upgrade arrivals are
// served as writes.
func TestUpgradeDegenerateCases(t *testing.T) {
	geom := coherence.MustGeometry(64, 256, 4)
	ds := &delaySender{}
	dir := NewDirectory(0, geom, ds, DefaultOptions())
	addr := blockHomedAt(geom, 0)

	// Upgrade to an idle block: grant data.
	dir.Deliver(coherence.Msg{Src: 1, Dst: 0, Type: coherence.UpgradeReq, Addr: addr})
	if g := ds.pop(t, coherence.GetRWResp); g.Dst != 1 {
		t.Fatalf("grant = %v", g)
	}
	// Upgrade by the current exclusive owner (degenerate): grant.
	dir.Deliver(coherence.Msg{Src: 1, Dst: 0, Type: coherence.UpgradeReq, Addr: addr})
	ds.pop(t, coherence.GetRWResp)
	if sh := dir.Sharers(addr); len(sh) != 1 || sh[0] != 1 {
		t.Fatalf("sharers = %v", sh)
	}
}
