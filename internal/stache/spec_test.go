package stache

import (
	"fmt"
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

// These tests drive every row of the declared transition tables
// (spec.go) through the live handlers. The static transition analyzer
// proves the dispatch switches cover the spec's message axis; these
// runtime drivers pin the state axis and the dispositions themselves:
// Handled and Dropped rows must not panic (and Dropped must leave the
// state untouched), Queued rows must land in the busy queue, and
// Rejected rows must panic — so a row cannot rot into wishful
// documentation without a test failing.

// deliverPanics runs f and reports whether it panicked.
func deliverPanics(f func()) (panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	f()
	return false
}

// dirIn builds a directory whose entry for the returned address is in
// the given stable state, with the canonical context for receiving
// msg: the busy state expecting an invalidation ack is reached by
// invalidating a sharer for InvalROResp, by a half-migratory
// fetch-back for InvalRWResp, and by a DASH-style downgrade for
// DowngradeResp.
func dirIn(t *testing.T, state EntryState, msg coherence.MsgType) (*Directory, *delaySender, coherence.Addr) {
	t.Helper()
	geom := coherence.MustGeometry(64, 256, 4)
	ds := &delaySender{}
	opts := DefaultOptions()
	if msg == coherence.DowngradeResp {
		opts.HalfMigratory = false
	}
	dir := NewDirectory(0, geom, ds, opts)
	addr := blockHomedAt(geom, 0)
	deliver := func(src coherence.NodeID, mt coherence.MsgType) {
		dir.Deliver(coherence.Msg{Src: src, Dst: 0, Type: mt, Addr: addr})
	}
	switch state {
	case EntryIdle:
	case EntryShared:
		deliver(1, coherence.GetROReq)
	case EntryExclusive:
		deliver(1, coherence.GetRWReq)
	case EntryBusy:
		if msg == coherence.InvalROResp {
			deliver(1, coherence.GetROReq) // P1 becomes a sharer
			deliver(2, coherence.GetRWReq) // P2's write invalidates P1
		} else {
			deliver(1, coherence.GetRWReq) // P1 becomes the owner
			deliver(2, coherence.GetROReq) // P2's read fetches the block back
		}
	}
	if got := dirEntryState(dir, addr); got != state {
		t.Fatalf("setup for %v left the entry %v", state, got)
	}
	ds.queue = nil // discard setup traffic
	return dir, ds, addr
}

// dirEntryState reads the entry's stable state (a missing entry is
// idle by definition).
func dirEntryState(d *Directory, addr coherence.Addr) EntryState {
	info, ok := d.Entry(addr)
	if !ok {
		return EntryIdle
	}
	return info.State
}

// TestDirectorySpecTable drives all DirectoryTransitions rows.
func TestDirectorySpecTable(t *testing.T) {
	for _, tr := range DirectoryTransitions {
		tr := tr
		t.Run(fmt.Sprintf("%v_%v_%v", tr.Msg, tr.State, tr.On), func(t *testing.T) {
			dir, _, addr := dirIn(t, tr.State, tr.Msg)
			src := coherence.NodeID(3)
			if !tr.Msg.IsRequest() {
				src = 1 // the node the busy setup invalidated (if any)
			}
			queuedBefore := 0
			if info, ok := dir.Entry(addr); ok {
				queuedBefore = info.Queued
			}
			panicked := deliverPanics(func() {
				dir.Deliver(coherence.Msg{Src: src, Dst: 0, Type: tr.Msg, Addr: addr})
			})
			switch tr.On {
			case DispRejected:
				if !panicked {
					t.Fatalf("(%v, %v) delivered without panic, spec says rejected", tr.State, tr.Msg)
				}
			case DispQueued:
				if panicked {
					t.Fatalf("(%v, %v) panicked, spec says queued", tr.State, tr.Msg)
				}
				info, _ := dir.Entry(addr)
				if info.Queued != queuedBefore+1 {
					t.Fatalf("(%v, %v): queued %d -> %d, spec says the request queues",
						tr.State, tr.Msg, queuedBefore, info.Queued)
				}
			case DispHandled:
				if panicked {
					t.Fatalf("(%v, %v) panicked, spec says handled", tr.State, tr.Msg)
				}
			default:
				t.Fatalf("directory spec row (%v, %v) declares unexpected disposition %v", tr.State, tr.Msg, tr.On)
			}
		})
	}
}

// cacheIn builds a cache (node 1, home 0) whose line for the returned
// address is in the row's state with the canonical context for
// receiving the row's message: responses find their matching pending
// transaction, invalidations on an invalid line ride the
// eviction/writeback race, and rejected rows use the plain stable
// state with nothing outstanding.
func cacheIn(t *testing.T, tr CacheTransition) (*Cache, *delaySender, coherence.Addr) {
	t.Helper()
	geom := coherence.MustGeometry(64, 256, 4)
	ds := &delaySender{}
	opts := DefaultOptions()
	opts.Speculation = true // SpecPush rows need a speculative cache
	c := NewCache(1, geom, ds, nil, opts)
	addr := blockHomedAt(geom, 0)
	fromHome := func(mt coherence.MsgType) {
		c.Deliver(coherence.Msg{Src: 0, Dst: 1, Type: mt, Addr: addr})
	}
	mkRO := func() {
		c.Access(addr, false, func() {})
		fromHome(coherence.GetROResp)
	}
	mkRW := func() {
		c.Access(addr, true, func() {})
		fromHome(coherence.GetRWResp)
	}
	stable := func() {
		switch tr.State {
		case CacheReadOnly:
			mkRO()
		case CacheReadWrite:
			mkRW()
		}
	}
	switch {
	case tr.On == DispRejected || tr.On == DispDropped,
		tr.Msg == coherence.InvalROReq,
		tr.Msg == coherence.SpecPush:
		stable()
	case tr.Msg == coherence.GetROResp: // read miss outstanding
		c.Access(addr, false, func() {})
	case tr.Msg == coherence.GetRWResp:
		if tr.State == CacheReadOnly {
			mkRO() // upgrade the directory converted to a fetch
		}
		c.Access(addr, true, func() {})
	case tr.Msg == coherence.UpgradeResp:
		mkRO()
		c.Access(addr, true, func() {}) // upgrade outstanding
		if tr.State == CacheInvalid {
			fromHome(coherence.InvalROReq) // the upgrade race
		}
	default: // InvalRWReq, DowngradeReq, WritebackAck handled rows
		mkRW()
		if tr.State == CacheInvalid {
			c.Evict(addr) // writeback outstanding
		}
	}
	if got := c.State(addr); got != tr.State {
		t.Fatalf("setup for (%v, %v) left the line %v", tr.State, tr.Msg, got)
	}
	ds.queue = nil // discard setup traffic
	return c, ds, addr
}

// TestCacheSpecTable drives all CacheTransitions rows.
func TestCacheSpecTable(t *testing.T) {
	for _, tr := range CacheTransitions {
		tr := tr
		t.Run(fmt.Sprintf("%v_%v_%v", tr.Msg, tr.State, tr.On), func(t *testing.T) {
			c, ds, addr := cacheIn(t, tr)
			panicked := deliverPanics(func() {
				c.Deliver(coherence.Msg{Src: 0, Dst: 1, Type: tr.Msg, Addr: addr})
			})
			switch tr.On {
			case DispRejected:
				if !panicked {
					t.Fatalf("(%v, %v) delivered without panic, spec says rejected", tr.State, tr.Msg)
				}
			case DispDropped:
				if panicked {
					t.Fatalf("(%v, %v) panicked, spec says dropped", tr.State, tr.Msg)
				}
				if got := c.State(addr); got != tr.State {
					t.Fatalf("(%v, %v): state changed to %v, spec says the message is dropped",
						tr.State, tr.Msg, got)
				}
				if len(ds.queue) != 0 {
					t.Fatalf("(%v, %v): dropped message provoked replies %v", tr.State, tr.Msg, ds.queue)
				}
			case DispHandled:
				if panicked {
					t.Fatalf("(%v, %v) panicked, spec says handled", tr.State, tr.Msg)
				}
			default:
				t.Fatalf("cache spec row (%v, %v) declares unexpected disposition %v", tr.State, tr.Msg, tr.On)
			}
		})
	}
}
