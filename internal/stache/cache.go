package stache

import (
	"fmt"
	"sort"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

// cacheLine is the per-block cache-controller state for one remote
// block cached at this node.
type cacheLine struct {
	state   CacheState
	pending pendingKind
	// done unblocks the processor access that started the outstanding
	// transaction.
	done func()
	// afterWriteback re-issues an access that arrived while the
	// line's writeback was still in flight.
	afterWriteback func()
	// spec marks a read-only copy that arrived by spec_push and has not
	// yet been touched by the processor. A speculative copy is never
	// processor-visible until the first real access *claims* it (which
	// verifies the prediction); an invalidation before that point
	// discards it as if it never existed.
	spec bool
}

// Cache is the cache-controller half of the protocol at one node. It
// caches blocks whose home is a *different* node; accesses to blocks
// homed locally are routed to the node's own Directory (Stache folds
// directory pages into the local cache, Section 5.1).
//
// By default (Options.CacheBlocks == 0) the cache never replaces, as
// Stache's remote-data cache never does; lines accumulate for the
// whole run and the map is the "part of local memory used as a
// cache". With a positive CacheBlocks the cache becomes a bounded
// set-associative structure with LRU replacement, for studying the
// replacement-induced predictor history loss Section 3.7 discusses.
type Cache struct {
	node    coherence.NodeID
	geom    coherence.Geometry
	sender  Sender
	local   *Directory // directory co-located at this node
	observe func(coherence.Msg)
	lines   blocks[cacheLine]

	// Replacement state (nil sets when unbounded). Each set holds the
	// resident block addresses in LRU order (front = coldest).
	assoc   int
	numSets int
	sets    [][]coherence.Addr

	// stats
	loads, stores     uint64
	loadMisses        uint64
	storeMisses       uint64
	upgradeMisses     uint64
	invalidationsRecv uint64
	evictions         uint64

	// Speculation machinery (inert unless Options.Speculation and an
	// attached gate).
	spec         bool
	gate         Gate
	draining     bool
	specClaims   uint64
	specDiscards uint64
}

// NewCache creates the cache controller for node. local must be the
// directory controller co-located at the same node. observe may be nil.
func NewCache(node coherence.NodeID, geom coherence.Geometry, sender Sender, local *Directory, opts Options, observe func(coherence.Msg)) *Cache {
	if observe == nil {
		observe = func(coherence.Msg) {}
	}
	c := &Cache{
		node:    node,
		geom:    geom,
		sender:  sender,
		local:   local,
		observe: observe,
		spec:    opts.Speculation,
	}
	if opts.CacheBlocks > 0 {
		assoc := opts.CacheAssoc
		if assoc <= 0 {
			assoc = 1
		}
		if assoc > opts.CacheBlocks {
			assoc = opts.CacheBlocks
		}
		c.assoc = assoc
		c.numSets = opts.CacheBlocks / assoc
		c.sets = make([][]coherence.Addr, c.numSets)
	}
	return c
}

// Evictions returns how many lines replacement has pushed out.
func (c *Cache) Evictions() uint64 { return c.evictions }

// AttachGate wires the speculation governor into this cache so
// claimed and discarded pushed copies are scored (SpecForward
// outcomes). The DSI action also consults the same gate, but from
// internal/speculate — the cache itself takes no speculative actions.
func (c *Cache) AttachGate(g Gate) { c.gate = g }

// BeginDrain tells the cache the workload is over: spec_push messages
// still in flight are dropped on arrival instead of installing fresh
// speculative copies while the machine reconciles and drains.
func (c *Cache) BeginDrain() { c.draining = true }

// Spec reports whether addr is held as an unclaimed speculative copy.
func (c *Cache) Spec(addr coherence.Addr) bool {
	l := c.lines.get(c.geom.Block(addr))
	return l != nil && l.spec
}

// SpecStats returns (pushed copies claimed by a real access, pushed
// copies discarded unclaimed).
func (c *Cache) SpecStats() (claims, discards uint64) {
	return c.specClaims, c.specDiscards
}

// DiscardSpec drops an unclaimed speculative copy as if the push never
// happened, scoring it as a misprediction. Used by the end-of-run
// reconciler; a no-op if the line is not speculative.
func (c *Cache) DiscardSpec(addr coherence.Addr) {
	addr = c.geom.Block(addr)
	l := c.lines.get(addr)
	if l == nil || !l.spec {
		return
	}
	l.spec = false
	l.state = CacheInvalid
	c.specDiscards++
	if c.gate != nil {
		c.gate.Record(SpecForward, addr, false)
	}
}

// CorruptSpec forcibly plants an unclaimed speculative read-only copy,
// bypassing the protocol. Like CorruptState it exists only so
// invariant tests and the cosmos-chaos spec-dangling self-check can
// verify that leaked speculative state is detected.
func (c *Cache) CorruptSpec(addr coherence.Addr) {
	l := c.line(c.geom.Block(addr))
	l.state = CacheReadOnly
	l.spec = true
}

// claimSpec converts a speculative copy into a real one on the first
// processor access, which is the moment the producer-push prediction
// is proven right.
func (c *Cache) claimSpec(addr coherence.Addr, l *cacheLine) {
	if !l.spec {
		return
	}
	l.spec = false
	c.specClaims++
	if c.gate != nil {
		c.gate.Record(SpecForward, addr, true)
	}
}

// setOf returns the set index for a block address.
func (c *Cache) setOf(addr coherence.Addr) int {
	return int(c.geom.BlockIndex(addr) % uint64(c.numSets))
}

// touch marks addr most-recently-used in its set.
func (c *Cache) touch(addr coherence.Addr) {
	if c.sets == nil {
		return
	}
	set := c.sets[c.setOf(addr)]
	for i, a := range set {
		if a == addr {
			copy(set[i:], set[i+1:])
			set[len(set)-1] = addr
			return
		}
	}
}

// release frees addr's residency slot (the line was invalidated or
// evicted).
func (c *Cache) release(addr coherence.Addr) {
	if c.sets == nil {
		return
	}
	si := c.setOf(addr)
	set := c.sets[si]
	for i, a := range set {
		if a == addr {
			c.sets[si] = append(set[:i], set[i+1:]...)
			return
		}
	}
}

// reserve makes room for addr in its set, evicting the least recently
// used victim if necessary, and marks addr resident and MRU. It must
// be called before a fetch is issued so the slot exists when the data
// arrives.
func (c *Cache) reserve(addr coherence.Addr) {
	if c.sets == nil {
		return
	}
	si := c.setOf(addr)
	for _, a := range c.sets[si] {
		if a == addr {
			c.touch(addr)
			return
		}
	}
	// Evict until there is room. Victims with an outstanding
	// transaction (only writebacks can be in flight for resident
	// lines) are skipped; if every line is pinned the set temporarily
	// over-fills rather than wedging the protocol.
	for len(c.sets[si]) >= c.assoc {
		evicted := false
		for _, victim := range c.sets[si] {
			if l := c.lines.get(victim); l != nil && l.pending != pendNone {
				continue
			}
			c.evictions++
			c.Evict(victim) // also releases the slot
			evicted = true
			break
		}
		if !evicted {
			break
		}
	}
	c.sets[si] = append(c.sets[si], addr)
}

// State returns the stable state of block addr in this cache. Blocks
// homed locally report their state from the directory's point of view.
func (c *Cache) State(addr coherence.Addr) CacheState {
	addr = c.geom.Block(addr)
	if c.geom.Home(addr) == c.node {
		return c.local.homeState(addr)
	}
	l := c.lines.get(addr)
	if l == nil {
		return CacheInvalid
	}
	return l.state
}

// LineCount returns how many remote blocks this cache has ever held.
func (c *Cache) LineCount() int { return c.lines.len() }

// PendingLine describes one outstanding cache-side transaction, for
// stall diagnostics.
type PendingLine struct {
	Addr coherence.Addr
	// Kind is the transaction kind ("fetch-ro", "fetch-rw", "upgrade",
	// "writeback").
	Kind string
	// State is the line's current stable state.
	State CacheState
}

// PendingLines returns every line with an outstanding transaction,
// ordered by address (deterministic for diagnostics and tests).
func (c *Cache) PendingLines() []PendingLine {
	var out []PendingLine
	c.lines.each(func(addr coherence.Addr, l *cacheLine) {
		if l.pending != pendNone {
			out = append(out, PendingLine{Addr: addr, Kind: l.pending.String(), State: l.state})
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Pending reports whether block addr has an outstanding cache-side
// transaction, and of what kind ("fetch-ro", "fetch-rw", "upgrade",
// "writeback"). Blocks homed locally never have cache-side
// transactions.
func (c *Cache) Pending(addr coherence.Addr) (kind string, ok bool) {
	l := c.lines.get(c.geom.Block(addr))
	if l == nil || l.pending == pendNone {
		return "", false
	}
	return l.pending.String(), true
}

// CorruptState forcibly sets the stable state of block addr, bypassing
// the protocol. It exists solely so invariant-monitor tests and the
// cosmos-chaos self-check mode can plant illegal cache states and
// verify they are detected; it is never called on healthy runs.
func (c *Cache) CorruptState(addr coherence.Addr, s CacheState) {
	c.line(c.geom.Block(addr)).state = s
}

// Stats returns (loads, stores, load misses, store misses, upgrade
// misses, invalidations received).
func (c *Cache) Stats() (loads, stores, loadMiss, storeMiss, upgradeMiss, invals uint64) {
	return c.loads, c.stores, c.loadMisses, c.storeMisses, c.upgradeMisses, c.invalidationsRecv
}

func (c *Cache) line(addr coherence.Addr) *cacheLine {
	if l := c.lines.get(addr); l != nil {
		return l
	}
	return c.lines.add(addr, cacheLine{})
}

// Access performs a load (write=false) or store (write=true) to addr.
// done is invoked when the access completes; for cache hits it is
// invoked synchronously before Access returns. A block may have at most
// one outstanding transaction; the machine guarantees this because each
// simulated processor blocks on its current access.
func (c *Cache) Access(addr coherence.Addr, write bool, done func()) {
	addr = c.geom.Block(addr)
	if write {
		c.stores++
	} else {
		c.loads++
	}

	// Home-node accesses bypass the message protocol entirely
	// (Section 5.1: directory pages double as local cache pages).
	if home := c.geom.Home(addr); home == c.node {
		c.local.LocalAccess(addr, write, done)
		return
	}

	l := c.line(addr)
	if l.pending == pendWriteback {
		// The block was just evicted and its writeback has not been
		// acknowledged; re-issue the access once it is. (Only possible
		// with bounded caches.)
		if l.afterWriteback != nil {
			panic(fmt.Sprintf("stache: %v second access to %#x during writeback", c.node, uint64(addr)))
		}
		l.afterWriteback = func() { c.Access(addr, write, done) }
		return
	}
	if l.pending != pendNone {
		panic(fmt.Sprintf("stache: %v access to %#x with transaction already outstanding", c.node, uint64(addr)))
	}
	home := c.geom.Home(addr)
	switch {
	case !write && l.state != CacheInvalid:
		c.touch(addr)
		c.claimSpec(addr, l)
		done() // read hit on RO or RW
	case write && l.state == CacheReadWrite:
		c.touch(addr)
		done() // write hit
	case !write: // read miss
		c.loadMisses++
		c.reserve(addr)
		l.pending, l.done = pendFetchRO, done
		c.send(home, coherence.GetROReq, addr)
	case l.state == CacheReadOnly: // write to shared copy
		c.upgradeMisses++
		c.touch(addr)
		c.claimSpec(addr, l)
		l.pending, l.done = pendUpgrade, done
		c.send(home, coherence.UpgradeReq, addr)
	default: // write miss from invalid
		c.storeMisses++
		c.reserve(addr)
		l.pending, l.done = pendFetchRW, done
		c.send(home, coherence.GetRWReq, addr)
	}
}

func (c *Cache) send(dst coherence.NodeID, t coherence.MsgType, addr coherence.Addr) {
	c.sender.Send(coherence.Msg{Src: c.node, Dst: dst, Type: t, Addr: addr})
}

// Deliver handles a message from a directory. It must only be called
// with cache-bound message types.
func (c *Cache) Deliver(msg coherence.Msg) {
	if !msg.Type.CacheBound() {
		panic(fmt.Sprintf("stache: cache received %v", msg))
	}
	c.observe(msg)
	l := c.line(msg.Addr)
	switch msg.Type {
	case coherence.GetROResp:
		c.expect(l, msg, l.pending == pendFetchRO)
		l.state, l.pending = CacheReadOnly, pendNone
		c.complete(l)

	case coherence.GetRWResp:
		// Accepted for a plain write miss, for an upgrade that the
		// directory converted to a fetch after a racing invalidation,
		// and for a read miss that a predicting directory chose to
		// answer exclusively (the Section 4 read-modify-write action).
		c.expect(l, msg, l.pending != pendNone && l.pending != pendWriteback)
		l.state, l.pending = CacheReadWrite, pendNone
		c.complete(l)

	case coherence.UpgradeResp:
		c.expect(l, msg, l.pending == pendUpgrade)
		l.state, l.pending = CacheReadWrite, pendNone
		c.complete(l)

	case coherence.InvalROReq:
		// Invalidate a shared copy. The copy may already be part of a
		// pending upgrade (the upgrade race): drop to invalid and keep
		// waiting — the directory will answer with get_rw_response.
		// A silently dropped (replaced) copy still gets acknowledged.
		c.expect(l, msg, l.state != CacheReadWrite)
		c.invalidationsRecv++
		if l.spec {
			// An unclaimed pushed copy dies here: the next real event for
			// the block was a third party's write, so the push was wrong.
			l.spec = false
			c.specDiscards++
			if c.gate != nil {
				c.gate.Record(SpecForward, msg.Addr, false)
			}
		}
		if l.state == CacheReadOnly && l.pending == pendNone {
			c.release(msg.Addr)
		}
		l.state = CacheInvalid
		c.send(msg.Src, coherence.InvalROResp, msg.Addr)

	case coherence.InvalRWReq:
		// A writeback racing ahead of this invalidation leaves the line
		// invalid with a pending writeback; acknowledge either way.
		c.expect(l, msg, (l.state == CacheReadWrite && l.pending == pendNone) || l.pending == pendWriteback)
		c.invalidationsRecv++
		if l.pending == pendNone {
			c.release(msg.Addr)
		}
		l.state = CacheInvalid
		c.forward(msg)
		c.send(msg.Src, coherence.InvalRWResp, msg.Addr)

	case coherence.DowngradeReq:
		c.expect(l, msg, (l.state == CacheReadWrite && l.pending == pendNone) || l.pending == pendWriteback)
		if l.pending != pendWriteback {
			l.state = CacheReadOnly
		}
		c.forward(msg)
		c.send(msg.Src, coherence.DowngradeResp, msg.Addr)

	case coherence.WritebackAck:
		c.expect(l, msg, l.pending == pendWriteback)
		l.pending = pendNone
		if retry := l.afterWriteback; retry != nil {
			l.afterWriteback = nil
			retry()
		}

	case coherence.SpecPush:
		// Install the pushed block as a speculative read-only copy, but
		// only when the line is completely untouched — no stable copy, no
		// outstanding transaction — the cache is unbounded (so no
		// replacement interactions), and the run is not draining. In
		// every other case the push is dropped silently; the directory's
		// sharer bit stays conservative (extra invalidations are legal)
		// and is reconciled at the end of the run.
		if c.spec && !c.draining && c.sets == nil &&
			l.state == CacheInvalid && l.pending == pendNone {
			l.state = CacheReadOnly
			l.spec = true
		}

	default:
		panic(fmt.Sprintf("stache: cache cannot handle %v", msg))
	}
}

// forward sends the block directly to the requestor named by a
// Grant-carrying invalidation or downgrade (Options.Forwarding): the
// Origin-style three-hop flow in which the previous owner, not the
// directory, supplies the data. Forwarding is only requested of owners
// that still hold the block (replacement is disabled with this
// protocol variant, so the data is always present).
//
// Ordering note: the forwarded data races with any message the
// directory sends the requestor after the ownership ack. Because the
// data departs strictly before the ack reaches the directory and the
// network has uniform latency with per-link FIFO, the data always
// arrives first; a variable-latency network would need Origin's
// retry/NAK machinery here.
func (c *Cache) forward(msg coherence.Msg) {
	if !msg.Grant.Valid() {
		return
	}
	c.sender.Send(coherence.Msg{Src: c.node, Dst: msg.Requestor, Type: msg.Grant, Addr: msg.Addr})
}

// Evict removes addr from the cache. Exclusive blocks are written back
// to the home directory; shared blocks are dropped silently (the stale
// sharer bit is cleaned up by a later invalidation, which the cache
// acknowledges even when invalid). Stache itself never evicts
// (Section 5.1); this exists for non-Stache configurations and tests.
func (c *Cache) Evict(addr coherence.Addr) {
	addr = c.geom.Block(addr)
	if c.geom.Home(addr) == c.node {
		return // home blocks live in home memory; nothing to evict
	}
	l := c.lines.get(addr)
	if l == nil || l.state == CacheInvalid {
		return
	}
	if l.pending != pendNone {
		panic(fmt.Sprintf("stache: %v evicting %#x with transaction outstanding", c.node, uint64(addr)))
	}
	c.release(addr)
	if l.state == CacheReadWrite {
		l.pending = pendWriteback
		c.send(c.geom.Home(addr), coherence.WritebackReq, addr)
	}
	l.state = CacheInvalid
}

// expect asserts a protocol invariant; violations are simulator bugs.
func (c *Cache) expect(l *cacheLine, msg coherence.Msg, ok bool) {
	if !ok {
		panic(fmt.Sprintf("stache: %v protocol violation: %v in state %v/pending %d",
			c.node, msg, l.state, l.pending))
	}
}

func (c *Cache) complete(l *cacheLine) {
	done := l.done
	l.done = nil
	if done != nil {
		done()
	}
}
