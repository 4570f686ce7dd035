package stache

import (
	"fmt"
	"sort"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

// dirEntry is the directory state for one memory block homed at this
// node: the sharer set (in whatever format Options.DirFormat selects),
// the exclusive owner (if any), and — while a transaction is collecting
// invalidation acknowledgments — the in-flight request plus a FIFO of
// requests that arrived meanwhile.
type dirEntry struct {
	state    dirState
	sharers  sharerSet
	owner    coherence.NodeID
	current  pendingReq
	acksLeft int
	queue    []pendingReq
	// specPushed marks which sharer bits exist only because of a
	// speculative spec_push (Table 2's producer-push action). They are
	// ordinary sharers to the protocol — invalidated like any other on
	// a write — but the reconciler uses the mark to drop bits whose
	// pushed copy was never claimed.
	specPushed nodeSet
	// expect, when not NoNode, records that a speculative downgrade
	// completed and the directory is waiting to see whether the next
	// real request is the predicted read from this node. The
	// expectation is resolved (scored and cleared) by the very next
	// request, whatever it is — ProtocolRollback's "detected as
	// mispredicted on the next incoming protocol message".
	expect coherence.NodeID
}

// Directory is the directory-controller half of the protocol at one
// node. It owns the directory entries for every page homed at the node
// (round-robin by page number) and also serves the home node's own
// accesses to those pages without generating messages.
type Directory struct {
	node    coherence.NodeID
	geom    coherence.Geometry
	sender  Sender
	opts    Options
	scfg    sharerCfg
	entries blocks[dirEntry]

	// stats
	transactions uint64
	invalsSent   uint64
	localHits    uint64
	queued       uint64
	// Scalable-format event counters: limited-pointer entries that
	// overflowed into broadcast mode, and invalidations issued on the
	// strength of an inexact (conservative) sharer set.
	overflows  uint64
	wideInvals uint64

	// Speculative-action machinery (nil/zero unless AttachSpeculation
	// ran; the base protocol path never consults it).
	oracle       Oracle
	gate         Gate
	actions      SpecActions
	draining     bool
	speculations uint64
	specFetches  uint64
	specPushes   uint64
}

// AttachSpeculation installs a predictor beside this directory, with
// the gate that authorizes its actions and the set of actions it may
// take. The read-modify-write grant of Table 2 answers a read miss with
// an exclusive copy when the oracle predicts the same requestor's
// upgrade next, eliminating the upgrade round trip; it fires only when
// the requestor would be the sole holder, so a wrong guess merely
// costs an invalidation later (the first recovery class of Section
// 4.3). The ProtocolRollback actions, speculative downgrade and
// producer push, require a gate and Options.Speculation: without the
// option the protocol promises a bit-identical message stream to a
// speculation-free build, and the invariant monitor holds it to that
// promise. A nil gate runs the NoRecovery grant ungated.
func (d *Directory) AttachSpeculation(o Oracle, g Gate, acts SpecActions) {
	rollback := acts.Downgrade || acts.Forward
	if rollback && !d.opts.Speculation {
		panic("stache: rollback-class actions require Options.Speculation")
	}
	if g == nil {
		if rollback {
			panic("stache: rollback-class actions require a gate")
		}
		g = allowAll{}
	}
	d.oracle = o
	d.gate = g
	d.actions = acts
}

// allowAll is the gate of ungated speculation: it admits every action
// and scores nothing.
type allowAll struct{}

func (allowAll) Observe(coherence.Addr, bool)            {}
func (allowAll) Allow(SpecAction, coherence.Addr) bool   { return true }
func (allowAll) Record(SpecAction, coherence.Addr, bool) {}

// BeginDrain tells the directory the workload is over: no further
// speculative state may be created while the machine drains in-flight
// messages and reconciles what speculation is still outstanding.
func (d *Directory) BeginDrain() { d.draining = true }

// SpecStats returns (speculative fetch-backs started, spec_push
// messages sent).
func (d *Directory) SpecStats() (fetches, pushes uint64) {
	return d.specFetches, d.specPushes
}

// Speculations returns how many read misses were answered exclusively
// on the oracle's advice.
func (d *Directory) Speculations() uint64 { return d.speculations }

// speculateRMW reports whether a read by req should be served with an
// exclusive grant.
func (d *Directory) speculateRMW(addr coherence.Addr, req pendingReq) bool {
	if !d.actions.RMW || req.node == d.node {
		return false
	}
	pred, ok := d.oracle.PredictNext(addr)
	if !ok || pred.Sender != req.node || pred.Type != coherence.UpgradeReq {
		return false
	}
	return d.gate.Allow(SpecRMW, addr)
}

// NewDirectory creates the directory controller for node.
func NewDirectory(node coherence.NodeID, geom coherence.Geometry, sender Sender, opts Options) *Directory {
	return &Directory{
		node:   node,
		geom:   geom,
		sender: sender,
		opts:   opts,
		scfg:   newSharerCfg(opts, geom.Nodes()),
	}
}

// FormatStats returns the scalable-directory-format event counters:
// how many limited-pointer entries overflowed into broadcast mode, and
// how many invalidations were sent during write fan-out while the
// sharer set was inexact (each such message may target a node that
// never held a copy — the traffic cost of a compact format).
func (d *Directory) FormatStats() (overflows, wideInvals uint64) {
	return d.overflows, d.wideInvals
}

// addSharer records n in e's sharer set, counting limited-pointer
// overflow events.
func (d *Directory) addSharer(e *dirEntry, n coherence.NodeID) {
	if e.sharers.add(d.scfg, n) {
		d.overflows++
	}
}

// EntryCount returns how many blocks this directory has ever tracked.
func (d *Directory) EntryCount() int { return d.entries.len() }

// Stats returns (transactions started, invalidation/downgrade requests
// sent, local accesses served without messages, requests queued behind
// a busy entry).
func (d *Directory) Stats() (transactions, invalsSent, localHits, queued uint64) {
	return d.transactions, d.invalsSent, d.localHits, d.queued
}

func (d *Directory) entry(addr coherence.Addr) *dirEntry {
	if e := d.entries.get(addr); e != nil {
		return e
	}
	return d.entries.add(addr, dirEntry{owner: coherence.NoNode, expect: coherence.NoNode})
}

// Sharers returns the current sharer list of addr (for tests and
// debugging). The owner of an exclusive block is reported as the sole
// sharer.
func (d *Directory) Sharers(addr coherence.Addr) []coherence.NodeID {
	e := d.entries.get(d.geom.Block(addr))
	if e == nil {
		return nil
	}
	if e.state == dirExclusive {
		return []coherence.NodeID{e.owner}
	}
	var out []coherence.NodeID
	e.sharers.forEach(d.scfg, func(n coherence.NodeID) { out = append(out, n) })
	return out
}

// EntryState returns a canonical string describing addr's stable
// directory state — "idle", "shared{P1,P3}", "exclusive{P2}", or
// "busy" — for observers that study protocol-*state* prediction
// (footnote 1 of the paper considers predicting the next coherence
// protocol state instead of the next message and argues the two are
// equivalent; the StateEquivalence experiment tests that claim).
func (d *Directory) EntryState(addr coherence.Addr) string {
	e := d.entries.get(d.geom.Block(addr))
	if e == nil {
		return "idle"
	}
	switch e.state {
	case dirIdle:
		return "idle"
	case dirBusy:
		return "busy"
	case dirExclusive:
		return "exclusive{" + e.owner.String() + "}"
	case dirShared:
		s := "shared{"
		first := true
		e.sharers.forEach(d.scfg, func(n coherence.NodeID) {
			if !first {
				s += ","
			}
			s += n.String()
			first = false
		})
		return s + "}"
	default:
		panic(fmt.Sprintf("stache: EntryState in unhandled state %d", uint8(e.state)))
	}
}

// EntryState is the exported view of a directory entry's stable state,
// for the invariant monitor and other out-of-package inspectors.
type EntryState uint8

const (
	// EntryIdle means no cached copies exist.
	EntryIdle EntryState = iota
	// EntryShared means one or more read-only copies exist.
	EntryShared
	// EntryExclusive means exactly one read-write copy exists.
	EntryExclusive
	// EntryBusy means a transaction is collecting acknowledgments.
	EntryBusy
)

func (s EntryState) String() string {
	switch s {
	case EntryIdle:
		return "idle"
	case EntryShared:
		return "shared"
	case EntryExclusive:
		return "exclusive"
	case EntryBusy:
		return "busy"
	}
	return fmt.Sprintf("EntryState(%d)", uint8(s))
}

// EntryInfo is a read-only snapshot of one directory entry: the raw
// full-map sharer bits (not the owner-as-sole-sharer rendering of
// Sharers), the exclusive owner, and the busy-transaction bookkeeping.
type EntryInfo struct {
	Addr    coherence.Addr
	State   EntryState
	Sharers []coherence.NodeID // raw sharer bits, ascending node order
	// Inexact marks a sharer list that may over-approximate the real
	// set (a broadcast-mode limited-pointer entry, or a coarse vector
	// with multi-node regions). The invariant monitor tolerates
	// recorded-but-invalid sharers only on inexact entries.
	Inexact bool
	Owner   coherence.NodeID
	// Requestor is the node whose transaction a busy entry serves.
	Requestor coherence.NodeID
	AcksLeft  int
	Queued    int
	// SpecPushed lists sharers whose copy arrived by speculative push
	// and has not been claimed or reconciled; SpecExpect is the node a
	// completed speculative downgrade predicts will read next (NoNode
	// when no expectation is armed). Both empty on non-speculative runs.
	SpecPushed []coherence.NodeID
	SpecExpect coherence.NodeID
}

// String renders the snapshot for diagnostics, e.g.
// "exclusive owner=P2" or "busy for P1 (2 acks left, 1 queued)".
func (e EntryInfo) String() string {
	var s string
	switch e.State {
	case EntryIdle:
		s = "idle"
	case EntryShared:
		s = "shared{"
		for i, n := range e.Sharers {
			if i > 0 {
				s += ","
			}
			s += n.String()
		}
		s += "}"
	case EntryExclusive:
		s = "exclusive owner=" + e.Owner.String()
	case EntryBusy:
		s = fmt.Sprintf("busy for %v (%d acks left, %d queued)", e.Requestor, e.AcksLeft, e.Queued)
	default:
		return fmt.Sprintf("EntryInfo(state=%d)", uint8(e.State))
	}
	if len(e.SpecPushed) > 0 {
		s += " spec_pushed{"
		for i, n := range e.SpecPushed {
			if i > 0 {
				s += ","
			}
			s += n.String()
		}
		s += "}"
	}
	if e.SpecExpect != coherence.NoNode {
		s += " spec_expect=" + e.SpecExpect.String()
	}
	return s
}

// snapshot converts the internal entry to its exported form.
func (d *Directory) snapshot(addr coherence.Addr, e *dirEntry) EntryInfo {
	info := EntryInfo{
		Addr:       addr,
		Owner:      e.owner,
		Requestor:  coherence.NoNode,
		AcksLeft:   e.acksLeft,
		Queued:     len(e.queue),
		SpecExpect: e.expect,
	}
	e.specPushed.forEach(d.geom.Nodes(), func(n coherence.NodeID) {
		info.SpecPushed = append(info.SpecPushed, n)
	})
	switch e.state {
	case dirIdle:
		info.State = EntryIdle
	case dirShared:
		info.State = EntryShared
	case dirExclusive:
		info.State = EntryExclusive
	case dirBusy:
		info.State = EntryBusy
		info.Requestor = e.current.node
	}
	e.sharers.forEach(d.scfg, func(n coherence.NodeID) {
		info.Sharers = append(info.Sharers, n)
	})
	info.Inexact = e.sharers.inexact(d.scfg)
	return info
}

// Entry returns a snapshot of addr's directory entry. ok is false when
// the directory has never tracked the block.
func (d *Directory) Entry(addr coherence.Addr) (EntryInfo, bool) {
	addr = d.geom.Block(addr)
	e := d.entries.get(addr)
	if e == nil {
		return EntryInfo{}, false
	}
	return d.snapshot(addr, e), true
}

// Entries returns a snapshot of every tracked entry, ordered by address
// (deterministic for the invariant monitor and diagnostics).
func (d *Directory) Entries() []EntryInfo {
	out := make([]EntryInfo, 0, d.entries.len())
	d.entries.each(func(addr coherence.Addr, e *dirEntry) {
		out = append(out, d.snapshot(addr, e))
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// CorruptOwner forcibly records n as addr's exclusive owner, bypassing
// the protocol. It exists solely so invariant-monitor tests and the
// cosmos-chaos self-check mode can plant directory/cache disagreements
// and verify they are detected; it is never called on healthy runs.
func (d *Directory) CorruptOwner(addr coherence.Addr, n coherence.NodeID) {
	e := d.entry(d.geom.Block(addr))
	e.state = dirExclusive
	e.owner = n
	e.sharers.clear()
	e.specPushed = 0
}

// CorruptAddSharer forcibly adds a phantom sharer bit for n to addr's
// entry. Like CorruptOwner it exists only to seed detectable
// violations in tests and chaos self-checks.
func (d *Directory) CorruptAddSharer(addr coherence.Addr, n coherence.NodeID) {
	e := d.entry(d.geom.Block(addr))
	if e.state == dirIdle {
		e.state = dirShared
	}
	e.sharers.add(d.scfg, n)
}

// BusyEntry describes one directory entry stuck mid-transaction, for
// stall diagnostics.
type BusyEntry struct {
	Addr coherence.Addr
	// Requestor is the node whose transaction the entry is serving.
	Requestor coherence.NodeID
	// AcksLeft is how many invalidation/downgrade acknowledgments the
	// entry is still waiting for.
	AcksLeft int
	// Queued is how many requests wait behind the busy transaction.
	Queued int
}

// BusyEntries returns every busy directory entry, ordered by address
// (deterministic for diagnostics and tests).
func (d *Directory) BusyEntries() []BusyEntry {
	var out []BusyEntry
	d.entries.each(func(addr coherence.Addr, e *dirEntry) {
		if e.state == dirBusy {
			out = append(out, BusyEntry{
				Addr:      addr,
				Requestor: e.current.node,
				AcksLeft:  e.acksLeft,
				Queued:    len(e.queue),
			})
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// homeState reports the home node's own access rights to addr, derived
// from directory state (the home node has no separate cache line).
func (d *Directory) homeState(addr coherence.Addr) CacheState {
	e := d.entries.get(addr)
	if e == nil {
		return CacheInvalid
	}
	switch {
	case e.state == dirExclusive && e.owner == d.node:
		return CacheReadWrite
	case e.state == dirShared && e.sharers.has(d.scfg, d.node):
		return CacheReadOnly
	case e.state == dirIdle:
		// Idle means no *cached* copies; the home node reads memory
		// directly, so idle blocks are readable (but not writable
		// without a directory transition). Report invalid so the cache
		// layer routes the access through LocalAccess, which grants it.
		return CacheInvalid
	}
	return CacheInvalid
}

// LocalAccess serves a load or store by the home node itself. No
// messages are exchanged with the local directory (Section 5.1), but
// remote copies may need to be invalidated. done runs when the access
// is globally ordered; for uncontended blocks that is synchronous.
func (d *Directory) LocalAccess(addr coherence.Addr, write bool, done func()) {
	addr = d.geom.Block(addr)
	if d.geom.Home(addr) != d.node {
		panic(fmt.Sprintf("stache: %v LocalAccess to %#x homed at %v", d.node, uint64(addr), d.geom.Home(addr)))
	}
	e := d.entry(addr)
	kind := reqRead
	if write {
		kind = reqWrite
	}
	req := pendingReq{node: d.node, kind: kind, done: done}
	if e.state == dirBusy {
		d.queued++
		e.queue = append(e.queue, req)
		return
	}
	d.start(addr, e, req)
	d.trySpeculate(addr, e)
}

// Deliver handles a message from a cache controller. It must only be
// called with directory-bound message types.
func (d *Directory) Deliver(msg coherence.Msg) {
	if !msg.Type.DirectoryBound() {
		panic(fmt.Sprintf("stache: directory received %v", msg))
	}
	if d.geom.Home(msg.Addr) != d.node {
		panic(fmt.Sprintf("stache: %v received %v for block homed at %v", d.node, msg, d.geom.Home(msg.Addr)))
	}
	if d.oracle != nil {
		// Score the standing prediction against the message that actually
		// arrived, then train the predictor on it. The score is the
		// governor's view of raw prediction accuracy, feeding the
		// misprediction-rate circuit breaker.
		t := msg.Tuple()
		if pred, ok := d.oracle.PredictNext(msg.Addr); ok {
			d.gate.Observe(msg.Addr, pred == t)
		}
		d.oracle.Train(msg.Addr, t)
	}
	e := d.entry(msg.Addr)

	switch msg.Type {
	case coherence.GetROReq, coherence.GetRWReq, coherence.UpgradeReq, coherence.WritebackReq:
		var kind reqKind
		switch msg.Type {
		case coherence.GetROReq:
			kind = reqRead
		case coherence.GetRWReq:
			kind = reqWrite
		case coherence.UpgradeReq:
			kind = reqUpgrade
		case coherence.WritebackReq:
			kind = reqWriteback
		default:
			panic(fmt.Sprintf("stache: unhandled request type %v", msg.Type))
		}
		req := pendingReq{node: msg.Src, kind: kind}
		if e.state == dirBusy {
			d.queued++
			e.queue = append(e.queue, req)
			return
		}
		d.start(msg.Addr, e, req)

	case coherence.InvalROResp, coherence.InvalRWResp, coherence.DowngradeResp:
		if e.state != dirBusy || e.acksLeft <= 0 {
			panic(fmt.Sprintf("stache: %v unexpected ack %v (state %v, acksLeft %d)", d.node, msg, e.state, e.acksLeft))
		}
		e.acksLeft--
		if e.acksLeft == 0 {
			d.finish(msg.Addr, e)
		}

	default:
		panic(fmt.Sprintf("stache: directory cannot handle %v", msg))
	}
	d.trySpeculate(msg.Addr, e)
}

// trySpeculate considers the two ProtocolRollback actions of Table 2
// for one block, using whatever prediction stands after the event that
// just completed. It only fires on a settled entry (not busy, nothing
// queued) so a wrong guess perturbs no in-flight transaction — the
// speculative state it creates is exactly the state the next real
// message (or the end-of-run reconciler) discards.
func (d *Directory) trySpeculate(addr coherence.Addr, e *dirEntry) {
	if d.draining || !(d.actions.Downgrade || d.actions.Forward) {
		return
	}
	if e.state == dirBusy || len(e.queue) > 0 {
		return
	}
	pred, ok := d.oracle.PredictNext(addr)
	if !ok || pred.Type != coherence.GetROReq {
		return
	}
	p := pred.Sender
	if p == d.node || p < 0 || int(p) >= d.geom.Nodes() {
		return
	}
	switch e.state {
	case dirExclusive:
		// Speculative downgrade: fetch the block home ahead of the
		// predicted third-party read, so the read is served in two hops
		// instead of four. Skip when the predicted reader is the owner
		// (its read would hit locally) or the home (served without
		// messages).
		if !d.actions.Downgrade || e.owner == d.node || e.owner == p {
			return
		}
		if !d.gate.Allow(SpecDowngrade, addr) {
			return
		}
		t := coherence.InvalRWReq
		if !d.opts.HalfMigratory {
			t = coherence.DowngradeReq
		}
		owner := e.owner
		e.current = pendingReq{node: p, kind: reqSpecFetch}
		e.acksLeft = 1
		e.state = dirBusy
		d.specFetches++
		d.sendInval(owner, t, addr, p, coherence.MsgInvalid)

	case dirIdle, dirShared:
		// Producer push: send the predicted reader a read-only copy
		// before it asks. The pushed node becomes a real sharer (so SWMR
		// accounting holds) marked specPushed (so an unclaimed copy can
		// be reconciled away).
		if !d.actions.Forward || e.sharers.has(d.scfg, p) || e.specPushed.has(p) {
			return
		}
		if !d.gate.Allow(SpecForward, addr) {
			return
		}
		e.state = dirShared
		d.addSharer(e, p)
		e.specPushed.add(p)
		if e.expect == p {
			// The push satisfies the expected read out of band: the
			// predicted reader will now hit in its own cache, so no
			// message can ever confirm the downgrade expectation. Drop
			// it unscored — the forward's claim/discard is what gets
			// recorded instead.
			e.expect = coherence.NoNode
		}
		d.specPushes++
		d.sender.Send(coherence.Msg{Src: d.node, Dst: p, Type: coherence.SpecPush, Addr: addr})

	case dirBusy:
		// Filtered above: a busy entry never speculates.
	}
}

// start begins serving req on a non-busy entry. If remote copies must
// be invalidated or downgraded first, the entry goes busy and the grant
// is deferred to finish(); otherwise the grant is immediate.
func (d *Directory) start(addr coherence.Addr, e *dirEntry, req pendingReq) {
	if e.expect != coherence.NoNode {
		// The next real message after a speculative downgrade verifies
		// it: correct iff it is the predicted read from the predicted
		// node. Either way the expectation is consumed — the rollback
		// class never carries speculative state past one message.
		d.gate.Record(SpecDowngrade, addr, req.node == e.expect && req.kind == reqRead)
		e.expect = coherence.NoNode
	}
	d.transactions++
	switch req.kind {
	case reqRead:
		d.startRead(addr, e, req)
	case reqWrite:
		d.startWrite(addr, e, req, coherence.GetRWResp)
	case reqUpgrade:
		d.startUpgrade(addr, e, req)
	case reqWriteback:
		d.startWriteback(addr, e, req)
	case reqSpecFetch:
		// Spec fetches are installed on the entry directly by
		// trySpeculate and resolved in finish; they are never queued, so
		// none can reach start.
		panic("stache: reqSpecFetch reached start")
	}
}

func (d *Directory) startRead(addr coherence.Addr, e *dirEntry, req pendingReq) {
	switch e.state {
	case dirIdle:
		if d.speculateRMW(addr, req) {
			d.speculations++
			e.state = dirExclusive
			e.owner = req.node
			d.grant(addr, req, coherence.GetRWResp)
			return
		}
		e.state = dirShared
		d.addSharer(e, req.node)
		d.grant(addr, req, coherence.GetROResp)

	case dirShared:
		if e.specPushed.has(req.node) {
			// A real read from a node we pushed to: its cache dropped the
			// push (or the request raced ahead of it). The prediction was
			// right even though the pushed copy went unused; from here on
			// the node is an ordinary sharer.
			e.specPushed.remove(req.node)
			d.gate.Record(SpecForward, addr, true)
		}
		d.addSharer(e, req.node)
		d.grant(addr, req, coherence.GetROResp)

	case dirExclusive:
		if e.owner == req.node {
			// A read by the current owner: only reachable for the home
			// node (remote owners hit in their cache). Keep exclusive.
			d.grant(addr, req, coherence.GetROResp)
			return
		}
		if e.owner == d.node {
			// Owner is the home node itself: reclaim without messages.
			d.demoteLocalOwner(e)
			if e.sharers.empty(d.scfg) && d.speculateRMW(addr, req) {
				d.speculations++
				e.state = dirExclusive
				e.owner = req.node
				d.grant(addr, req, coherence.GetRWResp)
				return
			}
			d.addSharer(e, req.node)
			e.state = dirShared
			d.grant(addr, req, coherence.GetROResp)
			return
		}
		// Remote owner: fetch the block back. Half-migratory
		// invalidates the owner; the DASH-like variant downgrades it.
		// Go busy *before* sending: the ack may arrive reentrantly in
		// zero-latency configurations.
		t := coherence.InvalRWReq
		if !d.opts.HalfMigratory {
			t = coherence.DowngradeReq
		}
		grant := coherence.MsgInvalid
		if d.forwardable(req) {
			grant = coherence.GetROResp
			req.forwarded = true
		}
		owner := e.owner
		e.current = req
		e.acksLeft = 1
		e.state = dirBusy
		d.sendInval(owner, t, addr, req.node, grant)

	default:
		panic(fmt.Sprintf("stache: startRead in state %v", e.state))
	}
}

// startWrite serves a write (or upgrade converted to a write); grantT
// is the response type to use on completion.
func (d *Directory) startWrite(addr coherence.Addr, e *dirEntry, req pendingReq, grantT coherence.MsgType) {
	req.grantT = grantT
	switch e.state {
	case dirIdle:
		e.state = dirExclusive
		e.owner = req.node
		d.grant(addr, req, grantT)

	case dirExclusive:
		if e.owner == req.node {
			d.grant(addr, req, grantT)
			return
		}
		if e.owner == d.node {
			d.demoteLocalOwner(e)
			// The exclusive grant invalidates the home's copy too: the
			// DASH-variant read-only home copy demoteLocalOwner records
			// must not survive into the exclusive entry, or the stale
			// sharer bit leaks through later writeback/idle transitions.
			e.sharers.clear()
			e.state = dirExclusive
			e.owner = req.node
			d.grant(addr, req, grantT)
			return
		}
		grant := coherence.MsgInvalid
		if d.forwardable(req) {
			grant = req.grantT
			req.forwarded = true
		}
		owner := e.owner
		e.current = req
		e.acksLeft = 1
		e.state = dirBusy
		d.sendInval(owner, coherence.InvalRWReq, addr, req.node, grant)

	case dirShared:
		// Invalidate every remote sharer except the requestor. A home-
		// node copy is dropped silently (no message to ourselves). An
		// inexact sharer set fans out to its conservative superset —
		// nodes that never held a copy acknowledge from the invalid
		// state — and the extra traffic is counted as wideInvals.
		inexact := e.sharers.inexact(d.scfg)
		var targets []coherence.NodeID
		e.sharers.forEach(d.scfg, func(n coherence.NodeID) {
			if n == req.node || n == d.node {
				return
			}
			targets = append(targets, n)
		})
		if len(targets) == 0 {
			e.state = dirExclusive
			e.sharers.clear()
			e.specPushed = 0
			e.owner = req.node
			d.grant(addr, req, grantT)
			return
		}
		if inexact {
			d.wideInvals += uint64(len(targets))
		}
		// Go busy before sending (reentrant acks).
		e.current = req
		e.acksLeft = len(targets)
		e.state = dirBusy
		for _, n := range targets {
			d.sendInval(n, coherence.InvalROReq, addr, req.node, coherence.MsgInvalid)
		}

	default:
		panic(fmt.Sprintf("stache: startWrite in state %v", e.state))
	}
}

func (d *Directory) startUpgrade(addr coherence.Addr, e *dirEntry, req pendingReq) {
	// The upgrade race (Section "Obtaining Predictions"): if the
	// requestor's shared copy was invalidated after it sent the
	// upgrade_request, the upgrade must be served as a full write so
	// the requestor receives data. The requestor accepts
	// get_rw_response while waiting for an upgrade.
	// An inexact sharer set can answer has() conservatively-true for a
	// requestor whose copy was really invalidated; granting the upgrade
	// without data is still coherent here because the simulator models
	// protocol state, not data payloads, and the grant path invalidates
	// the remaining sharers exactly as a write would.
	if e.state == dirShared && e.sharers.has(d.scfg, req.node) {
		d.startWrite(addr, e, req, coherence.UpgradeResp)
		return
	}
	d.startWrite(addr, e, req, coherence.GetRWResp)
}

func (d *Directory) startWriteback(addr coherence.Addr, e *dirEntry, req pendingReq) {
	if e.state == dirExclusive && e.owner == req.node {
		e.state = dirIdle
		e.owner = coherence.NoNode
	}
	// Stale writebacks (the owner was already invalidated by a racing
	// transaction) are acknowledged and otherwise ignored.
	d.grant(addr, req, coherence.WritebackAck)
}

// demoteLocalOwner strips the home node's exclusive ownership without
// messages; the data is already in home memory.
func (d *Directory) demoteLocalOwner(e *dirEntry) {
	e.owner = coherence.NoNode
	e.sharers.clear()
	if !d.opts.HalfMigratory {
		// DASH-like: the home keeps a read-only copy.
		d.addSharer(e, d.node)
	}
	e.state = dirShared
}

// finish completes the busy transaction once all acks have arrived.
func (d *Directory) finish(addr coherence.Addr, e *dirEntry) {
	req := e.current
	e.current = pendingReq{}
	switch req.kind {
	case reqRead:
		e.sharers.clear()
		if !d.opts.HalfMigratory && e.owner != coherence.NoNode {
			// Downgraded owner keeps a shared copy.
			d.addSharer(e, e.owner)
		}
		e.owner = coherence.NoNode
		if !req.forwarded && e.sharers.empty(d.scfg) && d.speculateRMW(addr, req) {
			// Half-migratory fetch-back left the requestor sole holder:
			// the predicted upgrade makes an exclusive grant the better
			// answer (the migratory-protocol action of Table 2).
			d.speculations++
			e.owner = req.node
			e.state = dirExclusive
			d.grantDeferred(addr, e, req, coherence.GetRWResp)
			return
		}
		d.addSharer(e, req.node)
		e.state = dirShared
		d.grantDeferred(addr, e, req, coherence.GetROResp)

	case reqWrite, reqUpgrade:
		e.sharers.clear()
		e.specPushed = 0
		e.owner = req.node
		e.state = dirExclusive
		d.grantDeferred(addr, e, req, req.grantT)

	case reqSpecFetch:
		// A speculative downgrade completed: the block is home again and
		// req.node is only the *predicted* reader — nobody is owed a
		// grant. Settle the entry, then either score the prediction
		// against a request that raced in while we were busy, or arm the
		// expectation the next real message will resolve.
		e.sharers.clear()
		e.specPushed = 0
		if !d.opts.HalfMigratory && e.owner != coherence.NoNode {
			d.addSharer(e, e.owner)
		}
		e.owner = coherence.NoNode
		if e.sharers.empty(d.scfg) {
			e.state = dirIdle
		} else {
			e.state = dirShared
		}
		if len(e.queue) > 0 {
			d.gate.Record(SpecDowngrade, addr, e.queue[0].node == req.node && e.queue[0].kind == reqRead)
		} else if !d.draining {
			e.expect = req.node
		}
		for e.state != dirBusy && len(e.queue) > 0 {
			next := e.queue[0]
			e.queue = e.queue[1:]
			d.start(addr, e, next)
		}

	default:
		panic(fmt.Sprintf("stache: finish with kind %d", req.kind))
	}
}

// grantDeferred grants a completed transaction and then drains the
// entry's queue, which may immediately start (and even synchronously
// complete) further transactions.
func (d *Directory) grantDeferred(addr coherence.Addr, e *dirEntry, req pendingReq, t coherence.MsgType) {
	if !req.forwarded {
		d.grant(addr, req, t)
	}
	for e.state != dirBusy && len(e.queue) > 0 {
		next := e.queue[0]
		e.queue = e.queue[1:]
		d.start(addr, e, next)
	}
}

// grant completes req: remote requestors get a response message; the
// home node's own accesses complete by callback.
func (d *Directory) grant(addr coherence.Addr, req pendingReq, t coherence.MsgType) {
	if req.done != nil {
		d.localHits++
		req.done()
		return
	}
	d.sender.Send(coherence.Msg{Src: d.node, Dst: req.node, Type: t, Addr: addr})
}

// sendInval issues an invalidation or downgrade. A valid grant type
// asks the owner to forward the data directly to the requestor
// (Origin-style three-hop flow).
func (d *Directory) sendInval(dst coherence.NodeID, t coherence.MsgType, addr coherence.Addr, requestor coherence.NodeID, grant coherence.MsgType) {
	d.invalsSent++
	d.sender.Send(coherence.Msg{Src: d.node, Dst: dst, Type: t, Addr: addr, Requestor: requestor, Grant: grant})
}

// forwardable reports whether this transaction's data can be served by
// the current remote owner directly (Origin-style). Local requestors
// complete by callback and always go through the directory.
func (d *Directory) forwardable(req pendingReq) bool {
	return d.opts.Forwarding && req.done == nil
}

// SpecRecord describes the speculative bookkeeping still outstanding
// for one block: sharer bits that exist only because of an unclaimed
// push, and an unresolved downgrade expectation.
type SpecRecord struct {
	Addr   coherence.Addr
	Pushed []coherence.NodeID
	Expect coherence.NodeID
}

// SpecOutstanding returns every entry with live speculative state,
// ordered by address. The end-of-run reconciler walks this list after
// BeginDrain; the invariant monitor requires it empty at quiesce.
func (d *Directory) SpecOutstanding() []SpecRecord {
	var out []SpecRecord
	d.entries.each(func(addr coherence.Addr, e *dirEntry) {
		if e.specPushed == 0 && e.expect == coherence.NoNode {
			return
		}
		r := SpecRecord{Addr: addr, Expect: e.expect}
		e.specPushed.forEach(d.geom.Nodes(), func(n coherence.NodeID) {
			r.Pushed = append(r.Pushed, n)
		})
		out = append(out, r)
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// ResolveSpecPush settles the push bookkeeping for node n on addr.
// dropSharer discards the sharer bit too (the pushed copy was never
// claimed and has been — or will on arrival be — dropped by the
// cache); otherwise the bit survives as an ordinary sharer (the copy
// was claimed by a real read). A busy entry only has its mark cleared:
// finish() rewrites the sharer set anyway.
func (d *Directory) ResolveSpecPush(addr coherence.Addr, n coherence.NodeID, dropSharer bool) {
	e := d.entries.get(d.geom.Block(addr))
	if e == nil {
		return
	}
	e.specPushed.remove(n)
	if !dropSharer || e.state == dirBusy {
		return
	}
	e.sharers.remove(d.scfg, n)
	if e.state == dirShared && e.sharers.empty(d.scfg) {
		e.state = dirIdle
	}
}

// ResolveSpecExpect discards an unresolved downgrade expectation on
// addr without scoring it (used by the end-of-run reconciler, where no
// further message can ever arrive to verify it).
func (d *Directory) ResolveSpecExpect(addr coherence.Addr) {
	if e := d.entries.get(d.geom.Block(addr)); e != nil {
		e.expect = coherence.NoNode
	}
}
