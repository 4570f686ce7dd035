package stache

import (
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

// loopback is a Sender that delivers synchronously to the right
// controller, recording every message. Enough to drive the protocol
// FSMs without a machine: zero-latency, per-call ordering.
type loopback struct {
	t      *testing.T
	geom   coherence.Geometry
	caches []*Cache
	dirs   []*Directory
	log    []coherence.Msg
}

func (l *loopback) Send(msg coherence.Msg) {
	l.log = append(l.log, msg)
	if msg.Type.DirectoryBound() {
		l.dirs[msg.Dst].Deliver(msg)
	} else {
		l.caches[msg.Dst].Deliver(msg)
	}
}

// newSystem builds n nodes over a tiny geometry (64-byte blocks,
// 256-byte pages) wired through a loopback.
func newSystem(t *testing.T, n int, opts Options) *loopback {
	t.Helper()
	geom := coherence.MustGeometry(64, 256, n)
	l := &loopback{t: t, geom: geom}
	l.caches = make([]*Cache, n)
	l.dirs = make([]*Directory, n)
	for i := 0; i < n; i++ {
		node := coherence.NodeID(i)
		l.dirs[i] = NewDirectory(node, geom, l, opts, nil)
		l.caches[i] = NewCache(node, geom, l, l.dirs[i], opts, nil)
	}
	return l
}

// access performs a synchronous access and asserts it completed.
func (l *loopback) access(node int, addr coherence.Addr, write bool) {
	l.t.Helper()
	done := false
	l.caches[node].Access(addr, write, func() { done = true })
	if !done {
		l.t.Fatalf("access by P%d to %#x did not complete synchronously", node, uint64(addr))
	}
}

// types extracts the message-type sequence from the log.
func (l *loopback) types() []coherence.MsgType {
	out := make([]coherence.MsgType, len(l.log))
	for i, m := range l.log {
		out[i] = m.Type
	}
	return out
}

func (l *loopback) reset() { l.log = nil }

func eqTypes(got, want []coherence.MsgType) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// blockHomedAt returns a block address whose home is the given node.
func blockHomedAt(geom coherence.Geometry, home coherence.NodeID) coherence.Addr {
	for p := uint64(0); ; p++ {
		a := coherence.Addr(p * geom.PageSize())
		if geom.Home(a) == home {
			return a
		}
	}
}

// TestFigure1Flow reproduces Figure 1: P2 holds a block exclusive, P1
// stores to it. Five protocol actions, four messages:
// get_rw_request, inval_rw_request, inval_rw_response, get_rw_response.
func TestFigure1Flow(t *testing.T) {
	l := newSystem(t, 4, DefaultOptions())
	addr := blockHomedAt(l.geom, 0) // directory on P0
	// P2 obtains the block exclusive.
	l.access(2, addr, true)
	l.reset()

	// P1 stores.
	l.access(1, addr, true)
	want := []coherence.MsgType{
		coherence.GetRWReq,    // P1 -> Dir (2)
		coherence.InvalRWReq,  // Dir -> P2 (3)
		coherence.InvalRWResp, // P2 -> Dir (4)
		coherence.GetRWResp,   // Dir -> P1 (5)
	}
	if !eqTypes(l.types(), want) {
		t.Fatalf("message flow = %v, want %v", l.types(), want)
	}
	if got := l.caches[1].State(addr); got != CacheReadWrite {
		t.Errorf("P1 state = %v, want read-write", got)
	}
	if got := l.caches[2].State(addr); got != CacheInvalid {
		t.Errorf("P2 state = %v, want invalid", got)
	}
}

// TestProducerConsumerSignature reproduces the Figure 2 message
// sequence at the producer for the shared_counter pattern: after steady
// state, the producer sees get_rw_response then inval_rw_request per
// round, and the directory sees get_rw_request, inval_ro_response,
// get_ro_request, inval_rw_response.
func TestProducerConsumerSignature(t *testing.T) {
	l := newSystem(t, 4, DefaultOptions())
	addr := blockHomedAt(l.geom, 3)
	prod, cons := 1, 2

	// Warm up one round.
	l.access(prod, addr, true)
	l.access(cons, addr, false)
	l.reset()

	// Steady-state round: producer writes (consumer holds RO), then
	// consumer reads (producer holds RW).
	l.access(prod, addr, true)
	l.access(cons, addr, false)
	want := []coherence.MsgType{
		coherence.GetRWReq,    // producer write miss
		coherence.InvalROReq,  // directory invalidates consumer
		coherence.InvalROResp, // consumer acks
		coherence.GetRWResp,   // producer gets exclusive
		coherence.GetROReq,    // consumer read miss
		coherence.InvalRWReq,  // half-migratory: invalidate producer
		coherence.InvalRWResp, // producer returns block
		coherence.GetROResp,   // consumer gets shared copy
	}
	if !eqTypes(l.types(), want) {
		t.Fatalf("round = %v, want %v", l.types(), want)
	}
}

// TestHalfMigratoryVsDowngrade: with the optimization off, a read miss
// to an exclusive block downgrades the owner instead of invalidating
// it, and the owner keeps a readable copy.
func TestHalfMigratoryVsDowngrade(t *testing.T) {
	l := newSystem(t, 4, Options{HalfMigratory: false})
	addr := blockHomedAt(l.geom, 0)
	l.access(1, addr, true) // P1 exclusive
	l.reset()

	l.access(2, addr, false) // P2 read
	want := []coherence.MsgType{
		coherence.GetROReq,
		coherence.DowngradeReq,
		coherence.DowngradeResp,
		coherence.GetROResp,
	}
	if !eqTypes(l.types(), want) {
		t.Fatalf("flow = %v, want %v", l.types(), want)
	}
	if got := l.caches[1].State(addr); got != CacheReadOnly {
		t.Errorf("P1 state after downgrade = %v, want read-only", got)
	}
	// Both P1 and P2 must be sharers now.
	sh := l.dirs[0].Sharers(addr)
	if len(sh) != 2 {
		t.Errorf("sharers = %v, want {P1,P2}", sh)
	}
}

// TestHalfMigratoryInvalidatesOnRead: with the optimization on, the
// former owner loses its copy entirely.
func TestHalfMigratoryInvalidatesOnRead(t *testing.T) {
	l := newSystem(t, 4, DefaultOptions())
	addr := blockHomedAt(l.geom, 0)
	l.access(1, addr, true)
	l.access(2, addr, false)
	if got := l.caches[1].State(addr); got != CacheInvalid {
		t.Errorf("P1 state = %v, want invalid (half-migratory)", got)
	}
	sh := l.dirs[0].Sharers(addr)
	if len(sh) != 1 || sh[0] != 2 {
		t.Errorf("sharers = %v, want {P2}", sh)
	}
}

// TestUpgradeWithMultipleSharers: a store to a shared copy invalidates
// all other sharers and completes with upgrade_response.
func TestUpgradeWithMultipleSharers(t *testing.T) {
	l := newSystem(t, 8, DefaultOptions())
	addr := blockHomedAt(l.geom, 0)
	for _, p := range []int{1, 2, 3, 4} {
		l.access(p, addr, false)
	}
	l.reset()

	l.access(2, addr, true)
	types := l.types()
	// upgrade_request, then 3 inval_ro_request / inval_ro_response
	// pairs (order interleaved by the loopback), then upgrade_response.
	if types[0] != coherence.UpgradeReq {
		t.Fatalf("first message = %v, want upgrade_request", types[0])
	}
	if types[len(types)-1] != coherence.UpgradeResp {
		t.Fatalf("last message = %v, want upgrade_response", types[len(types)-1])
	}
	var invReq, invResp int
	for _, mt := range types[1 : len(types)-1] {
		switch mt {
		case coherence.InvalROReq:
			invReq++
		case coherence.InvalROResp:
			invResp++
		default:
			t.Fatalf("unexpected message %v in invalidation phase", mt)
		}
	}
	if invReq != 3 || invResp != 3 {
		t.Errorf("invalidations = %d req / %d resp, want 3/3", invReq, invResp)
	}
	for _, p := range []int{1, 3, 4} {
		if got := l.caches[p].State(addr); got != CacheInvalid {
			t.Errorf("P%d state = %v, want invalid", p, got)
		}
	}
	if got := l.caches[2].State(addr); got != CacheReadWrite {
		t.Errorf("P2 state = %v, want read-write", got)
	}
}

// TestSoleSharerUpgradeIsLocalToDirectory: the only sharer upgrading
// needs no invalidations.
func TestSoleSharerUpgrade(t *testing.T) {
	l := newSystem(t, 4, DefaultOptions())
	addr := blockHomedAt(l.geom, 0)
	l.access(1, addr, false)
	l.reset()
	l.access(1, addr, true)
	want := []coherence.MsgType{coherence.UpgradeReq, coherence.UpgradeResp}
	if !eqTypes(l.types(), want) {
		t.Fatalf("flow = %v, want %v", l.types(), want)
	}
}

// TestHomeNodeAccessesGenerateNoMessages: Section 5.1 — directory pages
// double as the home node's cache pages.
func TestHomeNodeAccessesGenerateNoMessages(t *testing.T) {
	l := newSystem(t, 4, DefaultOptions())
	addr := blockHomedAt(l.geom, 2)
	l.access(2, addr, false)
	l.access(2, addr, true)
	l.access(2, addr, false)
	if len(l.log) != 0 {
		t.Fatalf("home-node accesses generated %d messages: %v", len(l.log), l.log)
	}
	if got := l.caches[2].State(addr); got != CacheReadWrite {
		t.Errorf("home state = %v, want read-write", got)
	}
}

// TestHomeOwnerReclaimedWithoutMessages: a remote read to a block the
// home node holds exclusive generates only the requestor's pair.
func TestHomeOwnerReclaimedWithoutMessages(t *testing.T) {
	l := newSystem(t, 4, DefaultOptions())
	addr := blockHomedAt(l.geom, 2)
	l.access(2, addr, true) // home exclusive, silent
	l.reset()
	l.access(0, addr, false)
	want := []coherence.MsgType{coherence.GetROReq, coherence.GetROResp}
	if !eqTypes(l.types(), want) {
		t.Fatalf("flow = %v, want %v", l.types(), want)
	}
	if got := l.caches[2].State(addr); got != CacheInvalid {
		t.Errorf("home state = %v, want invalid after half-migratory reclaim", got)
	}
}

// TestHomeSharerDroppedSilentlyOnRemoteWrite: a remote write to a block
// the home shares generates no invalidation message to the home.
func TestHomeSharerDroppedSilently(t *testing.T) {
	l := newSystem(t, 4, DefaultOptions())
	addr := blockHomedAt(l.geom, 2)
	l.access(2, addr, false) // home RO, silent
	l.reset()
	l.access(0, addr, true)
	want := []coherence.MsgType{coherence.GetRWReq, coherence.GetRWResp}
	if !eqTypes(l.types(), want) {
		t.Fatalf("flow = %v, want %v", l.types(), want)
	}
	if got := l.caches[2].State(addr); got != CacheInvalid {
		t.Errorf("home state = %v, want invalid", got)
	}
}

// TestReadSharingAccumulates: multiple readers all become sharers with
// no invalidation traffic.
func TestReadSharingAccumulates(t *testing.T) {
	l := newSystem(t, 8, DefaultOptions())
	addr := blockHomedAt(l.geom, 0)
	for p := 1; p < 8; p++ {
		l.access(p, addr, false)
	}
	if len(l.log) != 14 { // 7 request/response pairs
		t.Fatalf("log has %d messages, want 14", len(l.log))
	}
	if sh := l.dirs[0].Sharers(addr); len(sh) != 7 {
		t.Errorf("sharers = %v, want 7 readers", sh)
	}
	for p := 1; p < 8; p++ {
		if got := l.caches[p].State(addr); got != CacheReadOnly {
			t.Errorf("P%d = %v, want read-only", p, got)
		}
	}
}

// TestMigratorySignature: read-modify-write migrating through
// processors yields the Section 6.1 moldyn directory signature:
// get_ro_request, upgrade_request, then for each subsequent processor
// get_ro_request / inval_rw_response / upgrade_request.
func TestMigratorySignature(t *testing.T) {
	l := newSystem(t, 4, DefaultOptions())
	addr := blockHomedAt(l.geom, 0)
	l.access(1, addr, false)
	l.access(1, addr, true)
	l.reset()

	l.access(2, addr, false)
	l.access(2, addr, true)
	want := []coherence.MsgType{
		coherence.GetROReq,    // P2 read miss
		coherence.InvalRWReq,  // fetch from P1 (half-migratory)
		coherence.InvalRWResp, // P1 gives it up
		coherence.GetROResp,   // P2 shared
		coherence.UpgradeReq,  // P2 write
		coherence.UpgradeResp, // sole sharer: immediate
	}
	if !eqTypes(l.types(), want) {
		t.Fatalf("flow = %v, want %v", l.types(), want)
	}
}

// TestCacheStateQueries: State reflects protocol transitions.
func TestCacheStateTransitions(t *testing.T) {
	l := newSystem(t, 4, DefaultOptions())
	addr := blockHomedAt(l.geom, 0)
	c := l.caches[1]
	if got := c.State(addr); got != CacheInvalid {
		t.Fatalf("initial state = %v", got)
	}
	l.access(1, addr, false)
	if got := c.State(addr); got != CacheReadOnly {
		t.Fatalf("after read = %v", got)
	}
	l.access(1, addr, true)
	if got := c.State(addr); got != CacheReadWrite {
		t.Fatalf("after write = %v", got)
	}
}

// TestCacheHitsAreSilent: repeated accesses allowed by the current
// state generate no messages.
func TestCacheHitsAreSilent(t *testing.T) {
	l := newSystem(t, 4, DefaultOptions())
	addr := blockHomedAt(l.geom, 0)
	l.access(1, addr, true)
	l.reset()
	for i := 0; i < 5; i++ {
		l.access(1, addr, false)
		l.access(1, addr, true)
	}
	if len(l.log) != 0 {
		t.Fatalf("hits generated messages: %v", l.log)
	}
}

// TestCacheStatsCounting checks miss classification.
func TestCacheStats(t *testing.T) {
	l := newSystem(t, 4, DefaultOptions())
	addr := blockHomedAt(l.geom, 0)
	addr2 := blockHomedAt(l.geom, 3)
	l.access(1, addr, false) // load miss
	l.access(1, addr, false) // load hit
	l.access(1, addr, true)  // upgrade miss
	l.access(1, addr2, true) // store miss
	l.access(1, addr2, true) // store hit
	loads, stores, lm, sm, um, _ := l.caches[1].Stats()
	if loads != 2 || stores != 3 {
		t.Errorf("loads=%d stores=%d, want 2/3", loads, stores)
	}
	if lm != 1 || sm != 1 || um != 1 {
		t.Errorf("misses lm=%d sm=%d um=%d, want 1/1/1", lm, sm, um)
	}
}

// TestDirectoryStateString covers the String methods.
func TestStateStrings(t *testing.T) {
	if dirIdle.String() != "idle" || dirShared.String() != "shared" ||
		dirExclusive.String() != "exclusive" || dirBusy.String() != "busy" {
		t.Error("dirState strings wrong")
	}
	if CacheInvalid.String() != "invalid" || CacheReadOnly.String() != "read-only" ||
		CacheReadWrite.String() != "read-write" {
		t.Error("CacheState strings wrong")
	}
	if dirState(99).String() == "" || CacheState(99).String() == "" {
		t.Error("out-of-range state strings empty")
	}
}

// TestNodeSet exercises the bitmask sharer set.
func TestNodeSet(t *testing.T) {
	var s nodeSet
	if !s.empty() || s.count() != 0 {
		t.Fatal("zero set not empty")
	}
	s.add(3)
	s.add(7)
	s.add(3)
	if s.count() != 2 || !s.has(3) || !s.has(7) || s.has(0) {
		t.Fatalf("set = %b", s)
	}
	if s.only(3) {
		t.Error("only(3) true with two members")
	}
	s.remove(7)
	if !s.only(3) {
		t.Error("only(3) false after removing 7")
	}
	var visited []coherence.NodeID
	s.add(1)
	s.forEach(16, func(n coherence.NodeID) { visited = append(visited, n) })
	if len(visited) != 2 || visited[0] != 1 || visited[1] != 3 {
		t.Errorf("forEach order = %v, want [P1 P3]", visited)
	}
}

// TestWritebackFlow: explicit writeback support (unused by Stache's
// no-replacement policy, but part of the protocol).
func TestWritebackFlow(t *testing.T) {
	l := newSystem(t, 4, DefaultOptions())
	addr := blockHomedAt(l.geom, 0)
	l.access(1, addr, true)
	l.reset()
	l.caches[1].Evict(addr)
	want := []coherence.MsgType{coherence.WritebackReq, coherence.WritebackAck}
	if !eqTypes(l.types(), want) {
		t.Fatalf("flow = %v, want %v", l.types(), want)
	}
	// Directory back to idle: next reader gets it without invalidation.
	l.reset()
	l.access(2, addr, false)
	want = []coherence.MsgType{coherence.GetROReq, coherence.GetROResp}
	if !eqTypes(l.types(), want) {
		t.Fatalf("post-writeback read flow = %v, want %v", l.types(), want)
	}
}

// TestObserverSeesIncomingOnly: observers fire once per received
// message on the correct side.
func TestObservers(t *testing.T) {
	geom := coherence.MustGeometry(64, 256, 4)
	var cacheSeen, dirSeen []coherence.Msg
	l := &loopback{t: t, geom: geom}
	l.caches = make([]*Cache, 4)
	l.dirs = make([]*Directory, 4)
	for i := 0; i < 4; i++ {
		node := coherence.NodeID(i)
		l.dirs[i] = NewDirectory(node, geom, l, DefaultOptions(), func(m coherence.Msg) { dirSeen = append(dirSeen, m) })
		l.caches[i] = NewCache(node, geom, l, l.dirs[i], DefaultOptions(), func(m coherence.Msg) { cacheSeen = append(cacheSeen, m) })
	}
	addr := blockHomedAt(geom, 0)
	l.access(1, addr, true)
	l.access(2, addr, false)
	for _, m := range dirSeen {
		if !m.Type.DirectoryBound() {
			t.Errorf("directory observer saw %v", m)
		}
	}
	for _, m := range cacheSeen {
		if !m.Type.CacheBound() {
			t.Errorf("cache observer saw %v", m)
		}
	}
	// P1 write: get_rw_req@dir, get_rw_resp@cache. P2 read:
	// get_ro_req@dir, inval_rw_req@P1cache, inval_rw_resp@dir,
	// get_ro_resp@P2cache.
	if len(dirSeen) != 3 || len(cacheSeen) != 3 {
		t.Errorf("observed %d dir / %d cache messages, want 3/3", len(dirSeen), len(cacheSeen))
	}
}

func TestEntryState(t *testing.T) {
	l := newSystem(t, 4, DefaultOptions())
	addr := blockHomedAt(l.geom, 0)
	if got := l.dirs[0].EntryState(addr); got != "idle" {
		t.Errorf("initial state = %q", got)
	}
	l.access(1, addr, false)
	l.access(2, addr, false)
	if got := l.dirs[0].EntryState(addr); got != "shared{P1,P2}" {
		t.Errorf("shared state = %q", got)
	}
	l.access(3, addr, true)
	if got := l.dirs[0].EntryState(addr); got != "exclusive{P3}" {
		t.Errorf("exclusive state = %q", got)
	}
	if got := l.dirs[0].EntryCount(); got != 1 {
		t.Errorf("EntryCount = %d", got)
	}
}

func TestHomeStateSharedView(t *testing.T) {
	l := newSystem(t, 4, DefaultOptions())
	addr := blockHomedAt(l.geom, 2)
	l.access(2, addr, false) // home reads: shared{home}
	if got := l.caches[2].State(addr); got != CacheReadOnly {
		t.Errorf("home read state = %v, want read-only", got)
	}
	l.access(0, addr, true) // remote write drops home silently
	if got := l.caches[2].State(addr); got != CacheInvalid {
		t.Errorf("home state after remote write = %v", got)
	}
}

// TestBlockPointersStayValid pins the contract the handlers rely on: a
// *dirEntry or *cacheLine stays the live state of its block however
// many blocks are added after it.
func TestBlockPointersStayValid(t *testing.T) {
	l := newSystem(t, 2, DefaultOptions())
	dir, cache := l.dirs[0], l.caches[1]
	dirAddr, lineAddr := coherence.Addr(0), coherence.Addr(0x40)
	e, ln := dir.entry(dirAddr), cache.line(lineAddr)
	for i := 1; i <= 10000; i++ {
		dir.entry(coherence.Addr(i * 0x40))
		cache.line(coherence.Addr((i + 1) * 0x40))
	}
	if dir.EntryCount() != 10001 || cache.LineCount() != 10001 {
		t.Fatalf("EntryCount %d, LineCount %d; want 10001 each", dir.EntryCount(), cache.LineCount())
	}
	if dir.entry(dirAddr) != e || cache.line(lineAddr) != ln {
		t.Fatal("a block's state moved after later inserts")
	}
	e.state, e.owner = dirExclusive, 1
	ln.state = CacheReadWrite
	if got := dir.EntryState(dirAddr); got != "exclusive{P1}" {
		t.Errorf("write through old *dirEntry not visible: %s", got)
	}
	if got := cache.State(lineAddr); got != CacheReadWrite {
		t.Errorf("write through old *cacheLine not visible: state %v", got)
	}
}
