// Package invariant implements a runtime coherence invariant monitor:
// a redundant, protocol-independent checker that the machine's step
// loop drives at a configurable event cadence and again at quiesce.
// Where the protocol's own assertions (stache's expect panics) guard
// individual handlers, the monitor cross-checks the *global* state the
// handlers collectively maintain, so a bookkeeping bug that leaves the
// system silently incoherent fails the run with a structured
// diagnostic instead of producing a wrong answer.
//
// Four invariant families are checked:
//
//   - SWMR: for every block, at most one cache holds a read-write copy,
//     and a read-write copy never coexists with read-only copies. This
//     must hold at every instant, so it is checked on every sweep
//     without regard to in-flight transactions.
//   - Directory/cache agreement: the home directory's full-map sharer
//     bits and exclusive owner match the states the caches actually
//     hold. Agreement only holds when a block is quiet (no busy entry,
//     no pending cache transaction, no in-flight message), so mid-run
//     sweeps skip active blocks; the quiesce check covers every block.
//     With bounded caches, silent read-only evictions legitimately
//     leave stale sharer bits, so the directory's view may be a strict
//     superset of the caches' copies.
//   - Message conservation: every protocol message sent is delivered
//     exactly once. The monitor taps the send path and the delivery
//     observers, keeping a per-block in-flight balance; a delivery
//     without a matching send (duplication) fails immediately, and a
//     send without a delivery (a leak) or a transaction still pending
//     fails the quiesce check.
//   - Variant and transition legality: the message stream must respect
//     the configured protocol variant (no downgrades under the
//     half-migratory option, no forwarding grants when forwarding is
//     off, requests routed to the block's home), every delivery must be
//     legal for a shadow replica of the receiving cache's state
//     machine, and directory entries must be internally well-formed
//     (an exclusive entry has an owner and no sharers, a busy entry is
//     owed acknowledgments, and so on).
//
// On the first violation the monitor produces a *Violation: the rule,
// the block, per-node cache states beside the monitor's shadow states,
// the home directory entry, and the last-K messages for the block from
// the monitor's trace ring — enough to diagnose the failure without
// re-running under a debugger.
package invariant

import (
	"fmt"
	"sort"
	"strings"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/sim"
	"github.com/cosmos-coherence/cosmos/internal/stache"
)

// View is the read-only window the monitor has into the machine. The
// machine implements it; tests may substitute a fixture.
type View interface {
	// Geometry returns the machine's address geometry.
	Geometry() coherence.Geometry
	// ProtocolOptions returns the protocol variant under test.
	ProtocolOptions() stache.Options
	// CacheState returns node n's stable state for block addr.
	CacheState(n coherence.NodeID, addr coherence.Addr) stache.CacheState
	// CachePending reports node n's outstanding transaction on addr.
	CachePending(n coherence.NodeID, addr coherence.Addr) (kind string, ok bool)
	// CacheSpec reports whether node n holds addr as an unclaimed
	// speculative (pushed) copy.
	CacheSpec(n coherence.NodeID, addr coherence.Addr) bool
	// HomeEntry returns the home directory's entry for addr.
	HomeEntry(addr coherence.Addr) (stache.EntryInfo, bool)
	// DirectoryBlocks returns every block any directory tracks, sorted.
	DirectoryBlocks() []coherence.Addr
	// NetworkInFlight returns coherence messages on the wire.
	NetworkInFlight() int
	// TransportUndelivered returns frames the reliable transport still
	// owes the protocol, or -1 when no transport is layered.
	TransportUndelivered() int
}

// Rule names identify which invariant family a violation belongs to.
const (
	RuleSWMR         = "swmr"
	RuleAgreement    = "agreement"
	RuleConservation = "conservation"
	RuleLegality     = "legality"
	RuleTransition   = "transition"
	// RuleSpeculation covers the ProtocolRollback safety contract: an
	// unclaimed speculative copy is always read-only and always backed
	// by matching spec-pushed bookkeeping at the home directory (so the
	// discard path can find it), speculative state exists only when the
	// Speculation option is on, and none of it — cache copies, pushed
	// marks, downgrade expectations — survives to quiesce.
	RuleSpeculation = "speculation"
)

// Config tunes the monitor.
type Config struct {
	// Every is the mid-run sweep cadence in monitor ticks (one tick per
	// fired event); 0 means the default of 4096. Message-level checks
	// (conservation balance, variant legality, shadow transitions) run
	// on every message regardless of cadence.
	Every uint64
	// HistoryK is the per-block message ring size kept for diagnostics;
	// 0 means the default of 8.
	HistoryK int
}

// DefaultEvery is the default mid-run sweep cadence in events.
const DefaultEvery = 4096

// DefaultHistoryK is the default per-block diagnostic ring size.
const DefaultHistoryK = 8

// shadowPend mirrors the cache controller's outstanding-transaction
// kinds, reconstructed purely from the observed message stream.
type shadowPend uint8

const (
	shadowNone shadowPend = iota
	shadowFetchRO
	shadowFetchRW
	shadowUpgrade
	shadowWriteback
)

func (p shadowPend) String() string {
	switch p {
	case shadowNone:
		return "none"
	case shadowFetchRO:
		return "fetch-ro"
	case shadowFetchRW:
		return "fetch-rw"
	case shadowUpgrade:
		return "upgrade"
	case shadowWriteback:
		return "writeback"
	}
	return fmt.Sprintf("shadowPend(%d)", uint8(p))
}

// shadowLine is the monitor's replica of one (node, block) cache line,
// driven only by observed messages — deliberately independent of the
// cache controller's own bookkeeping so the two can be cross-checked.
type shadowLine struct {
	state stache.CacheState
	pend  shadowPend
	// spec marks a shadow read-only line installed by an observed
	// spec_push. The real cache may legitimately have dropped the push
	// (bounded cache, drain) — the one tolerated shadow/real divergence
	// beyond bounded-cache silent evictions.
	spec bool
}

type shadowKey struct {
	node coherence.NodeID
	addr coherence.Addr
}

// ringEntry is one diagnostic trace-ring record.
type ringEntry struct {
	at   sim.Time
	recv bool // false = protocol send, true = delivery
	msg  coherence.Msg
}

func (e ringEntry) String() string {
	dir := "send"
	if e.recv {
		dir = "recv"
	}
	return fmt.Sprintf("t=%v %s %v", e.at, dir, e.msg)
}

// ringBuf keeps the last K entries for one block.
type ringBuf struct {
	buf  []ringEntry
	next int
	full bool
}

func (r *ringBuf) push(e ringEntry) {
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// entries returns the ring oldest-first.
func (r *ringBuf) entries() []ringEntry {
	if !r.full {
		return append([]ringEntry(nil), r.buf[:r.next]...)
	}
	out := make([]ringEntry, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Monitor is the runtime invariant checker. machine.New creates,
// binds and attaches one when sim.Config.Invariants is set (wiring the
// clock, the send tap, and the delivery observer), and the machine's
// Run loop does the rest.
type Monitor struct {
	cfg     Config
	clock   func() sim.Time
	geom    coherence.Geometry
	opts    stache.Options
	bounded bool

	// inflight is the per-block balance of protocol sends minus
	// deliveries; the map's keys double as the set of blocks the
	// monitor has seen traffic for.
	inflight map[coherence.Addr]int
	shadow   map[shadowKey]*shadowLine
	rings    map[coherence.Addr]*ringBuf

	ticks     uint64
	sweeps    uint64
	messages  uint64
	violation *Violation
}

// New creates a monitor. It must be bound (machine.New does this)
// before it observes anything.
func New(cfg Config) *Monitor {
	if cfg.Every == 0 {
		cfg.Every = DefaultEvery
	}
	if cfg.HistoryK <= 0 {
		cfg.HistoryK = DefaultHistoryK
	}
	return &Monitor{
		cfg:      cfg,
		inflight: make(map[coherence.Addr]int),
		shadow:   make(map[shadowKey]*shadowLine),
		rings:    make(map[coherence.Addr]*ringBuf),
	}
}

// Bind wires the monitor to a machine's clock, geometry, and protocol
// options. machine.New calls this when sim.Config.Invariants is set.
func (m *Monitor) Bind(clock func() sim.Time, geom coherence.Geometry, opts stache.Options) {
	m.clock = clock
	m.geom = geom
	m.opts = opts
	m.bounded = opts.CacheBlocks > 0
}

// Sweeps returns how many full state sweeps have run.
func (m *Monitor) Sweeps() uint64 { return m.sweeps }

// Messages returns how many protocol messages the monitor observed
// (sends plus deliveries).
func (m *Monitor) Messages() uint64 { return m.messages }

// Err returns the first violation, or nil.
func (m *Monitor) Err() error {
	if m.violation == nil {
		return nil
	}
	return m.violation
}

// now returns the bound clock's time, or zero before binding.
func (m *Monitor) now() sim.Time {
	if m.clock == nil {
		return 0
	}
	return m.clock()
}

// violate records the first violation; later ones are dropped (the
// machine halts on the first anyway, and later ones are usually
// knock-on effects of the first).
func (m *Monitor) violate(rule string, block coherence.Addr, format string, args ...any) {
	if m.violation != nil {
		return
	}
	v := &Violation{
		Rule:   rule,
		Block:  block,
		At:     m.now(),
		Detail: fmt.Sprintf(format, args...),
	}
	if r, ok := m.rings[block]; ok {
		for _, e := range r.entries() {
			v.History = append(v.History, e.String())
		}
	}
	m.violation = v
}

// record adds a message to the block's diagnostic ring.
func (m *Monitor) record(msg coherence.Msg, recv bool) {
	r, ok := m.rings[msg.Addr]
	if !ok {
		r = &ringBuf{buf: make([]ringEntry, m.cfg.HistoryK)}
		m.rings[msg.Addr] = r
	}
	r.push(ringEntry{at: m.now(), recv: recv, msg: msg})
}

// line returns (creating) the shadow line for (node, addr).
func (m *Monitor) line(n coherence.NodeID, addr coherence.Addr) *shadowLine {
	k := shadowKey{node: n, addr: addr}
	l, ok := m.shadow[k]
	if !ok {
		l = &shadowLine{}
		m.shadow[k] = l
	}
	return l
}

// ObserveSend taps every protocol-level send (the machine wraps the
// sender it hands to caches and directories). It updates conservation
// balances and the shadow state machine, and checks variant legality.
func (m *Monitor) ObserveSend(msg coherence.Msg) {
	m.messages++
	m.record(msg, false)
	m.inflight[msg.Addr]++

	home := m.geom.Home(msg.Addr)
	if m.opts.HalfMigratory && (msg.Type == coherence.DowngradeReq || msg.Type == coherence.DowngradeResp) {
		m.violate(RuleLegality, msg.Addr,
			"%v sent under the half-migratory variant, which never downgrades", msg)
	}
	if msg.Type == coherence.SpecPush {
		if !m.opts.Speculation {
			m.violate(RuleSpeculation, msg.Addr,
				"%v sent but Options.Speculation is off (base protocol must be untouched)", msg)
		} else if msg.Src != home {
			m.violate(RuleSpeculation, msg.Addr,
				"%v pushed by non-home node (home %v)", msg, home)
		}
	}
	if !m.opts.Forwarding && msg.Grant.Valid() {
		m.violate(RuleLegality, msg.Addr,
			"%v carries forwarding grant %v but forwarding is disabled", msg, msg.Grant)
	}
	switch {
	case msg.Type.DirectoryBound() && msg.Dst != home:
		m.violate(RuleLegality, msg.Addr,
			"%v misrouted: block is homed at %v", msg, home)
	case msg.Type.CacheBound() && !m.opts.Forwarding && msg.Src != home:
		m.violate(RuleLegality, msg.Addr,
			"%v sent by non-home %v with forwarding disabled (home %v)", msg, msg.Src, home)
	}

	// Shadow bookkeeping for cache-originated requests. Acknowledgment
	// sends change nothing: the shadow transitioned when the triggering
	// invalidation was delivered.
	//cosmosvet:allow exhaustive only cache-originated request types start shadow transactions; acks and directory-originated types are deliberately inert here
	switch msg.Type {
	case coherence.GetROReq:
		m.line(msg.Src, msg.Addr).pend = shadowFetchRO
	case coherence.GetRWReq:
		m.line(msg.Src, msg.Addr).pend = shadowFetchRW
	case coherence.UpgradeReq:
		m.line(msg.Src, msg.Addr).pend = shadowUpgrade
	case coherence.WritebackReq:
		l := m.line(msg.Src, msg.Addr)
		l.pend = shadowWriteback
		l.state = stache.CacheInvalid
	}
}

// observeDelivery retires one in-flight message; a delivery that was
// never sent (or sent once and delivered twice) trips conservation.
func (m *Monitor) observeDelivery(msg coherence.Msg) {
	m.messages++
	m.record(msg, true)
	m.inflight[msg.Addr]--
	if m.inflight[msg.Addr] < 0 {
		m.violate(RuleConservation, msg.Addr,
			"%v delivered without a matching send (duplicated or fabricated in transit)", msg)
	}
}

// ObserveCache implements machine.Observer: a delivery to node's cache
// controller. The message must be legal for the shadow replica of the
// line, which then transitions exactly as the real cache should.
func (m *Monitor) ObserveCache(node coherence.NodeID, msg coherence.Msg) {
	m.observeDelivery(msg)
	l := m.line(node, msg.Addr)
	//cosmosvet:allow exhaustive directory-bound types never reach a cache (the machine routes by direction and network.Send rejects invalid types), so only cache-bound deliveries are modeled
	switch msg.Type {
	case coherence.GetROResp:
		if l.pend != shadowFetchRO {
			m.violate(RuleTransition, msg.Addr,
				"%v delivered to %v with no read fetch outstanding (shadow %v/%v)", msg, node, l.state, l.pend)
		}
		l.state, l.pend, l.spec = stache.CacheReadOnly, shadowNone, false
	case coherence.GetRWResp:
		// Legal for a write miss, an upgrade converted by a racing
		// invalidation, and a read miss answered exclusively by a
		// speculating directory (the Section 4 RMW action).
		if l.pend == shadowNone || l.pend == shadowWriteback {
			m.violate(RuleTransition, msg.Addr,
				"%v delivered to %v with no fetch or upgrade outstanding (shadow %v/%v)", msg, node, l.state, l.pend)
		}
		l.state, l.pend, l.spec = stache.CacheReadWrite, shadowNone, false
	case coherence.UpgradeResp:
		if l.pend != shadowUpgrade {
			m.violate(RuleTransition, msg.Addr,
				"%v delivered to %v with no upgrade outstanding (shadow %v/%v)", msg, node, l.state, l.pend)
		}
		l.state, l.pend, l.spec = stache.CacheReadWrite, shadowNone, false
	case coherence.InvalROReq:
		if l.state == stache.CacheReadWrite {
			m.violate(RuleTransition, msg.Addr,
				"%v delivered to %v holding a read-write copy (shadow %v/%v)", msg, node, l.state, l.pend)
		}
		l.state, l.spec = stache.CacheInvalid, false
	case coherence.InvalRWReq:
		if l.state != stache.CacheReadWrite && l.pend != shadowWriteback {
			m.violate(RuleTransition, msg.Addr,
				"%v delivered to %v not holding a read-write copy (shadow %v/%v)", msg, node, l.state, l.pend)
		}
		l.state, l.spec = stache.CacheInvalid, false
	case coherence.DowngradeReq:
		if l.state != stache.CacheReadWrite && l.pend != shadowWriteback {
			m.violate(RuleTransition, msg.Addr,
				"%v delivered to %v not holding a read-write copy (shadow %v/%v)", msg, node, l.state, l.pend)
		}
		if l.pend != shadowWriteback {
			l.state = stache.CacheReadOnly
		}
	case coherence.WritebackAck:
		if l.pend != shadowWriteback {
			m.violate(RuleTransition, msg.Addr,
				"%v delivered to %v with no writeback outstanding (shadow %v/%v)", msg, node, l.state, l.pend)
		}
		l.pend = shadowNone
	case coherence.SpecPush:
		// The shadow installs a speculative read-only copy exactly when
		// an untouched real cache would. The real cache may additionally
		// drop the push (bounded cache, drain) — checkShadow tolerates
		// that one divergence via the spec mark.
		if l.state == stache.CacheInvalid && l.pend == shadowNone {
			l.state, l.spec = stache.CacheReadOnly, true
		}
	}
}

// ObserveDirectory implements machine.Observer: a delivery to node's
// directory controller.
func (m *Monitor) ObserveDirectory(node coherence.NodeID, msg coherence.Msg) {
	m.observeDelivery(msg)
}

// EndIteration implements machine.Observer; iteration boundaries carry
// no invariant obligations.
func (m *Monitor) EndIteration(int) {}

// Tick is called by the machine after every fired event. It surfaces
// any violation recorded by the observer hooks during the event and
// runs a full state sweep at the configured cadence.
func (m *Monitor) Tick(v View) error {
	if m.violation == nil {
		m.ticks++
		if m.ticks%m.cfg.Every == 0 {
			m.sweep(v, false)
		}
	}
	return m.finish(v)
}

// Check runs one mid-run state sweep immediately (tests and tools use
// it; the machine relies on Tick's cadence).
func (m *Monitor) Check(v View) error {
	if m.violation == nil {
		m.sweep(v, false)
	}
	return m.finish(v)
}

// CheckQuiesce runs the strict end-of-run check: the machine has
// drained its event queue, so every block must be quiet, every
// conservation balance zero, and every agreement exact.
func (m *Monitor) CheckQuiesce(v View) error {
	if m.violation == nil {
		m.checkConservationAtQuiesce(v)
	}
	if m.violation == nil {
		m.sweep(v, true)
	}
	return m.finish(v)
}

// finish enriches and returns the pending violation, if any.
func (m *Monitor) finish(v View) error {
	if m.violation == nil {
		return nil
	}
	m.violation.enrich(m, v)
	return m.violation
}

// blocks returns the union of every block the monitor has seen traffic
// for and every block any directory tracks, sorted.
func (m *Monitor) blocks(v View) []coherence.Addr {
	set := make(map[coherence.Addr]bool)
	for addr := range m.inflight {
		set[addr] = true
	}
	for _, addr := range v.DirectoryBlocks() {
		set[addr] = true
	}
	out := make([]coherence.Addr, 0, len(set))
	for addr := range set {
		out = append(out, addr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quiet reports whether block addr has no observable activity: no busy
// home entry, no in-flight message, and no outstanding cache
// transaction at any node.
func (m *Monitor) quiet(v View, addr coherence.Addr, entry stache.EntryInfo, tracked bool) bool {
	if tracked && entry.State == stache.EntryBusy {
		return false
	}
	if m.inflight[addr] != 0 {
		return false
	}
	for n := 0; n < m.geom.Nodes(); n++ {
		if _, pending := v.CachePending(coherence.NodeID(n), addr); pending {
			return false
		}
	}
	return true
}

// sweep checks every block. Mid-run (strict=false) the agreement and
// shadow cross-checks apply only to quiet blocks; at quiesce every
// block must already be quiet (checkConservationAtQuiesce enforces it)
// and agreement is exact.
func (m *Monitor) sweep(v View, strict bool) {
	m.sweeps++
	for _, addr := range m.blocks(v) {
		entry, tracked := v.HomeEntry(addr)
		m.checkSWMR(v, addr)
		if tracked {
			m.checkEntryWellFormed(addr, entry)
		}
		if m.violation != nil {
			return
		}
		if m.quiet(v, addr, entry, tracked) {
			m.checkAgreement(v, addr, entry, tracked)
			// Speculation before shadow: a bad speculative line trips both,
			// and the speculation diagnosis is the specific one.
			m.checkSpeculation(v, addr, entry, tracked)
			m.checkShadow(v, addr)
		}
		if strict {
			m.checkSpecQuiesce(v, addr, entry, tracked)
		}
		if m.violation != nil {
			return
		}
	}
}

// checkSpeculation enforces the rollback-class safety contract on a
// quiet block: a cache line marked speculative must be read-only (never
// processor-visible as writable data), must only exist when the
// Speculation option is on, and must be backed by matching spec-pushed
// bookkeeping at the home directory — otherwise the discard path could
// never find it (the "dangling speculative entry" the chaos
// spec-dangling self-check plants).
func (m *Monitor) checkSpeculation(v View, addr coherence.Addr, e stache.EntryInfo, tracked bool) {
	home := m.geom.Home(addr)
	for n := 0; n < m.geom.Nodes(); n++ {
		node := coherence.NodeID(n)
		if !v.CacheSpec(node, addr) {
			continue
		}
		if !m.opts.Speculation {
			m.violate(RuleSpeculation, addr,
				"%v holds a speculative copy but Options.Speculation is off", node)
			return
		}
		if node == home {
			m.violate(RuleSpeculation, addr,
				"home node %v holds a speculative copy of its own block", node)
			return
		}
		if st := v.CacheState(node, addr); st != stache.CacheReadOnly {
			m.violate(RuleSpeculation, addr,
				"%v marks a %v line speculative (pushed copies are read-only until claimed)", node, st)
			return
		}
		backed := false
		if tracked && e.State == stache.EntryShared {
			inSharers, inPushed := false, false
			for _, s := range e.Sharers {
				if s == node {
					inSharers = true
				}
			}
			for _, s := range e.SpecPushed {
				if s == node {
					inPushed = true
				}
			}
			backed = inSharers && inPushed
		}
		if !backed {
			m.violate(RuleSpeculation, addr,
				"%v holds an unclaimed speculative copy the home directory does not record as spec-pushed (dangling; directory %v)", node, e)
			return
		}
	}
}

// checkSpecQuiesce enforces that no speculative state of any kind —
// unclaimed cache copies, spec-pushed sharer marks, downgrade
// expectations — survives to quiesce: the end-of-run reconciler must
// have discarded all of it.
func (m *Monitor) checkSpecQuiesce(v View, addr coherence.Addr, e stache.EntryInfo, tracked bool) {
	for n := 0; n < m.geom.Nodes(); n++ {
		node := coherence.NodeID(n)
		if v.CacheSpec(node, addr) {
			m.violate(RuleSpeculation, addr,
				"%v still holds an unclaimed speculative copy at quiesce (discard path failed)", node)
			return
		}
	}
	if !tracked {
		return
	}
	if len(e.SpecPushed) > 0 {
		m.violate(RuleSpeculation, addr,
			"home entry retains spec-pushed marks %v at quiesce (reconciler failed)", e.SpecPushed)
		return
	}
	if e.SpecExpect != coherence.NoNode {
		m.violate(RuleSpeculation, addr,
			"home entry retains a downgrade expectation for %v at quiesce", e.SpecExpect)
	}
}

// checkSWMR enforces single-writer / multiple-reader on the real cache
// states: at most one read-write copy, and never readers beside it.
func (m *Monitor) checkSWMR(v View, addr coherence.Addr) {
	var writers, readers []coherence.NodeID
	for n := 0; n < m.geom.Nodes(); n++ {
		node := coherence.NodeID(n)
		switch v.CacheState(node, addr) {
		case stache.CacheReadWrite:
			writers = append(writers, node)
		case stache.CacheReadOnly:
			readers = append(readers, node)
		case stache.CacheInvalid:
		}
	}
	if len(writers) > 1 {
		m.violate(RuleSWMR, addr, "multiple writable copies held by %v", writers)
		return
	}
	if len(writers) == 1 && len(readers) > 0 {
		m.violate(RuleSWMR, addr, "writer %v coexists with readers %v", writers[0], readers)
	}
}

// checkEntryWellFormed enforces internal consistency of one directory
// entry regardless of cache states.
func (m *Monitor) checkEntryWellFormed(addr coherence.Addr, e stache.EntryInfo) {
	switch e.State {
	case stache.EntryIdle:
		if e.Owner != coherence.NoNode || len(e.Sharers) > 0 {
			m.violate(RuleLegality, addr, "idle entry retains owner %v / sharers %v", e.Owner, e.Sharers)
		}
	case stache.EntryShared:
		if e.Owner != coherence.NoNode {
			m.violate(RuleLegality, addr, "shared entry retains exclusive owner %v", e.Owner)
		} else if len(e.Sharers) == 0 {
			m.violate(RuleLegality, addr, "shared entry has no sharers")
		}
	case stache.EntryExclusive:
		if e.Owner == coherence.NoNode {
			m.violate(RuleLegality, addr, "exclusive entry has no owner")
		} else if len(e.Sharers) > 0 {
			m.violate(RuleLegality, addr, "exclusive entry (owner %v) retains sharer bits %v", e.Owner, e.Sharers)
		}
	case stache.EntryBusy:
		if e.AcksLeft <= 0 {
			m.violate(RuleLegality, addr, "busy entry is owed no acknowledgments")
		}
	}
}

// checkAgreement enforces directory/cache agreement for a quiet block:
// every cached copy is recorded by the home directory, and — except
// under bounded caches, whose silent read-only evictions leave stale
// sharer bits, or on an inexact (overflowed limited-pointer or coarse-
// vector) entry, which over-approximates by design — everything the
// directory records is actually cached.
func (m *Monitor) checkAgreement(v View, addr coherence.Addr, e stache.EntryInfo, tracked bool) {
	recorded := make(map[coherence.NodeID]bool)
	if tracked {
		switch e.State {
		case stache.EntryExclusive:
			recorded[e.Owner] = true
		case stache.EntryShared:
			for _, n := range e.Sharers {
				recorded[n] = true
			}
		case stache.EntryIdle, stache.EntryBusy:
		}
	}
	home := m.geom.Home(addr)
	for n := 0; n < m.geom.Nodes(); n++ {
		node := coherence.NodeID(n)
		state := v.CacheState(node, addr)
		if state == stache.CacheInvalid {
			if node != home && recorded[node] && !m.bounded && !e.Inexact {
				if tracked && e.State == stache.EntryExclusive {
					m.violate(RuleAgreement, addr,
						"directory records owner %v but %v holds no copy", node, node)
				} else {
					m.violate(RuleAgreement, addr,
						"directory records sharer %v but %v holds no copy", node, node)
				}
				return
			}
			continue
		}
		if !recorded[node] {
			m.violate(RuleAgreement, addr,
				"%v holds a %v copy the directory does not record (%v)", node, state, e)
			return
		}
		if state == stache.CacheReadWrite && (!tracked || e.State != stache.EntryExclusive) {
			m.violate(RuleAgreement, addr,
				"%v holds a read-write copy but the directory entry is %v", node, e)
			return
		}
		if state == stache.CacheReadOnly && tracked && e.State == stache.EntryExclusive {
			m.violate(RuleAgreement, addr,
				"%v holds a read-only copy but the directory entry is %v", node, e)
			return
		}
	}
	// A bounded cache may hold fewer copies than the directory records,
	// never more; an exclusive owner can't evict silently (the
	// writeback would have gone through the monitor), so even bounded
	// runs require the owner to hold its copy — checked above via the
	// read-write cases.
}

// checkShadow cross-checks the monitor's message-derived replica of
// each cache line against the real cache state for a quiet block. With
// bounded caches a shadow read-only line may be stale (silent
// eviction), but never the other way around.
func (m *Monitor) checkShadow(v View, addr coherence.Addr) {
	home := m.geom.Home(addr)
	for n := 0; n < m.geom.Nodes(); n++ {
		node := coherence.NodeID(n)
		if node == home {
			continue // home blocks live in the directory, not a cache line
		}
		l, ok := m.shadow[shadowKey{node: node, addr: addr}]
		if !ok {
			continue
		}
		real := v.CacheState(node, addr)
		if real == l.state {
			continue
		}
		if m.bounded && l.state == stache.CacheReadOnly && real == stache.CacheInvalid {
			continue // silent read-only eviction
		}
		if l.spec && l.state == stache.CacheReadOnly && real == stache.CacheInvalid {
			// The real cache dropped (or the reconciler discarded) a
			// pushed copy the shadow installed; losing speculative state
			// is always legal.
			continue
		}
		m.violate(RuleTransition, addr,
			"%v holds %v but the observed message stream implies %v", node, real, l.state)
		return
	}
}

// checkConservationAtQuiesce verifies that a drained machine owes
// nothing: all per-block send/delivery balances are zero, no cache
// transaction or busy directory entry is still open, and neither the
// wire nor the reliable transport holds undelivered messages.
func (m *Monitor) checkConservationAtQuiesce(v View) {
	for _, addr := range m.blocks(v) {
		if n := m.inflight[addr]; n != 0 {
			m.violate(RuleConservation, addr,
				"%d message(s) sent but never delivered (leaked in flight)", n)
			return
		}
		for n := 0; n < m.geom.Nodes(); n++ {
			node := coherence.NodeID(n)
			if kind, pending := v.CachePending(node, addr); pending {
				m.violate(RuleConservation, addr,
					"%v still has a %s transaction outstanding at quiesce", node, kind)
				return
			}
		}
		if e, ok := v.HomeEntry(addr); ok && e.State == stache.EntryBusy {
			m.violate(RuleConservation, addr,
				"home directory entry still busy at quiesce (%v)", e)
			return
		}
	}
	if n := v.NetworkInFlight(); n != 0 {
		m.violate(RuleConservation, 0,
			"network reports %d message(s) still on the wire after the event queue drained", n)
		return
	}
	if n := v.TransportUndelivered(); n > 0 {
		m.violate(RuleConservation, 0,
			"reliable transport still owes the protocol %d frame(s) at quiesce", n)
	}
}

// NodeView is one node's state for the violated block, for diagnostics.
type NodeView struct {
	Node    coherence.NodeID
	State   stache.CacheState
	Pending string // outstanding transaction kind, "" if none
	Shadow  string // monitor's message-derived state, "-" if untracked
}

// Violation is the structured diagnostic for one invariant failure.
// It implements error; machine.Run returns it wrapped.
type Violation struct {
	// Rule is the invariant family (Rule* constants).
	Rule string
	// Block is the block the violation concerns (0 for machine-wide
	// conservation failures).
	Block coherence.Addr
	// At is the simulated time of detection.
	At sim.Time
	// Detail is the one-line cause.
	Detail string
	// Nodes holds per-node cache states beside the monitor's shadow.
	Nodes []NodeView
	// Dir is the home directory entry rendering ("untracked" if none).
	Dir string
	// History is the last-K messages for the block, oldest first.
	History []string
}

// enrich fills the per-node and directory snapshots from the view.
func (v *Violation) enrich(m *Monitor, view View) {
	if v.Nodes != nil || view == nil {
		return
	}
	v.Nodes = []NodeView{} // mark enriched even on a zero-node view
	for n := 0; n < m.geom.Nodes(); n++ {
		node := coherence.NodeID(n)
		nv := NodeView{
			Node:   node,
			State:  view.CacheState(node, v.Block),
			Shadow: "-",
		}
		if kind, ok := view.CachePending(node, v.Block); ok {
			nv.Pending = kind
		}
		if l, ok := m.shadow[shadowKey{node: node, addr: v.Block}]; ok {
			nv.Shadow = l.state.String()
			if l.pend != shadowNone {
				nv.Shadow += "/" + l.pend.String()
			}
			if l.spec {
				nv.Shadow += " (spec)"
			}
		}
		v.Nodes = append(v.Nodes, nv)
	}
	if e, ok := view.HomeEntry(v.Block); ok {
		v.Dir = e.String()
	} else {
		v.Dir = "untracked"
	}
}

// Error renders the full structured diagnostic.
func (v *Violation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "invariant violation [%s] block %#x at t=%v: %s",
		v.Rule, uint64(v.Block), v.At, v.Detail)
	for _, n := range v.Nodes {
		fmt.Fprintf(&b, "\n  %v: %v", n.Node, n.State)
		if n.Pending != "" {
			fmt.Fprintf(&b, ", pending %s", n.Pending)
		}
		fmt.Fprintf(&b, " (shadow %s)", n.Shadow)
	}
	if v.Dir != "" {
		fmt.Fprintf(&b, "\n  directory: %s", v.Dir)
	}
	if len(v.History) > 0 {
		fmt.Fprintf(&b, "\n  last messages for block:")
		for _, h := range v.History {
			fmt.Fprintf(&b, "\n    %s", h)
		}
	}
	return b.String()
}
