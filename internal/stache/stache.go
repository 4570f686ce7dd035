// Package stache implements the Wisconsin Stache directory protocol as
// described in Sections 2.1 and 5.1 of the paper: a full-map,
// write-invalidate directory protocol in which part of each node's
// local memory acts as a cache for remote data.
//
// Protocol properties reproduced here:
//
//   - Full-map: each directory entry records the exact set of sharers
//     (a bitmask, so up to 64 nodes).
//   - Write-invalidate: a writer invalidates all outstanding copies.
//   - Half-migratory optimization (configurable): on a read or write
//     miss to a block held exclusive elsewhere, the directory asks the
//     owner to *invalidate* its copy (inval_rw_request), not to
//     downgrade it to shared. Disabling the option yields the DASH-like
//     behaviour (downgrade_request on read misses).
//   - Round-robin page homing: page X is homed on node X mod N; the
//     home node's directory doubles as its local cache, so accesses by
//     the home node generate no messages (Section 5.1).
//   - No replacement of cache pages by default (Section 5.1), so
//     predictor history for a block persists for the whole run.
//   - Blocking directory: a directory entry serves one transaction at a
//     time; requests arriving while the entry is busy are queued FIFO.
//     Combined with per-link FIFO delivery in the network this keeps
//     the protocol race-free except for the classic upgrade race, which
//     is resolved by converting a stale upgrade_request into a
//     get_rw_request (see handleUpgrade).
//
// Predictors and trace writers watch the exact stream of *incoming*
// messages at each cache and directory — the stream Cosmos is trained
// on — through the caller of Deliver (internal/machine observes each
// message before delivering it). The one predictor the protocol reads,
// a directory's Oracle, is scored and trained by the directory itself.
package stache

import (
	"fmt"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

// Options selects protocol variants.
type Options struct {
	// HalfMigratory enables the Stache half-migratory optimization
	// (Section 5.1): exclusive blocks are invalidated, not downgraded,
	// when another node misses on them. Stache runs with this on.
	HalfMigratory bool
	// CacheBlocks bounds how many remote blocks a cache may hold; 0
	// means unbounded, which is Stache's configuration (Section 5.1:
	// "Stache does not replace pages ... from the portion of local
	// memory it designates as a cache"). A positive value enables
	// set-associative replacement so non-Stache protocols — the ones
	// Section 3.7 warns may lose predictor history on replacement —
	// can be studied.
	CacheBlocks int
	// CacheAssoc is the associativity used when CacheBlocks is
	// positive (1 = direct-mapped, matching Table 3's machine).
	CacheAssoc int
	// Forwarding enables the SGI Origin-style three-hop flow the paper
	// contrasts with Stache in Section 2.1: when a miss targets a
	// block owned exclusively by another cache, the directory asks the
	// owner to send the data *directly* to the requestor (cutting one
	// message off the critical path) and only the ownership
	// acknowledgment returns to the directory. The paper asserts this
	// "should have no first-order effect on coherence prediction's
	// usability"; the ForwardingComparison experiment tests that.
	Forwarding bool
	// Speculation permits the ProtocolRollback-class actions of
	// Section 4.3 — speculative downgrade/fetch-back and producer push
	// (spec_push messages) — once an oracle and gate are attached with
	// AttachSpeculation. With the option off the protocol never carries
	// speculative state and the message path is bit-identical to a
	// build without this machinery; the invariant monitor enforces that
	// (a spec_push on a non-speculative run is a legality violation).
	Speculation bool
	// DirFormat selects the directory sharer-set representation. The
	// zero value is DirFullMap, the paper's exact-bitmask configuration
	// (≤ 64 nodes); DirLimitedPtr and DirCoarseVector scale past that
	// by over-approximating the sharer set on overflow, which is
	// protocol-safe (extra invalidations are acknowledged from the
	// invalid state) but inexact below the message level. Speculation
	// requires DirFullMap: its push/reconcile bookkeeping removes
	// individual sharer bits, which inexact formats cannot do.
	DirFormat DirectoryFormat
	// DirPointers is the pointer count i for DirLimitedPtr (Dir-i-B);
	// 0 means DefaultDirPointers. Other formats ignore it.
	DirPointers int
}

// Oracle is the hook through which a predictor sitting beside a
// directory (Section 4's architecture: "Predictors would sit beside
// each standard directory and cache module") feeds predictions into
// the protocol. PredictNext returns the predicted <sender, type> of
// the next message the directory will receive for the block, if the
// predictor has one. The directory owns the oracle's training: for
// every message it receives it first scores the standing prediction
// (Gate.Observe), then calls Train with the message's tuple, before
// any protocol processing.
type Oracle interface {
	PredictNext(addr coherence.Addr) (coherence.Tuple, bool)
	Train(addr coherence.Addr, t coherence.Tuple)
}

// DefaultOptions returns the configuration the paper evaluated:
// half-migratory enabled.
func DefaultOptions() Options { return Options{HalfMigratory: true} }

// SpecAction identifies one speculative protocol action for gating and
// statistics. The directory performs RMW, Downgrade, and Forward; DSI
// lives cache-side (internal/speculate's SelfInvalidator) but shares
// the gate so one governor covers the whole machine.
type SpecAction uint8

const (
	// SpecRMW is the read-modify-write exclusive grant (NoRecovery).
	SpecRMW SpecAction = iota
	// SpecDSI is Cosmos-driven dynamic self-invalidation (NoRecovery).
	SpecDSI
	// SpecDowngrade speculatively fetches an exclusive block back to
	// the directory ahead of a predicted third-party read
	// (ProtocolRollback: the pending expectation is discarded on the
	// next real message).
	SpecDowngrade
	// SpecForward pushes a block to a predicted requestor before any
	// request arrives (ProtocolRollback: the pushed copy and its
	// directory bookkeeping are discarded on mis-prediction).
	SpecForward
	// NumSpecActions sizes dense per-action tables.
	NumSpecActions
)

func (a SpecAction) String() string {
	switch a {
	case SpecRMW:
		return "rmw"
	case SpecDSI:
		return "dsi"
	case SpecDowngrade:
		return "downgrade"
	case SpecForward:
		return "forward"
	}
	return fmt.Sprintf("SpecAction(%d)", uint8(a))
}

// SpecActions selects which directory-side actions AttachSpeculation
// enables.
type SpecActions struct {
	RMW       bool
	Downgrade bool
	Forward   bool
}

// Gate is the hook through which a speculation governor
// (internal/governor) authorizes individual actions and learns how the
// machine's predictions are faring. The protocol calls Observe with
// the outcome of every verifiable prediction (made *before* the
// predictor trains on the message), Allow exactly once per action it
// is about to take, and Record with every verified action outcome —
// an expectation met or missed, a pushed copy claimed or discarded.
// All three must be deterministic functions of the call sequence.
type Gate interface {
	Observe(addr coherence.Addr, correct bool)
	Allow(a SpecAction, addr coherence.Addr) bool
	Record(a SpecAction, addr coherence.Addr, correct bool)
}

// Sender abstracts the interconnect so the protocol can be unit-tested
// without a full machine.
type Sender interface {
	Send(msg coherence.Msg)
}

// nodeSet is a full-map sharer set over at most 64 nodes.
type nodeSet uint64

func (s nodeSet) has(n coherence.NodeID) bool { return s&(1<<uint(n)) != 0 }
func (s *nodeSet) add(n coherence.NodeID)     { *s |= 1 << uint(n) }
func (s *nodeSet) remove(n coherence.NodeID)  { *s &^= 1 << uint(n) }
func (s nodeSet) empty() bool                 { return s == 0 }
func (s nodeSet) count() int {
	c := 0
	for v := s; v != 0; v &= v - 1 {
		c++
	}
	return c
}

// forEach visits members in ascending node order (deterministic).
func (s nodeSet) forEach(n int, f func(coherence.NodeID)) {
	for i := 0; i < n; i++ {
		if s.has(coherence.NodeID(i)) {
			f(coherence.NodeID(i))
		}
	}
}

// only reports whether the set contains exactly {n}.
func (s nodeSet) only(n coherence.NodeID) bool { return s == 1<<uint(n) }

// dirState enumerates stable directory entry states.
type dirState uint8

const (
	dirIdle dirState = iota // no cached copies
	dirShared
	dirExclusive
	dirBusy // serving a transaction; queued requests wait
)

func (s dirState) String() string {
	switch s {
	case dirIdle:
		return "idle"
	case dirShared:
		return "shared"
	case dirExclusive:
		return "exclusive"
	case dirBusy:
		return "busy"
	}
	return fmt.Sprintf("dirState(%d)", uint8(s))
}

// reqKind classifies queued directory work.
type reqKind uint8

const (
	reqRead reqKind = iota
	reqWrite
	reqUpgrade
	reqWriteback
	// reqSpecFetch is a speculative downgrade/fetch-back of an
	// exclusive block, started by the directory itself on the oracle's
	// advice rather than by a request message. Its pendingReq.node is
	// the *predicted* next reader — nobody is owed a grant.
	reqSpecFetch
)

// pendingReq is a directory request that is queued or in flight.
// done is non-nil exactly for local (home-node) accesses, which
// complete by callback instead of by response message. grantT is the
// response type to send on completion; it is fixed when the
// transaction starts (an upgrade converted to a fetch by the upgrade
// race grants get_rw_response, not upgrade_response).
type pendingReq struct {
	node   coherence.NodeID
	kind   reqKind
	grantT coherence.MsgType
	done   func()
	// forwarded marks a transaction whose data the previous owner
	// sends directly to the requestor (Options.Forwarding); the
	// directory then completes the transaction without a grant message.
	forwarded bool
}

// CacheState enumerates the stable states of a block in a cache
// (Section 2.1: invalid, shared/read-only, exclusive/read-write).
type CacheState uint8

const (
	CacheInvalid CacheState = iota
	CacheReadOnly
	CacheReadWrite
)

func (s CacheState) String() string {
	switch s {
	case CacheInvalid:
		return "invalid"
	case CacheReadOnly:
		return "read-only"
	case CacheReadWrite:
		return "read-write"
	}
	return fmt.Sprintf("CacheState(%d)", uint8(s))
}

// pendingKind enumerates outstanding cache-side transactions.
type pendingKind uint8

const (
	pendNone pendingKind = iota
	pendFetchRO
	pendFetchRW
	pendUpgrade
	pendWriteback
)

func (k pendingKind) String() string {
	switch k {
	case pendNone:
		return "none"
	case pendFetchRO:
		return "fetch-ro"
	case pendFetchRW:
		return "fetch-rw"
	case pendUpgrade:
		return "upgrade"
	case pendWriteback:
		return "writeback"
	}
	return fmt.Sprintf("pendingKind(%d)", uint8(k))
}
