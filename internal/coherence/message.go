// Package coherence defines the vocabulary shared by every subsystem in
// this repository: coherence message types (Table 1 of the paper plus
// the downgrade pair mentioned with Figure 8), node identifiers, the
// <sender, type> tuples that the Cosmos predictor consumes, and the
// messages exchanged between cache and directory controllers.
//
// The message set is that of a full-map, write-invalidate directory
// protocol such as Wisconsin Stache or the SGI Origin protocol. Caches
// send *_request and inval_*_response messages to directories;
// directories send *_response and inval_*_request messages to caches.
package coherence

import "fmt"

// MsgType enumerates the coherence message types of Table 1, extended
// with the downgrade pair used by protocols that demote an exclusive
// block to shared instead of invalidating it (the non-half-migratory
// configuration, and the dynamic self-invalidation signature of
// Figure 8).
type MsgType uint8

const (
	// MsgInvalid is the zero value and never appears in a valid message.
	MsgInvalid MsgType = iota

	// Requests received by a directory from caches.

	// GetROReq asks for a block in read-only (shared) state.
	GetROReq
	// GetRWReq asks for a block in read-write (exclusive) state.
	GetRWReq
	// UpgradeReq asks to upgrade a block from read-only to read-write.
	UpgradeReq
	// InvalROResp acknowledges an InvalROReq.
	InvalROResp
	// InvalRWResp acknowledges an InvalRWReq and carries the block back.
	InvalRWResp
	// DowngradeResp acknowledges a DowngradeReq and carries the block
	// back; the cache keeps a read-only copy.
	DowngradeResp
	// WritebackReq returns a dirty block the cache is evicting. Stache
	// never replaces cache pages (Section 5.1), but the protocol
	// supports eviction so that non-Stache configurations are complete.
	WritebackReq

	// Responses and requests received by a cache from a directory.

	// GetROResp answers a GetROReq with a read-only copy.
	GetROResp
	// GetRWResp answers a GetRWReq with an exclusive copy.
	GetRWResp
	// UpgradeResp answers an UpgradeReq.
	UpgradeResp
	// InvalROReq asks a cache to invalidate a read-only (shared) copy.
	InvalROReq
	// InvalRWReq asks a cache to invalidate a read-write (exclusive)
	// copy and return the block.
	InvalRWReq
	// DowngradeReq asks a cache to demote an exclusive copy to shared
	// and return the block.
	DowngradeReq
	// WritebackAck acknowledges a WritebackReq.
	WritebackAck
	// SpecPush carries a block a directory forwards to a predicted
	// requestor before any request arrives (the producer-push action of
	// Table 2, ProtocolRollback class). The receiving cache installs a
	// read-only copy only if the line is otherwise untouched; in every
	// other case the push is silently dropped and the directory's
	// speculative bookkeeping is reconciled out of band. This is the
	// sixteenth and last type expressible in the 4-bit hardware encoding
	// Table 7 assumes (internal/core tupleBits).
	SpecPush

	// NumMsgTypes is the number of distinct message types, handy for
	// sizing dense tables indexed by MsgType.
	NumMsgTypes
)

var msgTypeNames = [NumMsgTypes]string{
	MsgInvalid:    "invalid",
	GetROReq:      "get_ro_request",
	GetRWReq:      "get_rw_request",
	UpgradeReq:    "upgrade_request",
	InvalROResp:   "inval_ro_response",
	InvalRWResp:   "inval_rw_response",
	DowngradeResp: "downgrade_response",
	WritebackReq:  "writeback_request",
	GetROResp:     "get_ro_response",
	GetRWResp:     "get_rw_response",
	UpgradeResp:   "upgrade_response",
	InvalROReq:    "inval_ro_request",
	InvalRWReq:    "inval_rw_request",
	DowngradeReq:  "downgrade_request",
	WritebackAck:  "writeback_ack",
	SpecPush:      "spec_push",
}

// String returns the snake_case name used throughout the paper
// (e.g. "get_ro_request").
func (t MsgType) String() string {
	if t >= NumMsgTypes {
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
	return msgTypeNames[t]
}

// Valid reports whether t is a defined, non-zero message type.
func (t MsgType) Valid() bool { return t > MsgInvalid && t < NumMsgTypes }

// DirectoryBound reports whether a message of this type flows from a
// cache to a directory.
func (t MsgType) DirectoryBound() bool {
	// A flow-direction predicate: every type not listed flows the other
	// way, and invalid values are rejected before routing (network.Send
	// panics on them, trace.Read refuses to decode them).
	//cosmosvet:allow exhaustive direction predicate; unlisted types are cache-bound by definition and invalid values are rejected at the send/decode boundaries
	switch t {
	case GetROReq, GetRWReq, UpgradeReq, InvalROResp, InvalRWResp,
		DowngradeResp, WritebackReq:
		return true
	}
	return false
}

// CacheBound reports whether a message of this type flows from a
// directory to a cache.
func (t MsgType) CacheBound() bool {
	return t.Valid() && !t.DirectoryBound()
}

// IsRequest reports whether the message initiates a transaction (as
// opposed to answering one). Note that invalidation *requests* are sent
// by directories and invalidation *responses* by caches.
func (t MsgType) IsRequest() bool {
	//cosmosvet:allow exhaustive classification predicate; every type not listed is a response by definition
	switch t {
	case GetROReq, GetRWReq, UpgradeReq, WritebackReq,
		InvalROReq, InvalRWReq, DowngradeReq:
		return true
	}
	return false
}

// CarriesData reports whether the message carries a copy of the block.
// This only affects simulated message sizes / occupancy, never protocol
// decisions.
func (t MsgType) CarriesData() bool {
	//cosmosvet:allow exhaustive sizing predicate; data-less types are the default and a wrong answer only skews simulated occupancy, never protocol decisions
	switch t {
	case GetROResp, GetRWResp, InvalRWResp, DowngradeResp, WritebackReq, SpecPush:
		return true
	}
	return false
}

// NodeID identifies a node (one processor plus its share of the
// directory) in the simulated machine. The paper uses "node" and
// "processor" interchangeably because every node has one processor; so
// do we.
type NodeID int16

// NoNode is the sentinel for "no node", used e.g. for an idle
// directory entry's owner field.
const NoNode NodeID = -1

// String formats a node as P0, P1, ... matching the paper's figures.
func (n NodeID) String() string {
	if n == NoNode {
		return "P?"
	}
	return fmt.Sprintf("P%d", int(n))
}

// Tuple is the <sender, message-type> pair that Cosmos histories and
// predictions are made of (Section 3.2). The zero Tuple is invalid and
// doubles as the "no prediction" sentinel.
type Tuple struct {
	Sender NodeID
	Type   MsgType
}

// Valid reports whether the tuple denotes an actual message.
func (t Tuple) Valid() bool { return t.Type.Valid() }

// String renders the tuple as "<P2, get_ro_request>" as in Figure 3.
func (t Tuple) String() string {
	if !t.Valid() {
		return "<none>"
	}
	return fmt.Sprintf("<%s, %s>", t.Sender, t.Type)
}

// Msg is one coherence protocol message in flight. Every field except
// the payload participates in predictor state; the payload exists so the
// protocol simulation can verify data transfer invariants in tests.
type Msg struct {
	Src  NodeID
	Dst  NodeID
	Type MsgType
	Addr Addr // block-aligned address the message concerns
	// Requestor is the node on whose behalf a directory issued an
	// invalidation or downgrade, so the protocol can resume the stalled
	// transaction when the acknowledgment arrives.
	Requestor NodeID
	// Grant, when valid, asks the receiving owner to forward the block
	// directly to Requestor with a response of this type instead of
	// routing the data through the directory (the SGI Origin-style
	// three-hop flow of Section 2.1).
	Grant MsgType
}

// Tuple returns the <sender, type> pair the receiving predictor sees.
func (m Msg) Tuple() Tuple { return Tuple{Sender: m.Src, Type: m.Type} }

// String renders a message for debugging and trace text output.
func (m Msg) String() string {
	return fmt.Sprintf("%s->%s %s addr=%#x", m.Src, m.Dst, m.Type, uint64(m.Addr))
}
