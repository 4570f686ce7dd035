// Package reliable implements an end-to-end reliable-delivery
// transport between the coherence protocol and the lossy interconnect:
// per-link sequence numbers, receiver-side deduplication and in-order
// release, cumulative acknowledgments, and timeout-driven
// retransmission with exponential backoff and a capped retry count.
//
// The Stache protocol (internal/stache) assumes exactly-once, per-link
// FIFO delivery — the seed network provided that by construction. With
// fault injection enabled (internal/faults) the wire may drop,
// duplicate, or reorder packets; this transport restores the
// protocol's assumptions on top of the faulty wire, so the protocol
// runs unchanged. It mirrors how real distributed-shared-memory
// systems layer a reliable transport under a coherence protocol rather
// than making every protocol state machine loss-aware.
//
// The transport is only wired into the machine when the fault plan is
// enabled; on the default reliable wire it stays entirely out of the
// message flow, preserving bit-identical seed behavior.
package reliable

import (
	"fmt"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/network"
	"github.com/cosmos-coherence/cosmos/internal/sim"
)

// DefaultMaxRetries caps retransmissions of one frame before the link
// is declared dead (sim.Config.RetxMaxRetries overrides).
const DefaultMaxRetries = 12

// DefaultBackoffCapFactor derives the default retransmit-backoff cap
// from the initial timeout (sim.Config.RetxBackoffCapNs overrides).
// Uncapped, the backoff of the final default retry would reach 2^12
// times the initial timeout — a frame caught in a transient outage
// would wait far past the outage's end before probing again. The cap
// keeps the probe interval bounded while still backing off enough that
// a congested link is not hammered.
const DefaultBackoffCapFactor = 64

// LinkDeadError is the hard failure reported when one frame exhausts
// its retry budget: the directed link it was sent on is effectively
// dead. It is the error surfaced through Transport.Err / OnFailure (and
// wrapped by machine.Run), so callers can pick out which link died with
// errors.As instead of parsing the message.
type LinkDeadError struct {
	// Src, Dst name the dead directed link.
	Src, Dst coherence.NodeID
	// TSeq is the transport sequence number of the stuck frame.
	TSeq uint64
	// Retries is how many retransmissions were attempted.
	Retries int
	// FirstSent is when the frame was first transmitted.
	FirstSent sim.Time
	// Msg is the stuck coherence message.
	Msg coherence.Msg
}

// Error renders the diagnostic, naming the link and the stuck frame.
func (e *LinkDeadError) Error() string {
	return fmt.Sprintf("reliable: link %v->%v dead: frame %d (%v, first sent at %v) unacknowledged after %d retransmits",
		e.Src, e.Dst, e.TSeq, e.Msg, e.FirstSent, e.Retries)
}

// Stats aggregates transport activity.
type Stats struct {
	// DataSent counts first transmissions of coherence messages.
	DataSent uint64
	// Retransmits counts timeout-driven re-sends.
	Retransmits uint64
	// Delivered counts messages released, in order, to the protocol.
	Delivered uint64
	// DupsDiscarded counts received frames whose sequence number had
	// already been delivered or buffered (wire duplicates and spurious
	// retransmissions).
	DupsDiscarded uint64
	// HeldOutOfOrder counts frames that arrived ahead of a gap and
	// waited in the reorder buffer.
	HeldOutOfOrder uint64
	// AcksSent and AcksRecv count cumulative acknowledgment frames.
	AcksSent uint64
	AcksRecv uint64
}

// outstanding is one unacknowledged frame at the sender, stored by
// value in its link's send window.
type outstanding struct {
	msg     coherence.Msg
	retries int
	backoff sim.Time
	sentAt  sim.Time
}

// link is the per-(src,dst) transport state. The sender-side fields
// live with the source node, the receiver-side fields with the
// destination; both sides of one directed link share this struct
// because the whole simulation runs in one process.
type link struct {
	src, dst coherence.NodeID

	// Sender side. Acks are cumulative, so the unacknowledged frames
	// are always the contiguous range (acked, nextSend]. window is a
	// power-of-two ring holding frame ts at ts&(len-1); it doubles only
	// when every slot is unacknowledged, so its size stays within twice
	// the deepest run of frames in flight on this link.
	nextSend uint64 // last assigned sequence number (first frame is 1)
	acked    uint64 // highest cumulative ack received
	window   []outstanding

	// Receiver side.
	delivered uint64 // highest sequence released in order
	held      map[uint64]coherence.Msg
}

// Inflight describes one unacknowledged frame, for diagnostics.
type Inflight struct {
	Src, Dst coherence.NodeID
	TSeq     uint64
	Retries  int
	SentAt   sim.Time
	Msg      coherence.Msg
}

// Transport provides reliable exactly-once in-order delivery over a
// faulty network. It implements the stache.Sender interface. It is the
// network's one receiver; upper layers bind a handler per node with
// Transport.Bind.
type Transport struct {
	engine     *sim.Engine
	net        *network.Network
	nodes      int
	timeout    sim.Time // initial retransmit timeout
	backoffCap sim.Time // upper bound on the doubled backoff
	maxRetries int
	handlers   []func(coherence.Msg)
	links      []*link
	stats      Stats
	onFailure  func(error)
	failure    error
	// kindRetx is the engine event kind for retransmit timers; the
	// EventRec carries the link (Src, Dst) and frame number (Seq), so
	// arming a timer allocates nothing.
	kindRetx sim.EventKind
}

// New layers a reliable transport over nw, binding itself as the
// network's receiver (network.Bind). Upper layers must bind through
// Transport.Bind. The retransmit timeout and retry cap come from cfg
// (RetxTimeoutNs, RetxMaxRetries), with defaults derived from the
// message latency and the fault plan's jitter bound.
func New(engine *sim.Engine, nw *network.Network, cfg sim.Config) *Transport {
	timeout := cfg.RetxTimeoutNs
	if timeout == 0 {
		// An ack round trip is two one-way latencies; add the worst
		// jitter on both legs plus slack so a healthy link almost never
		// retransmits spuriously (spurious copies are deduplicated, but
		// they cost simulated wire occupancy).
		timeout = 4*cfg.MessageLatencyNs() + 2*sim.Time(cfg.Faults.JitterNs) + 100
	}
	maxRetries := cfg.RetxMaxRetries
	if maxRetries == 0 {
		maxRetries = DefaultMaxRetries
	}
	backoffCap := cfg.RetxBackoffCapNs
	if backoffCap == 0 {
		backoffCap = DefaultBackoffCapFactor * timeout
	}
	if backoffCap < timeout {
		// A cap below the initial timeout would make the "backoff"
		// shrink; clamp to constant-interval retransmission instead.
		backoffCap = timeout
	}
	t := &Transport{
		engine:     engine,
		net:        nw,
		nodes:      nw.Nodes(),
		timeout:    timeout,
		backoffCap: backoffCap,
		maxRetries: maxRetries,
		handlers:   make([]func(coherence.Msg), nw.Nodes()),
		links:      make([]*link, nw.Nodes()*nw.Nodes()),
	}
	t.kindRetx = engine.RegisterHandler(t.handleRetx)
	nw.Bind(t.receive)
	return t
}

// Bind installs the upper-layer (protocol) handler for node id.
func (t *Transport) Bind(id coherence.NodeID, h func(coherence.Msg)) {
	t.handlers[int(id)] = h
}

// OnFailure installs the hard-failure callback, invoked once when a
// frame exhausts its retries (the link is effectively dead). Without a
// callback the failure is only recorded; Err exposes it.
func (t *Transport) OnFailure(f func(error)) { t.onFailure = f }

// Err returns the first hard failure, or nil.
func (t *Transport) Err() error { return t.failure }

// Stats returns a copy of the accumulated counters.
func (t *Transport) Stats() Stats { return t.stats }

// link returns (creating on demand) the state for the directed link
// src->dst.
func (t *Transport) linkFor(src, dst coherence.NodeID) *link {
	i := int(src)*t.nodes + int(dst)
	l := t.links[i]
	if l == nil {
		//cosmosvet:allow hotpath one-time link state creation on first use of a (src, dst) pair
		l = &link{src: src, dst: dst, held: make(map[uint64]coherence.Msg)}
		t.links[i] = l
	}
	return l
}

// Undelivered returns how many frames the transport has accepted but
// not yet released to the protocol: unacknowledged frames whose
// sequence number the receiver has not released, plus frames parked in
// reorder buffers behind a gap. A frame that was delivered but whose
// acknowledgment is still in flight does not count — the protocol has
// it. The invariant monitor's quiesce check and the watchdog
// diagnostic read this to tell "messages still owed to the protocol"
// apart from "acks still draining".
func (t *Transport) Undelivered() int {
	n := 0
	for _, l := range t.links {
		if l == nil {
			continue
		}
		// Frames held in the reorder buffer are still unacknowledged too
		// (cumulative acks cover only released frames), so counting
		// unacked frames beyond the release point covers both kinds.
		if lo := max(l.acked, l.delivered); l.nextSend > lo {
			n += int(l.nextSend - lo)
		}
	}
	return n
}

// Inflight returns every unacknowledged frame, ordered by (src, dst,
// tseq) for deterministic diagnostics.
func (t *Transport) Inflight() []Inflight {
	var out []Inflight
	for _, l := range t.links {
		if l == nil {
			continue
		}
		for ts := l.acked + 1; ts <= l.nextSend; ts++ {
			o := l.frame(ts)
			out = append(out, Inflight{
				Src: l.src, Dst: l.dst, TSeq: ts,
				Retries: o.retries, SentAt: o.sentAt, Msg: o.msg,
			})
		}
	}
	return out
}

// frame returns the send-window slot of unacknowledged frame ts.
//
//cosmosvet:hotpath
func (l *link) frame(ts uint64) *outstanding {
	return &l.window[ts&uint64(len(l.window)-1)]
}

// grow doubles the send window, re-placing every unacknowledged frame
// at its slot in the larger ring.
//
//cosmosvet:hotpath
func (l *link) grow() {
	//cosmosvet:allow hotpath amortized send-window growth; the ring doubles only when every slot holds an unacknowledged frame
	w := make([]outstanding, max(4, 2*len(l.window)))
	for ts := l.acked + 1; ts <= l.nextSend; ts++ {
		w[ts&uint64(len(w)-1)] = *l.frame(ts)
	}
	l.window = w
}

// Send implements stache.Sender: the message is sequenced on its link,
// buffered in the link's send window for retransmission, and injected.
// Node-local messages never touch the wire and bypass sequencing
// entirely.
//
//cosmosvet:hotpath
func (t *Transport) Send(msg coherence.Msg) {
	if msg.Src == msg.Dst {
		t.net.Send(msg)
		return
	}
	l := t.linkFor(msg.Src, msg.Dst)
	if l.nextSend-l.acked == uint64(len(l.window)) {
		l.grow()
	}
	l.nextSend++
	ts := l.nextSend
	*l.frame(ts) = outstanding{msg: msg, backoff: t.timeout, sentAt: t.engine.Now()}
	t.stats.DataSent++
	pkt := network.Packet{Src: msg.Src, Dst: msg.Dst, Msg: msg, Seq: ts}
	t.net.SendPacket(&pkt)
	t.armTimer(l, ts)
}

// armTimer schedules the retransmit check for frame ts on l, using the
// frame's current backoff.
//
//cosmosvet:hotpath
func (t *Transport) armTimer(l *link, ts uint64) {
	t.engine.PostAfter(l.frame(ts).backoff, sim.EventRec{
		Kind: t.kindRetx, Src: l.src, Dst: l.dst, Seq: ts,
	})
}

// handleRetx fires a retransmit timer delivered as a value-typed
// event: the record names the link and the frame.
//
//cosmosvet:hotpath
func (t *Transport) handleRetx(rec *sim.EventRec) {
	t.timerFired(t.linkFor(rec.Src, rec.Dst), rec.Seq)
}

// timerFired retransmits frame ts if it is still unacknowledged,
// doubling its backoff; after maxRetries the link is declared dead.
//
//cosmosvet:hotpath
func (t *Transport) timerFired(l *link, ts uint64) {
	if ts <= l.acked || t.failure != nil {
		return // acked meanwhile, or the run is already failing
	}
	o := l.frame(ts)
	if o.retries >= t.maxRetries {
		//cosmosvet:allow hotpath link-death diagnostic; the run is already failing
		t.fail(&LinkDeadError{
			Src: l.src, Dst: l.dst, TSeq: ts,
			Retries: o.retries, FirstSent: o.sentAt, Msg: o.msg,
		})
		return
	}
	o.retries++
	o.backoff *= 2
	if o.backoff > t.backoffCap {
		o.backoff = t.backoffCap
	}
	t.stats.Retransmits++
	pkt := network.Packet{Src: l.src, Dst: l.dst, Msg: o.msg, Seq: ts, Flags: network.FlagRetx}
	t.net.SendPacket(&pkt)
	t.armTimer(l, ts)
}

// fail records the first hard failure and notifies the machine.
func (t *Transport) fail(err error) {
	if t.failure != nil {
		return
	}
	t.failure = err
	if t.onFailure != nil {
		t.onFailure(err)
	}
}

// receive is the network's receiver: acks retire sender-side state;
// data frames are deduplicated, released in order, and cumulatively
// acknowledged. pkt is the engine's firing event, read in place; it
// stays unchanged while released messages run the protocol.
//
//cosmosvet:hotpath
func (t *Transport) receive(pkt *network.Packet) {
	if pkt.Ctrl() {
		t.handleAck(pkt)
		return
	}
	if pkt.Seq == 0 {
		// Unsequenced (node-local) message: deliver directly.
		t.handlers[pkt.Dst](pkt.Msg)
		return
	}
	l := t.linkFor(pkt.Src, pkt.Dst)
	switch {
	case pkt.Seq <= l.delivered:
		// Already released: a wire duplicate or a spurious
		// retransmission. Our previous ack may have been lost, so
		// re-acknowledge.
		t.stats.DupsDiscarded++

	case pkt.Seq == l.delivered+1:
		t.release(l, pkt.Msg)
		// Drain any frames the gap was holding back.
		for {
			m, ok := l.held[l.delivered+1]
			if !ok {
				break
			}
			delete(l.held, l.delivered+1)
			t.release(l, m)
		}

	default: // ahead of a gap: buffer
		if _, ok := l.held[pkt.Seq]; ok {
			t.stats.DupsDiscarded++
		} else {
			l.held[pkt.Seq] = pkt.Msg
			t.stats.HeldOutOfOrder++
		}
	}
	// Cumulative ack: everything up to and including l.delivered has
	// been released in order. Acks ride the same faulty wire; loss is
	// repaired by the next ack or a retransmission-triggered re-ack.
	t.stats.AcksSent++
	ack := network.Packet{Src: pkt.Dst, Dst: pkt.Src, Flags: network.FlagCtrl, Seq: l.delivered}
	t.net.SendPacket(&ack)
}

// release hands msg to the protocol in order.
func (t *Transport) release(l *link, msg coherence.Msg) {
	l.delivered++
	t.stats.Delivered++
	t.handlers[l.dst](msg)
}

// handleAck retires every unacknowledged frame covered by a cumulative
// ack by advancing the window past it; a stale ack (one at or below an
// ack already seen) retires nothing. The ack for link src->dst travels
// dst->src.
//
//cosmosvet:hotpath
func (t *Transport) handleAck(pkt *network.Packet) {
	t.stats.AcksRecv++
	l := t.linkFor(pkt.Dst, pkt.Src)
	if pkt.Seq > l.acked {
		l.acked = pkt.Seq
	}
}
