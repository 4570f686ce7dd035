// Package network models the point-to-point interconnect of the
// simulated machine: fixed-size messages, a configurable wire latency,
// network-interface injection/extraction costs, and per-link FIFO
// delivery.
//
// Per-link FIFO matters for correctness of the Stache protocol as
// implemented here: two messages from node A to node B are delivered in
// the order A sent them, while messages from different sources race.
// That is exactly the property that makes multi-consumer request arrival
// order unpredictable (Section 3.1's two-consumer example) while keeping
// each individual conversation sane.
//
// FIFO needs no bookkeeping on a fault-free wire. One (src, dst) link
// always has the same latency — the remote latency, or the bus transfer
// for node-local delivery — and the engine clock never runs backwards,
// so a later send never arrives earlier; on a structured fabric the
// per-link occupancy of routeDelivery keeps same-route packets in
// order. Packets due at the same instant fire in the engine's (time,
// seq) order, which is send order.
//
// When a fault plan (sim.Config.Faults) is enabled the wire stops being
// ideal: packets may be dropped, duplicated, or jittered, and per-link
// FIFO no longer holds on the raw wire. The reliable transport
// (internal/reliable) layered above restores exactly-once in-order
// delivery to the protocol; this package only models the imperfect
// medium. All fault decisions come from the deterministic injector in
// internal/faults, so perturbed runs remain reproducible.
package network

import (
	"fmt"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/faults"
	"github.com/cosmos-coherence/cosmos/internal/sim"
	"github.com/cosmos-coherence/cosmos/internal/topology"
)

// Packet is the unit the wire actually carries: either a coherence
// message or a transport control frame (an acknowledgment from the
// reliable layer). The protocol never sees control frames.
//
// A Packet is its own delivery event: a defined type over
// sim.EventRec, so the frame a sender builds is copied once into the
// engine's queue and handed to the receiver in place, never rebuilt.
// Its fields read as:
//
//   - Src, Dst: the directed link the packet travels.
//   - Msg: the coherence payload; the zero Msg for control frames.
//   - Seq: the reliable transport's per-link sequence number (data
//     frames) or cumulative acknowledgment (control frames); zero
//     when the reliable layer is not in use.
//   - Flags: FlagCtrl and FlagRetx.
//   - Kind: the engine's delivery kind, which SendPacket stamps;
//     senders leave it zero.
type Packet sim.EventRec

// Packet flag bits.
const (
	// FlagCtrl marks a transport control frame (reliable-delivery ack).
	FlagCtrl uint8 = 1 << iota
	// FlagRetx marks a retransmission of a previously injected frame
	// (counted separately in Stats).
	FlagRetx
)

// Ctrl reports whether pkt is a transport control frame.
func (pkt *Packet) Ctrl() bool { return pkt.Flags&FlagCtrl != 0 }

// Retx reports whether pkt retransmits an earlier frame.
func (pkt *Packet) Retx() bool { return pkt.Flags&FlagRetx != 0 }

// PacketHandler receives every packet the network delivers, on
// whichever node it is addressed to (pkt.Dst). pkt is the engine's
// firing event (see sim.Handler): valid until the handler returns, so
// a handler that keeps a packet copies it.
type PacketHandler func(pkt *Packet)

// SendError describes a malformed injection. Send and SendPacket panic
// with *SendError — a malformed message is a simulator bug, not a
// recoverable condition — so tests can recover and inspect the typed
// cause.
type SendError struct {
	// Pkt is the offending packet.
	Pkt Packet
	// Reason is a stable, human-readable cause ("invalid message
	// type", "destination out of range", "no receiver bound", "control
	// frame delivered to the protocol").
	Reason string
}

// Error implements the error interface.
func (e *SendError) Error() string {
	return fmt.Sprintf("network: %s in %v", e.Reason, e.Pkt.Msg)
}

// Stats aggregates network activity counters.
type Stats struct {
	// MessagesSent counts every coherence message injected, including
	// retransmissions (they occupy the wire like any other message).
	MessagesSent uint64
	// MessagesByType counts injections per message type.
	MessagesByType [coherence.NumMsgTypes]uint64
	// DataMessages counts messages that carried a block copy.
	DataMessages uint64
	// LocalMessages counts messages whose source and destination node
	// coincide (delivered without touching the wire).
	LocalMessages uint64
	// CtrlMessages counts transport control frames (reliable-delivery
	// acks); zero without fault injection.
	CtrlMessages uint64
	// Retransmits counts re-injections by the reliable transport.
	Retransmits uint64
	// FaultDropped counts packets the fault injector destroyed on the
	// wire (including blackout casualties).
	FaultDropped uint64
	// FaultDuplicated counts packets the fault injector delivered
	// twice.
	FaultDuplicated uint64
}

// Network connects N nodes. Create one with New, attach the one
// receiver with Bind, then Send messages. Delivery is scheduled on the
// shared sim.Engine.
type Network struct {
	engine   *sim.Engine
	latency  sim.Time // end-to-end remote latency (NI + wire + NI)
	localLat sim.Time // latency for node-local delivery
	recv     PacketHandler
	injector *faults.Injector // nil = perfectly reliable wire
	// topo is the structured fabric (mesh/torus); the zero value is
	// the ideal all-to-all wire. Structured remote messages are routed
	// hop by hop with per-link occupancy instead of uniform latency.
	topo topology.Grid
	// linkFree holds, per directed grid link, the time the link next
	// becomes idle: messages sharing a link serialize (contention).
	// O(nodes) entries, allocated only for structured fabrics.
	linkFree []sim.Time
	// routeBuf is the reusable hop buffer for routeDelivery, grown
	// once to the grid diameter.
	routeBuf []topology.LinkID
	hopLat   sim.Time // per-link wire latency on a structured fabric
	niLat    sim.Time // NI injection/extraction cost on a structured fabric
	nodes    int
	// seq numbers every packet sent; the fault injector keys its
	// per-packet decisions on it.
	seq   uint64
	stats Stats
	// kindDeliver is the engine event kind for wire deliveries; the
	// delivery handler reads the event as the Packet it is.
	kindDeliver sim.EventKind
	// inflight counts coherence messages scheduled for delivery but not
	// yet handed to their destination handler (dropped packets are never
	// counted; duplicated ones count twice until both copies land). The
	// invariant monitor's quiesce check and the watchdog diagnostic read
	// it through InFlight.
	inflight int
}

// New creates a network over n nodes using the cfg latencies and the
// given engine. An enabled cfg.Faults plan attaches the deterministic
// fault injector to the delivery path.
func New(engine *sim.Engine, cfg sim.Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if engine == nil {
		return nil, fmt.Errorf("network: nil engine")
	}
	inj, err := faults.NewInjector(cfg.Faults)
	if err != nil {
		return nil, err
	}
	kind, err := topology.Parse(cfg.Topology)
	if err != nil {
		return nil, err
	}
	n := cfg.Nodes
	grid, err := topology.New(kind, n)
	if err != nil {
		return nil, err
	}
	nw := &Network{
		engine:   engine,
		latency:  cfg.MessageLatencyNs(),
		localLat: cfg.BusTransferNs(cfg.CacheBlockBytes),
		injector: inj,
		nodes:    n,
	}
	nw.kindDeliver = engine.RegisterHandler(nw.handleDeliver)
	if grid.Structured() {
		nw.topo = grid
		nw.linkFree = make([]sim.Time, grid.NumLinks())
		nw.routeBuf = make([]topology.LinkID, 0, grid.W+grid.H)
		nw.hopLat = cfg.NetworkLatencyNs
		nw.niLat = cfg.NIAccessNs
	}
	return nw, nil
}

// Nodes returns the number of attached nodes.
func (nw *Network) Nodes() int { return nw.nodes }

// Faulty reports whether a fault injector perturbs this network.
func (nw *Network) Faulty() bool { return nw.injector != nil }

// Bind installs the receiver every delivered packet goes to, control
// frames included. It must be called before the first Send. The
// reliable transport binds its packet handler here; a fault-free
// machine binds its protocol dispatch, which panics with *SendError on
// a control frame.
func (nw *Network) Bind(h PacketHandler) { nw.recv = h }

// Stats returns a copy of the accumulated counters.
func (nw *Network) Stats() Stats { return nw.stats }

// InFlight returns the number of coherence messages currently on the
// wire: scheduled for delivery but not yet handed to a destination
// handler. Transport control frames are excluded.
func (nw *Network) InFlight() int { return nw.inflight }

// post schedules pkt's delivery at time at, taking its in-flight
// accounting. This is the only scheduling path for the wire: the
// packet is the event, so no closure and no per-message allocation.
//
//cosmosvet:hotpath
func (nw *Network) post(at sim.Time, pkt *Packet) {
	if !pkt.Ctrl() {
		nw.inflight++
	}
	nw.engine.Post(at, sim.EventRec(*pkt))
}

// handleDeliver fires a scheduled delivery: the event is the Packet,
// so it retires the in-flight accounting and hands the receiver (bound
// before send, checked in SendPacket) the event in place.
//
//cosmosvet:hotpath
func (nw *Network) handleDeliver(rec *sim.EventRec) {
	pkt := (*Packet)(rec)
	if !pkt.Ctrl() {
		nw.inflight--
	}
	nw.recv(pkt)
}

// Send injects msg into the network. Delivery to msg.Dst is scheduled
// after the configured latency, in per-link FIFO order on a fault-free
// wire. Send panics with *SendError on malformed messages (destination
// out of range, no receiver bound, invalid type): those are simulator
// bugs, not recoverable conditions.
//
// The frame is filled field by field, each from its own field of msg:
// copying msg whole, or Src and Dst as one word, reads the narrow
// stores that spill msg on entry with a wider load, which stalls store
// forwarding on every message.
//
//cosmosvet:hotpath
func (nw *Network) Send(msg coherence.Msg) {
	var pkt Packet
	pkt.Src, pkt.Msg.Src = msg.Src, msg.Src
	pkt.Dst, pkt.Msg.Dst = msg.Dst, msg.Dst
	pkt.Msg.Type, pkt.Msg.Addr, pkt.Msg.Requestor, pkt.Msg.Grant = msg.Type, msg.Addr, msg.Requestor, msg.Grant
	nw.SendPacket(&pkt)
}

// SendPacket injects a packet — a coherence message or a transport
// control frame — working on pkt in place: it stamps pkt.Kind and
// copies pkt into the engine's queue, keeping no reference to it. Like
// Send it panics with *SendError on malformed input.
//
//cosmosvet:hotpath
func (nw *Network) SendPacket(pkt *Packet) {
	pkt.Kind = nw.kindDeliver
	ctrl := pkt.Ctrl()
	if !ctrl && !pkt.Msg.Type.Valid() {
		panic(&SendError{Pkt: *pkt, Reason: "invalid message type"})
	}
	if int(pkt.Dst) < 0 || int(pkt.Dst) >= nw.nodes {
		panic(&SendError{Pkt: *pkt, Reason: "destination out of range"})
	}
	if nw.recv == nil {
		panic(&SendError{Pkt: *pkt, Reason: "no receiver bound"})
	}
	nw.seq++

	if ctrl {
		nw.stats.CtrlMessages++
	} else {
		nw.stats.MessagesSent++
		nw.stats.MessagesByType[pkt.Msg.Type]++
		if pkt.Msg.Type.CarriesData() {
			nw.stats.DataMessages++
		}
	}
	if pkt.Retx() {
		nw.stats.Retransmits++
	}

	// Arrival time: node-local delivery takes a bus transfer and never
	// touches the wire; structured fabrics route remote packets hop by
	// hop; the all-to-all wire charges its uniform latency.
	remote := pkt.Src != pkt.Dst
	var at sim.Time
	switch {
	case !remote:
		if !ctrl {
			nw.stats.LocalMessages++
		}
		at = nw.engine.Now() + nw.localLat
	case nw.topo.Structured():
		at = nw.routeDelivery(pkt.Src, pkt.Dst)
	default:
		at = nw.engine.Now() + nw.latency
	}

	// Faulty wire: the injector judges the end-to-end journey of every
	// remote packet, on any fabric. Jitter may reorder the link; the
	// reliable transport re-sequences above us.
	if remote && nw.injector != nil {
		d := nw.injector.Decide(pkt.Src, pkt.Dst, nw.seq, uint64(nw.engine.Now()))
		if d.Drop {
			nw.stats.FaultDropped++
			return
		}
		nw.post(at+sim.Time(d.JitterNs), pkt)
		if d.Duplicate {
			nw.stats.FaultDuplicated++
			nw.post(at+sim.Time(d.DupJitterNs), pkt)
		}
		return
	}
	nw.post(at, pkt)
}

// routeDelivery walks the dimension-order route from src to dst, charging NI costs
// at both ends, per-hop wire latency, and per-link occupancy: a hop
// cannot start until its link is free, and crossing it occupies the
// link until the hop completes. Returns the delivery time. Routing
// appends into a reusable buffer, so the steady-state path does not
// allocate.
func (nw *Network) routeDelivery(src, dst coherence.NodeID) sim.Time {
	route := nw.topo.Route(src, dst, nw.routeBuf[:0])
	nw.routeBuf = route
	t := nw.engine.Now() + nw.niLat
	for _, l := range route {
		if t < nw.linkFree[l] {
			t = nw.linkFree[l]
		}
		t += nw.hopLat
		nw.linkFree[l] = t
	}
	return t + nw.niLat
}
