// Value-typed events. The original engine scheduled every piece of
// work as a heap-allocated `func()` closure; at 1024 nodes the
// per-message closures (network delivery, retransmit timers, processor
// issue steps) dominated the allocation profile — roughly 3.7 heap
// allocations per coherence message — and GC pressure became a shared
// tax on every worker in the parallel pool. The hot schedulers now
// describe work as an EventRec: a small kind discriminator plus a
// receiver index and an inline coherence.Msg-sized payload, dispatched
// through a fixed handler table the machine registers at construction.
// EventRecs are plain values, copied into the timing wheel / overflow
// heap; Step pops the earliest one into an engine-owned slot and hands
// its handler a pointer to it there, so steady state schedules and
// fires them without touching the allocator or copying the record a
// second time. Post is the engine's only scheduling API: cold callers
// (serve's worker and watchdog, the harness pacer, chaos corruption
// retries) register a handler once per engine like every other
// scheduler.
package sim

import (
	"fmt"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

// EventKind discriminates value-typed events. Kinds are allocated by
// RegisterHandler in registration order; they are meaningful only
// within the engine that issued them.
type EventKind uint8

// Handler processes value-typed events of one registered kind. rec
// points at the engine's copy of the firing event, outside the queue:
// it stays valid and unchanged until the handler returns, however many
// events the handler posts, and is reused for the next event after
// that. A handler that keeps any of the record copies it out. Handlers
// never call Step, Run or RunUntil.
type Handler func(rec *EventRec)

// EventRec is one value-typed scheduled event: what to do (Kind), who
// it concerns (Src/Dst — a node pair, a link, or any handler-defined
// index), a handler-defined scalar (Seq — e.g. a transport sequence
// number), a flag byte, and an inline coherence message payload. The
// interpretation of every field beyond Kind belongs to the handler;
// the engine only orders and dispatches.
type EventRec struct {
	// Kind selects the handler registered with RegisterHandler.
	Kind EventKind
	// Flags carries handler-defined bits (e.g. control/retransmit
	// marks on a network delivery).
	Flags uint8
	// Src and Dst are handler-defined receiver indexes, conventionally
	// the nodes an event concerns.
	Src, Dst coherence.NodeID
	// Seq is a handler-defined scalar (e.g. the reliable transport's
	// per-link frame number).
	Seq uint64
	// Msg is the inline coherence payload (the zero Msg when unused).
	Msg coherence.Msg
}

// maxHandlers bounds the handler table; EventKind is a byte.
const maxHandlers = 1 << 8

// RegisterHandler installs h in the engine's fixed dispatch table and
// returns the kind that routes to it. Handlers are registered at
// machine construction, before the first event fires; registration is
// append-only, so a kind stays valid for the engine's lifetime.
func (e *Engine) RegisterHandler(h Handler) EventKind {
	if h == nil {
		panic("sim: RegisterHandler(nil)")
	}
	if len(e.handlers) >= maxHandlers {
		panic(fmt.Sprintf("sim: more than %d event handlers registered", maxHandlers))
	}
	e.handlers = append(e.handlers, h)
	return EventKind(len(e.handlers) - 1)
}

// Post schedules a value-typed event at absolute time at. Events fire
// in (time, seq) order: by time, FIFO within an instant. Scheduling in
// the past is a programming error and panics, because it would
// silently reorder causality; so does an unregistered kind. Post
// stamps the FIFO sequence number, applies any perturbation, and
// routes the event to the wheel or the overflow heap by horizon.
//
//cosmosvet:hotpath
func (e *Engine) Post(at Time, rec EventRec) {
	if int(rec.Kind) >= len(e.handlers) {
		panic(fmt.Sprintf("sim: Post with unregistered event kind %d", rec.Kind))
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	e.seq++
	if e.perturb != nil {
		at += e.perturb(at, e.seq)
	}
	if at-e.now < wheelSpan {
		if e.slots == nil {
			e.initWheel()
		}
		e.wheelAdd(at, &rec)
		return
	}
	e.overflow.push(item{at: at, seq: e.seq, rec: rec})
}

// PostAfter schedules a value-typed event delay nanoseconds from now.
//
//cosmosvet:hotpath
func (e *Engine) PostAfter(delay Time, rec EventRec) { e.Post(e.now+delay, rec) }
