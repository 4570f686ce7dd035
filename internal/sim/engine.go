// Package sim provides the discrete-event simulation engine that drives
// the machine model: a simulated clock, an event queue with
// deterministic tie-breaking, and the Table 3 machine configuration.
//
// Determinism matters: two runs with the same workload seed must deliver
// the identical coherence message stream, or predictor accuracies would
// not be reproducible. Events scheduled for the same instant are
// processed in the order they were scheduled (FIFO by a monotonically
// increasing sequence number), never by map iteration or heap caprice.
//
// The scheduler is split by horizon. Near-future events — the
// overwhelming majority, since NI and wire latencies are small
// constants — go into a timing wheel: wheelSpan slots of one
// nanosecond each, indexed by `at & wheelMask`, with a slot-occupancy
// bitmap scanned from `now` so the next event is found in O(words)
// regardless of queue depth. Far timers (retransmit backoff tails,
// barrier latencies at large node counts, watchdog deadlines) overflow
// into the typed binary heap the engine always had. Nothing ever
// migrates between the two: Step compares the wheel's earliest item
// with the overflow top by (time, seq) and fires the smaller, so the
// merged order is exactly the order one (time, seq) heap would
// produce. wheel_test.go pins that against a heap-only reference
// scheduler.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is simulated time in nanoseconds.
type Time uint64

// String renders times in nanoseconds.
func (t Time) String() string { return fmt.Sprintf("%dns", uint64(t)) }

// item is one entry in the scheduler: a value-typed event stamped
// with its firing time and FIFO sequence number. It holds no pointers,
// so the garbage collector never scans the wheel slab or the heap.
type item struct {
	at  Time
	seq uint64
	rec EventRec
}

// less orders two items by firing time, FIFO within an instant.
//
//cosmosvet:hotpath
func (a item) less(b item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap ordered by (time, seq). It is
// hand-inlined rather than built on container/heap: the standard
// interface forces every Push/Pop through an `any` box, which
// allocates per scheduled event and dominated the scheduler's profiles.
// The typed version runs the same sift algorithm with zero
// allocations beyond slice growth.
type eventHeap []item

// less orders events by firing time, FIFO within an instant.
func (h eventHeap) less(i, j int) bool { return h[i].less(h[j]) }

// push appends it and restores the heap property by sifting up.
//
//cosmosvet:hotpath
func (h *eventHeap) push(it item) {
	//cosmosvet:allow hotpath amortized heap growth; steady state reuses the backing array
	q := append(*h, it)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

// pop removes and returns the minimum element, sifting the displaced
// tail element down.
//
//cosmosvet:hotpath
func (h *eventHeap) pop() item {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && q.less(right, left) {
			min = right
		}
		if !q.less(min, i) {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	*h = q
	return top
}

// Timing-wheel geometry. The span must cover the common scheduling
// horizon — per-hop latencies (tens of ns), NI occupancy, think time —
// so that only genuinely far timers pay the heap's O(log n).
const (
	wheelBits = 12
	// wheelSpan is the wheel horizon in nanoseconds: events with
	// at - now < wheelSpan are wheel-resident, the rest overflow.
	wheelSpan = Time(1) << wheelBits
	wheelMask = int(wheelSpan - 1)
	wheelSize = int(wheelSpan)
	occWords  = wheelSize / 64
	// slotCap0 is the initial per-slot capacity, carved out of one
	// shared backing array at wheel setup: a slot that never holds more
	// than slotCap0 simultaneous events never allocates on its own.
	slotCap0 = 4
)

// wheelSlot is one wheel bucket: an append-ordered run of items with
// head marking the next unfired entry. Because the live window
// [now, now+wheelSpan) maps injectively onto slots, every item in a
// nonempty slot shares a single firing time, and because global
// scheduling order is seq order, appends keep each slot FIFO-sorted
// with no per-insert comparison at all.
type wheelSlot struct {
	head  int
	items []item
}

// Perturb is a bounded scheduling perturbation: given the nominal
// firing time and the scheduling sequence number of an event, it
// returns an extra non-negative delay to add before queueing. The
// chaos fuzzer (internal/chaos) uses it to explore alternative
// delivery interleavings; it MUST be a pure function of its arguments
// (plus a fixed seed) so perturbed runs stay replayable.
//
// Delaying deliveries can reorder the raw wire, so perturbed machines
// must run with the reliable transport layered in (an enabled fault
// plan), which restores the per-link FIFO order the protocol assumes.
type Perturb func(at Time, seq uint64) Time

// Engine is a single-threaded discrete-event simulator. The zero value
// is ready to use.
type Engine struct {
	now     Time
	seq     uint64
	fired   uint64
	halted  bool
	perturb Perturb

	// handlers is the fixed dispatch table for value-typed events,
	// indexed by EventKind.
	handlers []Handler

	// slots/occ/wheelCount form the timing wheel; slots is allocated
	// lazily on the first scheduled event so a zero Engine stays cheap.
	slots      []wheelSlot
	occ        []uint64
	wheelCount int

	// overflow holds events beyond the wheel horizon.
	overflow eventHeap

	// cur is the firing event: Step pops into it and dispatches
	// &cur.rec, so the handler reads the record in place, apart from
	// the queue storage its own posts may grow.
	cur item
}

// SetPerturb installs (or, with nil, removes) a scheduling
// perturbation applied to every subsequently scheduled event. Install
// it before the first event is scheduled; swapping mid-run would make
// the run depend on when the swap happened.
func (e *Engine) SetPerturb(p Perturb) { e.perturb = p }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns how many events have executed so far; useful both for
// stats and for run-away detection in tests.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of scheduled-but-unfired events.
func (e *Engine) Pending() int { return e.wheelCount + len(e.overflow) }

// NextAt returns the timestamp of the earliest queued event. ok is
// false when the queue is empty.
func (e *Engine) NextAt() (at Time, ok bool) {
	idx, wOk := e.wheelPeek()
	if wOk {
		s := &e.slots[idx]
		at, ok = s.items[s.head].at, true
	}
	if len(e.overflow) > 0 && (!ok || e.overflow[0].at < at) {
		at, ok = e.overflow[0].at, true
	}
	return at, ok
}

// initWheel performs the one-time lazy wheel allocation: the slot
// table, the occupancy bitmap, and one shared backing array carved
// into slotCap0-item runs so shallow slots never allocate individually.
func (e *Engine) initWheel() {
	//cosmosvet:allow hotpath one-time lazy wheel allocation on the first scheduled event
	e.slots = make([]wheelSlot, wheelSize)
	//cosmosvet:allow hotpath one-time lazy wheel allocation on the first scheduled event
	e.occ = make([]uint64, occWords)
	//cosmosvet:allow hotpath one-time lazy wheel allocation on the first scheduled event
	backing := make([]item, wheelSize*slotCap0)
	for i := range e.slots {
		e.slots[i].items = backing[i*slotCap0 : i*slotCap0 : (i+1)*slotCap0]
	}
}

// wheelAdd appends rec, stamped with at and the current sequence
// number, to its slot and marks the slot occupied.
//
//cosmosvet:hotpath
func (e *Engine) wheelAdd(at Time, rec *EventRec) {
	idx := int(at) & wheelMask
	s := &e.slots[idx]
	//cosmosvet:allow hotpath amortized slot growth; steady state reuses the backing array
	s.items = append(s.items, item{at: at, seq: e.seq, rec: *rec})
	e.occ[idx>>6] |= 1 << uint(idx&63)
	e.wheelCount++
}

// wheelPeek finds the slot holding the wheel's earliest item: the
// first occupied slot scanning circularly from now's slot. Every
// wheel-resident item lies in [now, now+wheelSpan), which maps
// one-to-one onto slots, so circular slot order IS firing-time order.
//
//cosmosvet:hotpath
func (e *Engine) wheelPeek() (idx int, ok bool) {
	if e.wheelCount == 0 {
		return 0, false
	}
	start := int(e.now) & wheelMask
	w0, b0 := start>>6, uint(start&63)
	if word := e.occ[w0] >> b0; word != 0 {
		return start + bits.TrailingZeros64(word), true
	}
	for i := 1; i <= occWords; i++ {
		w := w0 + i
		if w >= occWords {
			w -= occWords
		}
		// The last pass wraps back to the starting word, whose bits at
		// and above now's position the first check found clear.
		if word := e.occ[w]; word != 0 {
			return w<<6 + bits.TrailingZeros64(word), true
		}
	}
	panic("sim: wheel count positive but no occupied slot")
}

// wheelPop moves the head item of slot idx into cur, releasing the
// slot (and its occupancy bit) when it empties. The backing array is
// kept for reuse, so steady state recycles slot storage instead of
// allocating.
//
//cosmosvet:hotpath
func (e *Engine) wheelPop(idx int) {
	s := &e.slots[idx]
	e.cur = s.items[s.head]
	s.head++
	if s.head == len(s.items) {
		s.items = s.items[:0]
		s.head = 0
		e.occ[idx>>6] &^= 1 << uint(idx&63)
	}
	e.wheelCount--
}

// pop moves the globally earliest item into cur, merging the wheel
// and the overflow heap by (time, seq). An overflow item can share an
// instant with a wheel item (a far-scheduled timer whose horizon
// arrived), so the seq tiebreak is load-bearing here.
//
//cosmosvet:hotpath
func (e *Engine) pop() {
	idx, wOk := e.wheelPeek()
	if !wOk {
		e.cur = e.overflow.pop()
		return
	}
	s := &e.slots[idx]
	if len(e.overflow) > 0 && e.overflow[0].less(s.items[s.head]) {
		e.cur = e.overflow.pop()
		return
	}
	e.wheelPop(idx)
}

// Halt stops Run before the next event fires. Events already scheduled
// remain queued.
func (e *Engine) Halt() { e.halted = true }

// Step fires the single earliest event. It reports whether an event
// fired (false means the queue was empty). The handler gets a pointer
// to the engine's cur slot, which the next Step overwrites; handlers
// therefore never call Step themselves.
//
//cosmosvet:hotpath
func (e *Engine) Step() bool {
	if e.wheelCount == 0 && len(e.overflow) == 0 {
		return false
	}
	e.pop()
	e.now = e.cur.at
	e.fired++
	e.handlers[e.cur.rec.Kind](&e.cur.rec)
	return true
}

// Run fires events until the queue drains, Halt is called, or maxEvents
// events have fired (0 means no limit). It returns the number of events
// fired by this call and an error if the event budget was exhausted,
// which almost always means a protocol livelock.
func (e *Engine) Run(maxEvents uint64) (uint64, error) {
	e.halted = false
	var fired uint64
	for !e.halted {
		if maxEvents != 0 && fired >= maxEvents {
			next, _ := e.NextAt()
			return fired, fmt.Errorf("sim: event budget %d exhausted at t=%v with %d events pending (earliest at %v); likely livelock",
				maxEvents, e.now, e.Pending(), next)
		}
		if !e.Step() {
			return fired, nil
		}
		fired++
	}
	return fired, nil
}

// RunUntil fires events with timestamps <= deadline. Events scheduled
// beyond the deadline stay queued; time advances to the deadline if the
// queue drains early.
func (e *Engine) RunUntil(deadline Time) uint64 {
	var fired uint64
	for {
		at, ok := e.NextAt()
		if !ok || at > deadline {
			break
		}
		e.Step()
		fired++
	}
	if e.now < deadline {
		e.now = deadline
	}
	return fired
}

// MaxTime is the largest representable simulated time.
const MaxTime Time = math.MaxUint64
