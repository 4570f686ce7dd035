package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// refEngine is the pure-heap reference scheduler the timing wheel is
// pinned against: the engine's (time, seq) contract built on nothing
// but the production eventHeap. It stamps, perturbs and dispatches
// exactly as Engine does, so any difference in what fires, or when,
// is the wheel's.
type refEngine struct {
	now      Time
	seq      uint64
	perturb  Perturb
	handlers []Handler
	q        eventHeap
}

func (r *refEngine) Now() Time                      { return r.now }
func (r *refEngine) Pending() int                   { return len(r.q) }
func (r *refEngine) SetPerturb(p Perturb)           { r.perturb = p }
func (r *refEngine) PostAfter(d Time, rec EventRec) { r.Post(r.now+d, rec) }

func (r *refEngine) RegisterHandler(h Handler) EventKind {
	r.handlers = append(r.handlers, h)
	return EventKind(len(r.handlers) - 1)
}

func (r *refEngine) Post(at Time, rec EventRec) {
	if int(rec.Kind) >= len(r.handlers) || at < r.now {
		panic(fmt.Sprintf("refEngine: bad Post of kind %d at %v (now %v)", rec.Kind, at, r.now))
	}
	r.seq++
	if r.perturb != nil {
		at += r.perturb(at, r.seq)
	}
	r.q.push(item{at: at, seq: r.seq, rec: rec})
}

func (r *refEngine) Step() bool {
	if len(r.q) == 0 {
		return false
	}
	it := r.q.pop()
	r.now = it.at
	r.handlers[it.rec.Kind](&it.rec)
	return true
}

func (r *refEngine) RunUntil(deadline Time) uint64 {
	var fired uint64
	for len(r.q) > 0 && r.q[0].at <= deadline {
		r.Step()
		fired++
	}
	if r.now < deadline {
		r.now = deadline
	}
	return fired
}

// scheduler is what a test script drives: the Engine, or the reference.
type scheduler interface {
	Now() Time
	Pending() int
	SetPerturb(Perturb)
	RegisterHandler(Handler) EventKind
	Post(Time, EventRec)
	PostAfter(Time, EventRec)
	Step() bool
	RunUntil(Time) uint64
}

// bothSchedulers returns a fresh wheel engine and a fresh reference.
func bothSchedulers() []scheduler { return []scheduler{&Engine{}, &refEngine{}} }

// firingLogs runs the same scheduling script against a wheel engine
// and the heap-only reference and returns both firing orders, rendered
// as "(id@time)" strings so mismatches read directly in failures. The
// script receives the scheduler and a registered kind whose events log
// their Seq as the id.
func firingLogs(t *testing.T, script func(e scheduler, record EventKind)) (wheel, heap string) {
	t.Helper()
	var logs []string
	for _, e := range bothSchedulers() {
		var log []string
		script(e, e.RegisterHandler(func(rec *EventRec) {
			log = append(log, fmt.Sprintf("(%d@%d)", rec.Seq, uint64(e.Now())))
		}))
		for e.Step() {
		}
		logs = append(logs, fmt.Sprint(log))
	}
	return logs[0], logs[1]
}

// TestWheelHeapEquivalenceRandom drives both schedulers with the same
// pseudo-random mix of near (wheel-resident) and far (overflow) events,
// including same-instant collisions, and requires byte-identical
// firing order. The times deliberately straddle the horizon: half the
// range is inside wheelSpan, half beyond it.
func TestWheelHeapEquivalenceRandom(t *testing.T) {
	f := func(times []uint16) bool {
		script := func(e scheduler, record EventKind) {
			for i, at := range times {
				// uint16 tops out at 65535, 16x the wheel span, so
				// both routes are exercised.
				e.Post(Time(at), EventRec{Kind: record, Seq: uint64(i)})
			}
		}
		wheel, heap := firingLogs(t, script)
		return wheel == heap
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// childDelays are the offsets a dynamic test's handlers schedule
// children at. They are few and sit on and around the horizon, so a
// child posted far ahead (overflow) and one posted later from nearer
// (wheel) often land on the same instant, and the merge in pop has to
// break the tie by seq.
var childDelays = []Time{0, 0, 1, 8, 64, wheelSpan - 8, wheelSpan - 1, wheelSpan, wheelSpan + 8, 3 * wheelSpan}

// TestWheelMatchesReferenceDynamic runs a seeded, self-extending
// schedule on both schedulers: every fired event posts up to three
// children at delays drawn from childDelays (same-instant posts, wheel
// residents and overflow residents alike), through a seeded Perturb on
// odd seeds, while the test advances the clock with RunUntil to seeded
// deadlines. Every fired event — id, kind and instant — and the clock
// and queue depth after each RunUntil must match the reference's.
func TestWheelMatchesReferenceDynamic(t *testing.T) {
	const budget = 3000 // events posted per run
	for seed := int64(1); seed <= 16; seed++ {
		run := func(e scheduler) []string {
			rng := rand.New(rand.NewSource(seed))
			var log []string
			posted := 0
			var kinds [2]EventKind
			post := func(at Time) {
				kind := kinds[rng.Intn(len(kinds))]
				e.Post(at, EventRec{Kind: kind, Seq: uint64(posted)})
				posted++
			}
			for i := range kinds {
				kinds[i] = e.RegisterHandler(func(rec *EventRec) {
					log = append(log, fmt.Sprintf("k%d:%d@%d", rec.Kind, rec.Seq, uint64(e.Now())))
					for n := rng.Intn(4); n > 0 && posted < budget; n-- {
						post(e.Now() + childDelays[rng.Intn(len(childDelays))])
					}
				})
			}
			if seed%2 == 1 {
				// A pure function of (at, seq): about one event in five slips
				// past the horizon, the rest by a few nanoseconds.
				e.SetPerturb(func(at Time, seq uint64) Time {
					h := (seq ^ uint64(seed)) * 0x9e3779b97f4a7c15
					if h%5 == 0 {
						return wheelSpan + Time(h>>60)
					}
					return Time(h >> 62)
				})
			}
			for i := 0; i < 8; i++ {
				post(Time(rng.Intn(2 * wheelSize)))
			}
			for e.Pending() > 0 {
				deadline := e.Now() + Time(rng.Intn(3*wheelSize))
				n := e.RunUntil(deadline)
				log = append(log, fmt.Sprintf("until %d: fired %d now %d pending %d", uint64(deadline), n, uint64(e.Now()), e.Pending()))
			}
			return log
		}
		wheel, ref := run(&Engine{}), run(&refEngine{})
		for i := 0; i < len(wheel) && i < len(ref); i++ {
			if wheel[i] != ref[i] {
				t.Fatalf("seed %d: entry %d diverged: wheel %s, reference %s", seed, i, wheel[i], ref[i])
			}
		}
		if len(wheel) != len(ref) {
			t.Fatalf("seed %d: wheel logged %d entries, reference %d", seed, len(wheel), len(ref))
		}
	}
}

// TestWheelHorizonBoundary pins the exact horizon edge: an event at
// now+wheelSpan-1 is the last wheel resident, one at now+wheelSpan the
// first overflow, and both must fire in (time, seq) order either way.
func TestWheelHorizonBoundary(t *testing.T) {
	wheel, heap := firingLogs(t, func(e scheduler, record EventKind) {
		e.Post(Time(wheelSpan), EventRec{Kind: record, Seq: 1})   // first beyond the horizon
		e.Post(Time(wheelSpan-1), EventRec{Kind: record, Seq: 0}) // last inside it
		e.Post(Time(wheelSpan), EventRec{Kind: record, Seq: 2})   // same instant as 1, later seq
	})
	if wheel != heap {
		t.Fatalf("horizon boundary order diverged:\nwheel: %s\nheap:  %s", wheel, heap)
	}
	if want := "[(0@4095) (1@4096) (2@4096)]"; wheel != want {
		t.Fatalf("firing order = %s, want %s", wheel, want)
	}
}

// TestWheelOverflowInterleaving schedules a far event, advances time
// until that event is inside the wheel horizon, then schedules wheel
// events at the identical instant. The overflow resident has the lower
// seq, so it must fire first — the merge point's seq tiebreak.
func TestWheelOverflowInterleaving(t *testing.T) {
	wheel, heap := firingLogs(t, func(e scheduler, record EventKind) {
		far := Time(wheelSpan + 100)
		// Fires once 'far' is within the horizon: posts a wheel
		// resident at the same instant with a later seq, then logs.
		mid := e.RegisterHandler(func(*EventRec) {
			e.Post(far, EventRec{Kind: record, Seq: 1})
			e.Post(e.Now(), EventRec{Kind: record, Seq: 2})
		})
		e.Post(far, EventRec{Kind: record, Seq: 0}) // overflow resident, seq 1
		e.Post(Time(wheelSpan), EventRec{Kind: mid})
	})
	if wheel != heap {
		t.Fatalf("overflow interleaving diverged:\nwheel: %s\nheap:  %s", wheel, heap)
	}
	if want := fmt.Sprintf("[(2@%d) (0@%d) (1@%d)]", uint64(wheelSpan), wheelSpan+100, wheelSpan+100); wheel != want {
		t.Fatalf("firing order = %s, want %s", wheel, want)
	}
}

// TestWheelPerturbAcrossHorizon installs a Perturb that pushes
// nominally near events past the wheel horizon (the chaos fuzzer can
// legally do this), and requires the perturbed order to match the
// heap's exactly.
func TestWheelPerturbAcrossHorizon(t *testing.T) {
	perturb := func(at Time, seq uint64) Time {
		if seq%3 == 0 {
			return wheelSpan + Time(seq) // shove every third event far out
		}
		return Time(seq % 7)
	}
	wheel, heap := firingLogs(t, func(e scheduler, record EventKind) {
		e.SetPerturb(perturb)
		for i := 0; i < 50; i++ {
			e.Post(Time(i%10), EventRec{Kind: record, Seq: uint64(i)})
		}
	})
	if wheel != heap {
		t.Fatalf("perturbed order diverged:\nwheel: %s\nheap:  %s", wheel, heap)
	}
}

// TestWheelRunUntilMidSlot stops RunUntil at a deadline landing in the
// middle of a populated instant's slot window, on both schedulers:
// events at the deadline fire, events one tick later stay queued, and
// the clock parks exactly at the deadline.
func TestWheelRunUntilMidSlot(t *testing.T) {
	for _, e := range bothSchedulers() {
		var fired []uint64
		k := e.RegisterHandler(func(rec *EventRec) { fired = append(fired, rec.Seq) })
		for i, at := range []Time{10, 20, 20, 21, wheelSpan + 5} {
			e.Post(at, EventRec{Kind: k, Seq: uint64(i)})
		}
		if n := e.RunUntil(20); n != 3 {
			t.Fatalf("%T: RunUntil(20) fired %d events, want 3", e, n)
		}
		if want := fmt.Sprint([]int{0, 1, 2}); fmt.Sprint(fired) != want {
			t.Fatalf("%T: fired %v, want %s", e, fired, want)
		}
		if e.Now() != 20 {
			t.Fatalf("%T: now = %v, want 20", e, e.Now())
		}
		if e.Pending() != 2 {
			t.Fatalf("%T: pending = %d, want 2", e, e.Pending())
		}
		// Draining past the far event must advance through the slot and
		// the overflow alike.
		if n := e.RunUntil(MaxTime); n != 2 {
			t.Fatalf("%T: final drain fired %d events, want 2", e, n)
		}
	}
}

// TestWheelKindsInterleaveFIFO interleaves events of two handler kinds
// at shared instants and checks that dispatch keeps the merged FIFO
// order on both schedulers.
func TestWheelKindsInterleaveFIFO(t *testing.T) {
	for _, e := range bothSchedulers() {
		var log []string
		a := e.RegisterHandler(func(rec *EventRec) {
			log = append(log, fmt.Sprintf("a%d@%d", rec.Seq, uint64(e.Now())))
		})
		b := e.RegisterHandler(func(rec *EventRec) {
			log = append(log, fmt.Sprintf("b%d@%d", rec.Seq, uint64(e.Now())))
		})
		e.Post(5, EventRec{Kind: b, Seq: 1})
		e.Post(5, EventRec{Kind: a, Seq: 1})
		e.Post(5, EventRec{Kind: b, Seq: 2})
		e.PostAfter(5, EventRec{Kind: a, Seq: 2})
		for e.Step() {
		}
		if want := "[b1@5 a1@5 b2@5 a2@5]"; fmt.Sprint(log) != want {
			t.Fatalf("%T: order = %v, want %s", e, log, want)
		}
	}
}

// TestPostUnregisteredKindPanics documents the dispatch-table guard.
func TestPostUnregisteredKindPanics(t *testing.T) {
	e := &Engine{}
	defer func() {
		if recover() == nil {
			t.Fatal("Post with an unregistered kind did not panic")
		}
	}()
	e.Post(0, EventRec{Kind: 3})
}
