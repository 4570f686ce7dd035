package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

// firingLogs runs the same scheduling script against a wheel engine
// and a heap-only engine and returns both firing orders, rendered as
// "(id@time)" strings so mismatches read directly in failures. The
// script receives the engine and a registered kind whose events log
// their Seq as the id.
func firingLogs(t *testing.T, script func(e *Engine, record EventKind)) (wheel, heap string) {
	t.Helper()
	run := func(heapOnly bool) string {
		e := &Engine{}
		e.SetHeapOnly(heapOnly)
		var log []string
		script(e, e.RegisterHandler(func(rec EventRec) {
			log = append(log, fmt.Sprintf("(%d@%d)", rec.Seq, uint64(e.Now())))
		}))
		for e.Step() {
		}
		return fmt.Sprint(log)
	}
	return run(false), run(true)
}

// TestWheelHeapEquivalenceRandom drives both schedulers with the same
// pseudo-random mix of near (wheel-resident) and far (overflow) events,
// including same-instant collisions, and requires byte-identical
// firing order. The times deliberately straddle the horizon: half the
// range is inside wheelSpan, half beyond it.
func TestWheelHeapEquivalenceRandom(t *testing.T) {
	f := func(times []uint16) bool {
		script := func(e *Engine, record EventKind) {
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

// TestWheelHorizonBoundary pins the exact horizon edge: an event at
// now+wheelSpan-1 is the last wheel resident, one at now+wheelSpan the
// first overflow, and both must fire in (time, seq) order either way.
func TestWheelHorizonBoundary(t *testing.T) {
	wheel, heap := firingLogs(t, func(e *Engine, record EventKind) {
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
	wheel, heap := firingLogs(t, func(e *Engine, record EventKind) {
		far := Time(wheelSpan + 100)
		// Fires once 'far' is within the horizon: posts a wheel
		// resident at the same instant with a later seq, then logs.
		mid := e.RegisterHandler(func(EventRec) {
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
	wheel, heap := firingLogs(t, func(e *Engine, record EventKind) {
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
// middle of a populated instant's slot window, on both engines: events
// at the deadline fire, events one tick later stay queued, and the
// clock parks exactly at the deadline.
func TestWheelRunUntilMidSlot(t *testing.T) {
	for _, heapOnly := range []bool{false, true} {
		e := &Engine{}
		e.SetHeapOnly(heapOnly)
		var fired []uint64
		k := e.RegisterHandler(func(rec EventRec) { fired = append(fired, rec.Seq) })
		for i, at := range []Time{10, 20, 20, 21, wheelSpan + 5} {
			e.Post(at, EventRec{Kind: k, Seq: uint64(i)})
		}
		if n := e.RunUntil(20); n != 3 {
			t.Fatalf("heapOnly=%v: RunUntil(20) fired %d events, want 3", heapOnly, n)
		}
		if want := fmt.Sprint([]int{0, 1, 2}); fmt.Sprint(fired) != want {
			t.Fatalf("heapOnly=%v: fired %v, want %s", heapOnly, fired, want)
		}
		if e.Now() != 20 {
			t.Fatalf("heapOnly=%v: now = %v, want 20", heapOnly, e.Now())
		}
		if e.Pending() != 2 {
			t.Fatalf("heapOnly=%v: pending = %d, want 2", heapOnly, e.Pending())
		}
		// Draining past the far event must advance through the slot and
		// the overflow alike.
		if n := e.RunUntil(MaxTime); n != 2 {
			t.Fatalf("heapOnly=%v: final drain fired %d events, want 2", heapOnly, n)
		}
	}
}

// TestWheelKindsInterleaveFIFO interleaves events of two handler kinds
// at shared instants and checks that dispatch keeps the merged FIFO
// order on both engines.
func TestWheelKindsInterleaveFIFO(t *testing.T) {
	for _, heapOnly := range []bool{false, true} {
		e := &Engine{}
		e.SetHeapOnly(heapOnly)
		var log []string
		a := e.RegisterHandler(func(rec EventRec) {
			log = append(log, fmt.Sprintf("a%d@%d", rec.Seq, uint64(e.Now())))
		})
		b := e.RegisterHandler(func(rec EventRec) {
			log = append(log, fmt.Sprintf("b%d@%d", rec.Seq, uint64(e.Now())))
		})
		e.Post(5, EventRec{Kind: b, Seq: 1})
		e.Post(5, EventRec{Kind: a, Seq: 1})
		e.Post(5, EventRec{Kind: b, Seq: 2})
		e.PostAfter(5, EventRec{Kind: a, Seq: 2})
		for e.Step() {
		}
		if want := "[b1@5 a1@5 b2@5 a2@5]"; fmt.Sprint(log) != want {
			t.Fatalf("heapOnly=%v: order = %v, want %s", heapOnly, log, want)
		}
	}
}

// TestSetHeapOnlyPanicsWithPending documents the mode-switch guard.
func TestSetHeapOnlyPanicsWithPending(t *testing.T) {
	e := &Engine{}
	e.Post(1, EventRec{Kind: e.RegisterHandler(func(EventRec) {})})
	defer func() {
		if recover() == nil {
			t.Fatal("SetHeapOnly with pending events did not panic")
		}
	}()
	e.SetHeapOnly(true)
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
