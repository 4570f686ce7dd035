package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

// logKind registers a handler on e that appends each event's Seq to
// *log, the common recording idiom of these tests.
func logKind(e *Engine, log *[]uint64) EventKind {
	return e.RegisterHandler(func(rec *EventRec) { *log = append(*log, rec.Seq) })
}

func TestEngineOrdersByTime(t *testing.T) {
	var e Engine
	var got []uint64
	k := logKind(&e, &got)
	e.Post(30, EventRec{Kind: k, Seq: 3})
	e.Post(10, EventRec{Kind: k, Seq: 1})
	e.Post(20, EventRec{Kind: k, Seq: 2})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("order = %v, want [1 2 3]", got)
	}
	if e.Now() != 30 {
		t.Errorf("Now() = %v, want 30ns", e.Now())
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	// Events at the same timestamp must fire in scheduling order.
	var e Engine
	var got []uint64
	k := logKind(&e, &got)
	for i := 0; i < 100; i++ {
		e.Post(5, EventRec{Kind: k, Seq: uint64(i)})
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("same-instant events reordered: got[%d] = %d", i, v)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	var e Engine
	var trace []Time
	leaf := e.RegisterHandler(func(*EventRec) { trace = append(trace, e.Now()) })
	root := e.RegisterHandler(func(*EventRec) {
		trace = append(trace, e.Now())
		e.PostAfter(5, EventRec{Kind: leaf})
		e.PostAfter(0, EventRec{Kind: leaf})
	})
	e.Post(10, EventRec{Kind: root})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []Time{10, 10, 15}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	var e Engine
	nop := e.RegisterHandler(func(*EventRec) {})
	k := e.RegisterHandler(func(*EventRec) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Post(5, EventRec{Kind: nop})
	})
	e.Post(10, EventRec{Kind: k})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
}

// tickKind registers a self-perpetuating event that reposts itself
// every period nanoseconds: it would run forever without a budget.
func tickKind(e *Engine, period Time) EventKind {
	var k EventKind
	k = e.RegisterHandler(func(*EventRec) { e.PostAfter(period, EventRec{Kind: k}) })
	return k
}

func TestEngineBudget(t *testing.T) {
	var e Engine
	e.Post(0, EventRec{Kind: tickKind(&e, 1)})
	fired, err := e.Run(100)
	if err == nil {
		t.Fatal("expected budget-exhausted error")
	}
	if fired != 100 {
		t.Errorf("fired = %d, want 100", fired)
	}
}

func TestEngineHalt(t *testing.T) {
	var e Engine
	count := 0
	k := e.RegisterHandler(func(*EventRec) {
		count++
		if count == 3 {
			e.Halt()
		}
	})
	for i := 0; i < 10; i++ {
		e.Post(Time(i), EventRec{Kind: k})
	}
	fired, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if fired != 3 || count != 3 {
		t.Errorf("fired=%d count=%d, want 3", fired, count)
	}
	if e.Pending() != 7 {
		t.Errorf("Pending() = %d, want 7", e.Pending())
	}
}

func TestEngineRunUntil(t *testing.T) {
	var e Engine
	var got []uint64
	k := logKind(&e, &got)
	for _, at := range []Time{5, 10, 15, 20} {
		e.Post(at, EventRec{Kind: k, Seq: uint64(at)})
	}
	e.RunUntil(12)
	if len(got) != 2 || got[0] != 5 || got[1] != 10 {
		t.Fatalf("got = %v", got)
	}
	if e.Now() != 12 {
		t.Errorf("Now() = %v, want 12", e.Now())
	}
	e.RunUntil(100)
	if len(got) != 4 {
		t.Fatalf("got = %v after second RunUntil", got)
	}
}

func TestEngineStepOnEmpty(t *testing.T) {
	var e Engine
	if e.Step() {
		t.Error("Step on empty queue returned true")
	}
}

func TestEngineRandomizedOrdering(t *testing.T) {
	// Property: any set of (time, insertion-order) pairs fires in
	// lexicographic (time, insertion) order.
	f := func(times []uint16) bool {
		var e Engine
		type key struct {
			at  Time
			ins uint64
		}
		var fired []key
		k := e.RegisterHandler(func(rec *EventRec) { fired = append(fired, key{e.Now(), rec.Seq}) })
		for i, raw := range times {
			e.Post(Time(raw), EventRec{Kind: k, Seq: uint64(i)})
		}
		if _, err := e.Run(0); err != nil {
			return false
		}
		return sort.SliceIsSorted(fired, func(a, b int) bool {
			if fired[a].at != fired[b].at {
				return fired[a].at < fired[b].at
			}
			return fired[a].ins < fired[b].ins
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestEngineSteadyStateAllocFree pins the event core's allocation
// claim: once the queue holds a steady population, Post plus Step
// allocates nothing, and handing the handler &cur.rec never moves the
// record to the heap. 1024 periodic events, four per instant (a full
// slotCap0 slot), each repost themselves on firing: most 256ns out on
// the wheel, every sixteenth past the horizon into the overflow heap.
// A first stepSteady grows the heap to its steady size; the measured
// one then fires 64Ki events, and only allocations on its own call
// stack count, so a single allocation anywhere among them fails the
// test while another goroutine's cannot.
func TestEngineSteadyStateAllocFree(t *testing.T) {
	var e Engine
	var k EventKind
	k = e.RegisterHandler(func(rec *EventRec) {
		delay := Time(256)
		if rec.Seq%16 == 0 {
			delay = 2 * wheelSpan
		}
		e.PostAfter(delay, EventRec{Kind: k, Seq: rec.Seq})
	})
	for i := 0; i < 1024; i++ {
		e.Post(Time(i/4), EventRec{Kind: k, Seq: uint64(i)})
	}
	stepSteady(&e)
	if allocs := allocsThrough(stepSteady, func() { stepSteady(&e) }); allocs != 0 {
		t.Errorf("64Ki steady-state Step+Post pairs allocated %d times, want 0", allocs)
	}
}

// stepSteady fires 64Ki events; allocsThrough counts by its name.
//
//go:noinline
func stepSteady(e *Engine) {
	for i := 0; i < 1<<16; i++ {
		e.Step()
	}
}

// allocsThrough runs f once with every allocation sampled and returns
// how many objects were allocated on stacks passing through fn.
// testing.AllocsPerRun counts mallocs process-wide, so one allocation
// by another goroutine during f would be charged to f; here only f's
// own call chain into fn counts.
func allocsThrough(fn any, f func()) int64 {
	name := runtime.FuncForPC(reflect.ValueOf(fn).Pointer()).Name()
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	// A heap profile publishes allocations at the end of a GC cycle, so
	// a collection on each side brackets exactly f's allocations.
	runtime.GC()
	before := profiledAllocs(name)
	f()
	runtime.GC()
	return profiledAllocs(name) - before
}

// profiledAllocs sums the cumulative allocation counts of every heap
// profile record whose stack passes through the function named name.
func profiledAllocs(name string) int64 {
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	var total int64
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			fr, more := frames.Next()
			if fr.Function == name {
				total += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return total
}

// TestAllocsThroughSeesHandlerAllocations: an allocation a handler
// makes under stepSteady is counted, so the zero above is a real
// measurement rather than a stack the profile never attributes.
func TestAllocsThroughSeesHandlerAllocations(t *testing.T) {
	var e Engine
	var sink []*EventRec
	var k EventKind
	k = e.RegisterHandler(func(rec *EventRec) {
		sink = append(sink[:0], &EventRec{Seq: rec.Seq})
		e.PostAfter(1, EventRec{Kind: k})
	})
	e.Post(0, EventRec{Kind: k})
	if n := allocsThrough(stepSteady, func() { stepSteady(&e) }); n < 1<<16 {
		t.Errorf("allocsThrough counted %d allocations under stepSteady, want at least %d", n, 1<<16)
	}
}

// TestHandlerRecordSurvivesOwnPosts: the record a handler is handed
// stays unchanged while the handler posts more same-instant events
// than a slot holds before it grows, so a handler may read its record
// after scheduling work. One root fires alone, so its slot empties and
// the posts refill it from the start; the other heads a full slot, so
// the posts regrow the slot under it.
func TestHandlerRecordSurvivesOwnPosts(t *testing.T) {
	var e Engine
	leaves := 0
	leaf := e.RegisterHandler(func(*EventRec) { leaves++ })
	want := map[uint64]EventRec{}
	var root EventKind
	root = e.RegisterHandler(func(rec *EventRec) {
		before := *rec
		if before != want[before.Seq] {
			t.Fatalf("handler got %+v, want %+v", before, want[before.Seq])
		}
		for i := 0; i < 4*slotCap0; i++ {
			e.PostAfter(0, EventRec{Kind: leaf, Flags: 0xff, Src: -1, Dst: -1, Seq: ^uint64(i),
				Msg: coherence.Msg{Src: -1, Dst: -1, Type: coherence.InvalRWReq, Addr: ^coherence.Addr(0)}})
		}
		if *rec != before {
			t.Errorf("record changed under its handler's posts: %+v, was %+v", *rec, before)
		}
	})
	for i := uint64(1); i <= 2; i++ {
		rec := EventRec{Kind: root, Flags: uint8(i), Src: coherence.NodeID(i), Dst: coherence.NodeID(i + 1), Seq: i,
			Msg: coherence.Msg{Src: coherence.NodeID(i), Dst: coherence.NodeID(i + 1), Type: coherence.GetROReq, Addr: coherence.Addr(64 * i)}}
		want[i] = rec
		e.Post(Time(10*i), rec)
	}
	for i := 1; i < slotCap0; i++ {
		e.Post(20, EventRec{Kind: leaf})
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if want := 2*4*slotCap0 + slotCap0 - 1; leaves != want || e.Now() != 20 {
		t.Errorf("fired %d leaves ending at %v, want %d at 20ns", leaves, e.Now(), want)
	}
}

// TestItemIsPointerFree pins the scheduler entry's layout: 56 bytes
// with no pointer field, so the collector never scans the wheel slab
// or the overflow heap, and widening the queued event is a visible
// decision.
func TestItemIsPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(item{}); size != 56 {
		t.Errorf("item is %d bytes, want 56", size)
	}
	var walk func(reflect.Type) bool
	walk = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan,
			reflect.Func, reflect.Interface, reflect.Slice, reflect.String:
			return true
		case reflect.Array:
			return walk(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if walk(ty.Field(i).Type) {
					return true
				}
			}
		}
		return false
	}
	if walk(reflect.TypeOf(item{})) {
		t.Error("item holds a pointer-bearing field")
	}
}

func TestDefaultConfigMatchesTable3(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Nodes != 16 {
		t.Errorf("Nodes = %d", c.Nodes)
	}
	if c.CacheBlockBytes != 64 {
		t.Errorf("CacheBlockBytes = %d", c.CacheBlockBytes)
	}
	if c.PageBytes != 4096 {
		t.Errorf("PageBytes = %d", c.PageBytes)
	}
	if c.NetworkLatencyNs != 40 {
		t.Errorf("NetworkLatencyNs = %v", c.NetworkLatencyNs)
	}
	if c.NIAccessNs != 60 {
		t.Errorf("NIAccessNs = %v", c.NIAccessNs)
	}
	if c.BusWidthBits != 256 || c.BusClockHz != 250_000_000 {
		t.Errorf("bus = %d bits @ %d Hz", c.BusWidthBits, c.BusClockHz)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.CacheBlockBytes = 48 },
		func(c *Config) { c.CacheBlockBytes = 0 },
		func(c *Config) { c.PageBytes = 1000 },
		func(c *Config) { c.CacheBlockBytes = 8192; c.PageBytes = 4096 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid config", i)
		}
	}
}

func TestBusTransfer(t *testing.T) {
	c := DefaultConfig()
	// 256-bit bus at 250 MHz = 32 bytes per 4 ns cycle.
	if got := c.BusTransferNs(64); got != 8 {
		t.Errorf("BusTransferNs(64) = %v, want 8ns", got)
	}
	if got := c.BusTransferNs(1); got != 4 {
		t.Errorf("BusTransferNs(1) = %v, want 4ns", got)
	}
	if got := c.BusTransferNs(0); got != 0 {
		t.Errorf("BusTransferNs(0) = %v, want 0", got)
	}
}

func TestMessageLatency(t *testing.T) {
	c := DefaultConfig()
	if got := c.MessageLatencyNs(); got != 160 {
		t.Errorf("MessageLatencyNs = %v, want 160ns (60+40+60)", got)
	}
}

func TestEngineBudgetErrorDiagnostics(t *testing.T) {
	var e Engine
	e.Post(0, EventRec{Kind: tickKind(&e, 7)})
	_, err := e.Run(10)
	if err == nil {
		t.Fatal("expected budget-exhausted error")
	}
	// The error must name the pending-event count and the earliest
	// queued timestamp so a livelock is debuggable from the message
	// alone.
	msg := err.Error()
	if !strings.Contains(msg, "1 events pending") {
		t.Errorf("error %q does not report the pending count", msg)
	}
	next, ok := e.NextAt()
	if !ok {
		t.Fatal("queue unexpectedly empty")
	}
	if !strings.Contains(msg, next.String()) {
		t.Errorf("error %q does not report the earliest queued event (%v)", msg, next)
	}
}

func TestEngineNextAt(t *testing.T) {
	var e Engine
	if _, ok := e.NextAt(); ok {
		t.Error("NextAt on an empty queue reports ok")
	}
	nop := e.RegisterHandler(func(*EventRec) {})
	e.Post(30, EventRec{Kind: nop})
	e.Post(10, EventRec{Kind: nop})
	if at, ok := e.NextAt(); !ok || at != 10 {
		t.Errorf("NextAt = %v,%v, want 10,true", at, ok)
	}
}

func TestEngineTopLevelPastSchedulingPanics(t *testing.T) {
	var e Engine
	nop := e.RegisterHandler(func(*EventRec) {})
	e.Post(10, EventRec{Kind: nop})
	if !e.Step() {
		t.Fatal("Step fired nothing")
	}
	defer func() {
		if recover() == nil {
			t.Error("scheduling at t=5 with now=10 did not panic")
		}
	}()
	e.Post(5, EventRec{Kind: nop})
}

func TestEngineRunUntilPastDeadlineDrains(t *testing.T) {
	var e Engine
	fired := 0
	k := e.RegisterHandler(func(*EventRec) { fired++ })
	for _, at := range []Time{5, 10, 15} {
		e.Post(at, EventRec{Kind: k})
	}
	// A deadline beyond every queued event drains the queue and then
	// advances the clock to the deadline, not just to the last event.
	if n := e.RunUntil(1000); n != 3 {
		t.Fatalf("RunUntil fired %d events, want 3", n)
	}
	if fired != 3 {
		t.Fatalf("fired = %d, want 3", fired)
	}
	if e.Now() != 1000 {
		t.Errorf("Now() = %v, want 1000 (deadline)", e.Now())
	}
	if e.Pending() != 0 {
		t.Errorf("Pending() = %d, want 0", e.Pending())
	}
	// Re-running with an earlier deadline is a no-op that leaves time
	// alone (time never moves backwards).
	if n := e.RunUntil(500); n != 0 {
		t.Errorf("second RunUntil fired %d events, want 0", n)
	}
	if e.Now() != 1000 {
		t.Errorf("Now() = %v after earlier deadline, want 1000", e.Now())
	}
}
