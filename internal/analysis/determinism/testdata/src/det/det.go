// Package det is the determinism analyzer's positive fixture: every
// construct the analyzer must flag, next to the sanctioned
// alternatives it must stay silent on. Loaded only by analysistest;
// wildcard builds skip testdata.
package det

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

type msg struct{ addr uint64 }

type wire struct{ sent []msg }

func (w *wire) Send(m msg)                { w.sent = append(w.sent, m) }
func (w *wire) Deliver(m msg)             {}
func (w *wire) Post(at uint64, m msg)     {}
func (w *wire) PostAfter(d uint64, m msg) {}

func wallClock() (time.Time, time.Duration) {
	now := time.Now()    // want `wall-clock read time\.Now`
	d := time.Since(now) // want `wall-clock read time\.Since`
	_ = time.Until(now)  // want `wall-clock read time\.Until`
	_ = now.Add(d)       // methods on time values are fine
	return now, d
}

func globalRand() int {
	n := rand.Intn(10)                 // want `rand\.Intn uses the process-global random source`
	rand.Shuffle(n, func(i, j int) {}) // want `rand\.Shuffle uses the process-global random source`
	r := rand.New(rand.NewSource(42))  // explicitly seeded: allowed
	return r.Intn(10)
}

func allowedClock() time.Time {
	//cosmosvet:allow determinism fixture exercises the escape hatch
	return time.Now()
}

func sendInMapOrder(w *wire, pending map[uint64]msg) {
	for _, m := range pending { // want `map iteration order reaches Send`
		w.Send(m)
	}
	for a := range pending { // want `map iteration order reaches Deliver`
		w.Deliver(msg{addr: a})
	}
	for a, m := range pending { // want `map iteration order reaches Post`
		w.Post(a, m)
	}
	for a, m := range pending { // want `map iteration order reaches PostAfter`
		w.PostAfter(a, m)
	}
}

func printInMapOrder(counts map[string]int) {
	for k, v := range counts { // want `map iteration order reaches fmt\.Printf`
		fmt.Printf("%s=%d\n", k, v)
	}
}

func appendUnsorted(m map[uint64]msg) []msg {
	var out []msg
	for _, v := range m { // want `map iteration appends to out in nondeterministic order`
		out = append(out, v)
	}
	return out
}

func appendThenSort(m map[uint64]msg) []msg {
	var out []msg
	for _, v := range m { // collect-then-sort: the sanctioned idiom
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].addr < out[j].addr })
	return out
}

func commutativeLoop(m map[uint64]int) int {
	total := 0
	for _, v := range m { // order-insensitive reduction: fine
		total += v
	}
	return total
}

func freshSlicePerIteration(m map[uint64]int) {
	for k := range m { // slice declared inside the loop: fine
		var scratch []uint64
		scratch = append(scratch, k)
		_ = scratch
	}
}
