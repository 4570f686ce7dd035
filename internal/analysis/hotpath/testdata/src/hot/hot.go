// Package hot exercises every hotpath-analyzer finding: direct
// allocating constructs, the loops-only scope, interface boxing in its
// three forms, the panic exemption, an allocation buried two static
// calls below the annotated root, and one reached through a generic
// instantiation.
package hot

import "fmt"

type item struct{ key, val int }

type heap struct {
	items []item
	n     int
}

//cosmosvet:hotpath
func (h *heap) push(it item) {
	h.items = append(h.items, it) // want `hot path heap.push: append may grow its backing array`
	h.n++
}

// pop itself is clean; the allocation hides in label, two calls down.

//cosmosvet:hotpath
func (h *heap) pop() item {
	it := h.items[h.n-1]
	h.n--
	h.note(it.key)
	return it
}

func (h *heap) note(k int) {
	h.label(k)
}

func (h *heap) label(k int) string {
	return fmt.Sprintf("k=%d", k) // want `hot path heap.pop: call to fmt.Sprintf allocates in heap.label \(via heap.pop -> heap.note -> heap.label\)`
}

//cosmosvet:hotpath
func build(n int) *item {
	s := make([]int, n) // want `hot path build: make allocates`
	_ = s
	return new(item) // want `hot path build: new allocates`
}

//cosmosvet:hotpath
func mix(a, b string) string {
	g := func() {} // want `hot path mix: function literal allocates a closure`
	g()
	p := &item{} // want `hot path mix: &composite literal allocates`
	_ = p
	if a == "" {
		panic("empty: " + b) // failure path: exempt
	}
	return a + b // want `hot path mix: string concatenation allocates`
}

//cosmosvet:hotpath
func lits() {
	s := []int{1, 2}   // want `hot path lits: slice literal allocates`
	m := map[int]int{} // want `hot path lits: map literal allocates`
	_, _ = s, m
}

func consume(v interface{}) { _ = v }

//cosmosvet:hotpath
func box(v int) interface{} {
	var x interface{} = v // want `hot path box: assignment boxes into an interface`
	x = v + 1             // want `hot path box: assignment boxes into an interface`
	consume(v)            // want `hot path box: argument boxes into an interface parameter`
	_ = x
	return any(v) // want `hot path box: conversion to interface boxes its operand`
}

// boxPtr passes a pointer: it fits the interface word directly, so
// nothing allocates and nothing is reported.

//cosmosvet:hotpath
func boxPtr(p *item) {
	consume(p)
}

// sum is loops-scoped: the setup make is fine, the append inside the
// range is not.

//cosmosvet:hotpath loops
func sum(xs []int) int {
	buf := make([]int, 0, 8)
	t := 0
	for _, x := range xs {
		t += x
		buf = append(buf, x) // want `hot path sum: append may grow its backing array`
	}
	_ = buf
	return t
}

// amortized shows the escape hatch: a reasoned allow silences the
// finding without weakening the analyzer elsewhere.

//cosmosvet:hotpath
func (h *heap) amortized(it item) {
	//cosmosvet:allow hotpath amortized growth is the point of this fixture
	h.items = append(h.items, it)
}

// vec is generic: a call through an instantiation must reach the
// generic method's body.
type vec[T any] struct{ s []T }

func (v *vec[T]) add(x T) {
	v.s = append(v.s, x) // want `hot path useVec: append may grow its backing array in`
}

//cosmosvet:hotpath
func useVec(v *vec[int]) {
	v.add(1)
}
