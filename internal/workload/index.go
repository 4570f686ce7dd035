package workload

import "slices"

// procRef records that processor p touches item (a block or region
// index) of some shared data structure.
type procRef struct{ p, item int32 }

// appendRefs records that each of procs touches item.
func appendRefs(refs []procRef, item int, procs []int) []procRef {
	for _, q := range procs {
		refs = append(refs, procRef{p: int32(q), item: int32(item)})
	}
	return refs
}

// procIndex is a workload's sharing sets turned around: for every
// processor, the items it touches. The generators build one from the
// (item, sharers) draws of their layout, so a phase visits only its own
// processor's items instead of scanning every item's sharer set — the
// difference between O(own work) and O(all work) per (processor,
// phase), which is what 1024-node machines pay for.
//
// All processors' lists share one flat array, so an index costs two
// allocations however many processors there are, and rebuilding one
// in place reuses its storage.
type procIndex struct {
	start []int32 // p's items are items[start[p]:start[p+1]]
	items []int32
}

// of returns processor p's items. The slice aliases the index; callers
// must copy it before reordering it.
func (x *procIndex) of(p int) []int32 {
	return x.items[x.start[p]:x.start[p+1]]
}

// build replaces the index's contents with refs grouped by processor,
// for processors [0, procs). The grouping is stable: each processor's
// items keep their order in refs, so refs generated in ascending item
// order give ascending lists — the order the generators' scans used.
func (x *procIndex) build(procs int, refs []procRef) {
	// Counting sort. Counts go to start[p+2] so that after the prefix
	// sum start[p+1] is where p's items begin; placing an item bumps
	// start[p+1], which leaves it where p's items end.
	x.start = slices.Grow(x.start[:0], procs+2)[:procs+2]
	clear(x.start)
	for _, r := range refs {
		x.start[r.p+2]++
	}
	for i := 2; i < len(x.start); i++ {
		x.start[i] += x.start[i-1]
	}
	x.items = slices.Grow(x.items[:0], len(refs))[:len(refs)]
	for _, r := range refs {
		x.items[x.start[r.p+1]] = r.item
		x.start[r.p+1]++
	}
}

// newProcIndex builds an index of refs over procs processors.
func newProcIndex(procs int, refs []procRef) procIndex {
	var x procIndex
	x.build(procs, refs)
	return x
}
