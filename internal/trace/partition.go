package trace

// Slot-sharded view of a trace.
//
// Every predictor the evaluators drive — Cosmos/PAp, PAg, the
// macroblock variants — is one instance per (node, side), and a
// predictor's state is only ever read or written by records addressed
// to its own slot (PAg shares its PHT across blocks *within* one
// predictor, never across predictors). Splitting the record stream
// into per-slot sub-streams therefore preserves exactly the state
// evolution of the arrival-order walk: each slot sees its records in
// the original relative order, and no information crosses a slot
// boundary. The evaluators exploit this to fan the ≤ 2×Nodes slot
// streams over a worker pool and re-aggregate counters in fixed slot
// order, byte-identical to the serial walk.

// Partition is the per-slot split of a trace's records. Slot s holds
// the records of node s/2 on side s%2 (cache, then directory), each
// sub-stream in original arrival order.
type Partition struct {
	// slots[s] is a contiguous copy of slot s's records, 16 bytes a
	// record. Copies rather than index lists: the evaluation hot loop
	// then walks one dense array per predictor instead of gathering
	// through an index indirection, and the source trace stays
	// untouched. Per-slot uint32 index lists into Trace.Records were
	// measured on full-scale Tables 5 and 6: 30% less peak RSS, but 40%
	// more host time with the gather inside the evaluator's loop and 7%
	// more with a 2048-record gather window (DESIGN.md, "Trace records").
	slots [][]Record
}

// Slots returns the number of slots (2 × nodes).
func (p *Partition) Slots() int { return len(p.slots) }

// Records returns slot s's sub-stream in arrival order. The slice is
// shared and must not be mutated.
func (p *Partition) Records(s int) []Record { return p.slots[s] }

// SlotIndex maps a record's (node, side) to its slot number, matching
// the slot layout the serial evaluators use (node*2 + side).
func SlotIndex(node int, side Side) int { return node*2 + int(side) }

// Partition returns the slot-sharded view of the trace, built on first
// use and memoized (concurrent callers share one build). The caller
// must not append to t.Records afterwards; captured and decoded traces
// are immutable by convention.
func (t *Trace) Partition() *Partition {
	t.partitionOnce.Do(func() {
		nodes := t.Nodes
		// Tolerate node counts the header did not know (synthetic test
		// traces sometimes leave Nodes at zero): size for the maximum
		// node actually referenced.
		for _, r := range t.Records {
			if int(r.Node) >= nodes {
				nodes = int(r.Node) + 1
			}
		}
		p := &Partition{slots: make([][]Record, 2*nodes)}
		// Two passes: exact counts first, so each slot gets one
		// right-sized allocation instead of append growth.
		counts := make([]int, 2*nodes)
		for _, r := range t.Records {
			if r.Node < 0 || r.Side >= numSides {
				continue // defensive: decoded traces are validated already
			}
			counts[SlotIndex(int(r.Node), r.Side)]++
		}
		for s, c := range counts {
			if c > 0 {
				p.slots[s] = make([]Record, 0, c)
			}
		}
		for _, r := range t.Records {
			if r.Node < 0 || r.Side >= numSides {
				continue
			}
			s := SlotIndex(int(r.Node), r.Side)
			p.slots[s] = append(p.slots[s], r)
		}
		t.partition = p
	})
	return t.partition
}
