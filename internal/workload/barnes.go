package workload

// Barnes reproduces the sharing behaviour of barnes, the SPLASH-2
// Barnes-Hut hierarchical N-body simulation (Section 5.2):
//
//   - The principal data structure is an octree that is *rebuilt every
//     iteration*. Logical tree nodes have stable sharing (an owner that
//     writes them during the build, a set of readers that traverse
//     them), but rebuilding moves logical nodes to different
//     shared-memory addresses, obscuring those patterns from a
//     predictor indexed by address (Section 6.1: this is exactly why
//     barnes has the lowest accuracy, 62-69%).
//   - Bodies live at stable addresses: their owner read-modify-writes
//     them each iteration and a few neighbouring processors read them,
//     giving the stable fraction of barnes's traffic.
//
// The generator models the address reassignment directly: logical tree
// cells draw their address from a pool under a permutation that is
// partially reshuffled every iteration (reassignFraction of cells
// move). More history (MHR depth) helps only mildly, as in Table 5.
type Barnes struct {
	procs int
	iters int
	seed  uint64

	bodies Region
	// ownedBodies and bodiesOf index body blocks by their owner and by
	// their readers.
	ownedBodies procIndex
	bodiesOf    procIndex

	pool Region // address pool for tree cells
	// ownedCells and cellsOf index *logical* cells by their owner and
	// by their readers; assignment maps logical cell -> pool slot,
	// reshuffled per iteration.
	ownedCells procIndex
	cellsOf    procIndex

	cold coldRegion

	reassignFraction float64
	// assignments[iter] is materialized lazily and memoized because
	// each iteration's permutation derives from the previous one.
	assignments [][]int

	// orderBuf and late are per-instance scratch for the traversal
	// order and the deferred body reads.
	orderBuf []int
	late     []Access
}

// NewBarnes builds the generator.
func NewBarnes(procs int, scale Scale) *Barnes {
	b := &Barnes{procs: procs, seed: 0xbab1e5, reassignFraction: 0.35}
	var bodies, cells int
	switch scale {
	case ScaleSmall:
		b.iters, bodies, cells = 6, 16, 12
	case ScaleMedium:
		b.iters, bodies, cells = 15, 256, 128
	default:
		b.iters, bodies, cells = 30, 1152, 640
	}
	coldBlocks := map[Scale]int{ScaleSmall: 8, ScaleMedium: 256, ScaleFull: 2900}[scale]

	arena := NewArena(defaultGeometry(procs))
	b.bodies = arena.Alloc(bodies)
	b.pool = arena.Alloc(cells)
	b.cold = newColdRegion(arena, coldBlocks, procs)

	layout := newRNG(b.seed)
	var owners, readers []procRef
	var pick []int
	for i := 0; i < bodies; i++ {
		owner := i * procs / bodies // spatial partition
		owners = append(owners, procRef{p: int32(owner), item: int32(i)})
		// Gravity is long-range but locally dominated: 2-4 readers.
		pick = pickDistinctInto(pick[:0], layout, procs, 2+layout.intn(3), owner)
		readers = appendRefs(readers, i, pick)
	}
	b.ownedBodies = newProcIndex(procs, owners)
	b.bodiesOf = newProcIndex(procs, readers)
	owners, readers = owners[:0], readers[:0]
	for i := 0; i < cells; i++ {
		owner := layout.intn(procs)
		owners = append(owners, procRef{p: int32(owner), item: int32(i)})
		// Internal cells near the root are read by many processors;
		// deep cells by few. Skew accordingly.
		n := 2 + layout.intn(4)
		if i < cells/8 { // "near the root"
			n = 2 + layout.intn(procs/2)
		}
		pick = pickDistinctInto(pick[:0], layout, procs, n, owner)
		readers = appendRefs(readers, i, pick)
	}
	b.ownedCells = newProcIndex(procs, owners)
	b.cellsOf = newProcIndex(procs, readers)

	// Initial identity assignment of logical cells to pool slots.
	ident := make([]int, cells)
	for i := range ident {
		ident[i] = i
	}
	b.assignments = [][]int{ident}
	return b
}

// pickDistinctInto appends n distinct processors != exclude (n capped
// at procs-1) to buf, by rejection sampling: a duplicate or excluded
// pick consumes its RNG value and retries. Membership is checked by
// scanning the picks so far, which beats a map for the small n the
// generators use.
func pickDistinctInto(buf []int, r *rng, procs, n, exclude int) []int {
	if n > procs-1 {
		n = procs - 1
	}
	start := len(buf)
	for len(buf)-start < n {
		p := r.intn(procs)
		if p == exclude {
			continue
		}
		dup := false
		for _, q := range buf[start:] {
			if q == p {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		buf = append(buf, p)
	}
	return buf
}

// assignment returns the cell->slot mapping for iteration iter,
// deriving it from iteration iter-1 by moving reassignFraction of the
// cells (a partial reshuffle, the octree rebuild).
func (b *Barnes) assignment(iter int) []int {
	for len(b.assignments) <= iter {
		prev := b.assignments[len(b.assignments)-1]
		next := make([]int, len(prev))
		copy(next, prev)
		r := newRNG(b.seed ^ 0x7ee ^ uint64(len(b.assignments))<<16)
		moves := int(float64(len(next)) * b.reassignFraction)
		for i := 0; i < moves; i++ {
			x, y := r.intn(len(next)), r.intn(len(next))
			next[x], next[y] = next[y], next[x]
		}
		b.assignments = append(b.assignments, next)
	}
	return b.assignments[iter]
}

// Name implements App.
func (b *Barnes) Name() string { return "barnes" }

// Procs implements App.
func (b *Barnes) Procs() int { return b.procs }

// Iterations implements App (three phases per application iteration).
func (b *Barnes) Iterations() int { return 3 * b.iters }

// PhasesPerIteration implements App: barnes separates tree build,
// force-computation traversal, and body update with barriers, as
// SPLASH-2 barnes does.
func (b *Barnes) PhasesPerIteration() int { return 3 }

// Accesses implements App.
func (b *Barnes) Accesses(p, phase int) []Access {
	return b.AppendAccesses(nil, p, phase)
}

// AppendAccesses implements Appender.
func (b *Barnes) AppendAccesses(seq []Access, p, phase int) []Access {
	iter, sub := phase/3, phase%3
	assign := b.assignment(iter)

	switch sub {
	case 0:
		seq = b.cold.appendReads(seq, p, phase)
		// Tree build: owners write their logical cells at this
		// iteration's (freshly reassigned) addresses.
		for _, c := range b.ownedCells.of(p) {
			addr := b.pool.Block(assign[c])
			seq = append(seq, Read(addr), Write(addr))
		}

	case 1:
		// Force computation: traverse — read cells and bodies. The
		// traversal follows the body distribution, which drifts slowly:
		// the visit order over *logical* cells and over bodies recurs
		// across iterations even while the cells' addresses move under
		// the predictor's feet.
		cells := b.cellsOf.of(p)
		b.orderBuf = recurringOrderInto(b.orderBuf[:0], b.seed^0xce11, uint64(p), iter, len(cells), 4, 0.7)
		for _, i := range b.orderBuf {
			seq = append(seq, Read(b.pool.Block(assign[cells[i]])))
		}
		// Body reads happen in two passes. Whether a block's read is
		// deferred to the late pass is a property of the *block* and of
		// a short per-block schedule cycling over iterations, so each
		// body's readers arrive at its directory in one of a few
		// strictly recurring orders: ambiguous to a depth-1 predictor,
		// learnable with more history (the Table 5 depth gain).
		late := b.late[:0]
		for _, i := range b.bodiesOf.of(p) {
			sched := seededRNG(b.seed ^ 0xbead ^ uint64(i)<<8 ^ uint64(iter%4))
			pi := int(sched.next() % 3)
			if pi != 0 && (p+pi)%2 == 0 {
				late = append(late, Read(b.bodies.Block(int(i))))
				continue
			}
			seq = append(seq, Read(b.bodies.Block(int(i))))
		}
		seq = append(seq, late...)
		b.late = late

	case 2:
		// Update own bodies (position/velocity integration).
		for _, i := range b.ownedBodies.of(p) {
			seq = append(seq, Read(b.bodies.Block(int(i))), Write(b.bodies.Block(int(i))))
		}
	}
	return seq
}
