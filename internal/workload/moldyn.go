package workload

// Moldyn reproduces the sharing behaviour of moldyn, the CHARMM-like
// molecular dynamics code (Section 5.2 / 6.1). Two dominant patterns:
//
//   - Migratory sharing of the shared force array: each processor
//     accumulates per-molecule forces privately, then adds its
//     contribution to the shared array inside critical sections. Each
//     force block therefore migrates (read-modify-write) through the
//     set of contributing processors once per iteration. The order is
//     lock-acquisition order: usually each processor's program order,
//     with occasional inversions.
//   - Producer-consumer sharing of the coordinates array: the owner
//     updates a molecule's coordinates (reading them first), then an
//     average of 4.9 consumers read them (Section 6.1 gives the 4.9).
//   - The interaction list is rebuilt every 20 iterations (Table 4),
//     which re-draws which processors contribute to which force block
//     and who consumes which coordinate block.
type Moldyn struct {
	procs int
	iters int
	seed  uint64

	force  Region
	coords Region
	// rebuildEvery is the interaction-list rebuild period (20 in the
	// paper; scaled down with the iteration count at small scales).
	rebuildEvery int

	coordOwner []int
	// ownCoords indexes coordinate blocks by owner.
	ownCoords procIndex
	cold      coldRegion

	// coordsOf and forceOf index one interaction-list epoch's
	// coordinate consumers and force contributors by processor;
	// epochBuilt names the epoch they hold (-1 before the first build).
	// The machine asks for phases in order, so each epoch is built once.
	epochBuilt int
	coordsOf   procIndex
	forceOf    procIndex
	// refs, pickBuf, orderBuf and mineBuf are per-instance scratch for
	// the epoch build, the traversal order, and the lock-order swaps.
	refs     []procRef
	pickBuf  []int
	orderBuf []int
	mineBuf  []int32
}

// NewMoldyn builds the generator.
func NewMoldyn(procs int, scale Scale) *Moldyn {
	m := &Moldyn{procs: procs, seed: 0x30e1d, rebuildEvery: 20, epochBuilt: -1}
	var forceBlocks, coordBlocks int
	switch scale {
	case ScaleSmall:
		m.iters, forceBlocks, coordBlocks, m.rebuildEvery = 6, 8, 6, 3
	case ScaleMedium:
		m.iters, forceBlocks, coordBlocks, m.rebuildEvery = 30, 128, 96, 10
	default:
		m.iters, forceBlocks, coordBlocks, m.rebuildEvery = 60, 768, 512, 20
	}

	arena := NewArena(defaultGeometry(procs))
	m.force = arena.Alloc(forceBlocks)
	m.coords = arena.Alloc(coordBlocks)
	m.coordOwner = make([]int, coordBlocks)
	owned := make([]procRef, coordBlocks)
	for i := range m.coordOwner {
		m.coordOwner[i] = i * procs / coordBlocks
		owned[i] = procRef{p: int32(m.coordOwner[i]), item: int32(i)}
	}
	m.ownCoords = newProcIndex(procs, owned)
	coldBlocks := map[Scale]int{ScaleSmall: 8, ScaleMedium: 1024, ScaleFull: 39600}[scale]
	m.cold = newColdRegion(arena, coldBlocks, procs)
	return m
}

// epoch returns the interaction-list epoch of an iteration.
func (m *Moldyn) epoch(iter int) int { return iter / m.rebuildEvery }

// forceContributorsInto appends the processors that update force block
// b during the given epoch to buf, in their canonical
// (lock-acquisition) order.
func (m *Moldyn) forceContributorsInto(buf []int, b, epoch int) []int {
	r := seededRNG(m.seed ^ 0xf0ece ^ uint64(b)<<16 ^ uint64(epoch))
	n := 2 + r.intn(4) // 2..5 contributors per force block
	return pickDistinctInto(buf, &r, m.procs, n, -1)
}

// coordConsumersInto appends the processors that read coordinate block
// b during the given epoch to buf. Sizes are drawn so the mean is ~4.9
// consumers, the figure Section 6.1 reports.
func (m *Moldyn) coordConsumersInto(buf []int, b, epoch int) []int {
	r := seededRNG(m.seed ^ 0xc003d ^ uint64(b)<<16 ^ uint64(epoch))
	n := 3 + r.intn(5) // 3..7, mean 5, close to 4.9
	return pickDistinctInto(buf, &r, m.procs, n, m.coordOwner[b])
}

// buildEpoch indexes the interaction list of epoch ep by processor,
// unless it is the epoch already built.
func (m *Moldyn) buildEpoch(ep int) {
	if m.epochBuilt == ep {
		return
	}
	m.refs = m.refs[:0]
	for b := 0; b < m.coords.Blocks(); b++ {
		m.pickBuf = m.coordConsumersInto(m.pickBuf[:0], b, ep)
		m.refs = appendRefs(m.refs, b, m.pickBuf)
	}
	m.coordsOf.build(m.procs, m.refs)
	m.refs = m.refs[:0]
	for b := 0; b < m.force.Blocks(); b++ {
		m.pickBuf = m.forceContributorsInto(m.pickBuf[:0], b, ep)
		m.refs = appendRefs(m.refs, b, m.pickBuf)
	}
	m.forceOf.build(m.procs, m.refs)
	m.epochBuilt = ep
}

// Name implements App.
func (m *Moldyn) Name() string { return "moldyn" }

// Procs implements App.
func (m *Moldyn) Procs() int { return m.procs }

// Iterations implements App (force phase + integration phase).
func (m *Moldyn) Iterations() int { return 2 * m.iters }

// PhasesPerIteration implements App: the force-computation phase
// (coordinate reads + migratory reduction) is barrier-separated from
// the position-integration phase that rewrites the coordinates.
func (m *Moldyn) PhasesPerIteration() int { return 2 }

// Accesses implements App.
func (m *Moldyn) Accesses(p, phase int) []Access {
	return m.AppendAccesses(nil, p, phase)
}

// AppendAccesses implements Appender.
func (m *Moldyn) AppendAccesses(seq []Access, p, phase int) []Access {
	iter, sub := phase/2, phase%2

	if sub == 0 {
		ep := m.epoch(iter)
		m.buildEpoch(ep)
		seq = m.cold.appendReads(seq, p, phase)
		// Read the coordinates this processor's interactions need
		// (producer-consumer consumer side). The interaction list fixes
		// the traversal order for a whole epoch, so back-to-back
		// get_ro_requests arrive at the directories "with high
		// predictability" (Section 6.1); the order re-draws when the
		// list is rebuilt.
		coords := m.coordsOf.of(p)
		m.orderBuf = recurringOrderInto(m.orderBuf[:0], m.seed^uint64(ep)<<40, uint64(p), iter, len(coords), 3, 0.85)
		for _, i := range m.orderBuf {
			seq = append(seq, Read(m.coords.Block(int(coords[i]))))
		}

		// Force reduction: read-modify-write each force block this
		// processor contributes to, inside a critical section. Program
		// order over blocks, with an occasional locally swapped pair so
		// lock-acquisition order is not perfectly repeatable.
		r := seededRNG(m.seed ^ uint64(p)<<24 ^ uint64(phase)<<3)
		mine := append(m.mineBuf[:0], m.forceOf.of(p)...)
		for i := 0; i+1 < len(mine); i++ {
			if r.float() < 0.1 {
				mine[i], mine[i+1] = mine[i+1], mine[i]
			}
		}
		for _, b := range mine {
			seq = append(seq, Read(m.force.Block(int(b))), Write(m.force.Block(int(b))))
		}
		m.mineBuf = mine
		return seq
	}

	// Position integration: the owner updates its coordinate blocks
	// (reads the old position first — the producer read that makes
	// moldyn's producer look migratory at the cache, Section 6.1).
	for _, b := range m.ownCoords.of(p) {
		seq = append(seq, Read(m.coords.Block(int(b))), Write(m.coords.Block(int(b))))
	}
	return seq
}
