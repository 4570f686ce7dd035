package workload

import "slices"

// DSMC reproduces the sharing behaviour of dsmc, the discrete
// simulation Monte Carlo gas dynamics code (Section 5.2):
//
//   - Cells of a static Cartesian grid are spatially partitioned among
//     processors; particles collide only within a cell, so almost all
//     computation is processor-local.
//   - The primary communication happens at the end of each iteration
//     when particles move between cells owned by different processors,
//     via shared buffers: the sending processor *writes* the buffer
//     (without reading it first — which is why the half-migratory
//     optimization helps dsmc, Section 6.1) and the receiving
//     processor reads it.
//   - Whether a given buffer block is used in a given iteration depends
//     on particle flow. Flow starts erratic and settles into a steady
//     state, which is why dsmc takes ~300 iterations to reach its
//     steady-state prediction rates (Table 8) while ending up the most
//     predictable application of the five (84-93%).
//   - Occasionally several processors compete for exclusive access to
//     a shared buffer, creating the oscillating patterns Section 6.1
//     mentions; Cosmos isolates them with history or filters.
//   - Many shared blocks (cell metadata) are touched only once or
//     twice, which drives dsmc's PHT/MHR ratio below one (Table 7).
type DSMC struct {
	procs int
	iters int
	seed  uint64

	// flows[i]: processor src streams particles to dst through region
	// blocks; block b participates in iteration it with a probability
	// that hardens over time (settleIters).
	flows []dsmcFlow
	// contended blocks are written by several procs in racy order, at
	// a low per-iteration probability.
	contended   []Region
	contenders  [][]int
	contendProb float64
	// metadata blocks are read a handful of times early on and then
	// never again.
	metadata Region
	cold     coldRegion

	settleIters int

	// flowsBySrc/flowsByDst index flows by endpoint, contendedOf
	// indexes contended regions by contender, and metaOf[w] indexes the
	// metadata blocks each processor reads in warm-up iteration w, so a
	// phase visits only its own processor's share instead of scanning
	// all of them.
	flowsBySrc  procIndex
	flowsByDst  procIndex
	contendedOf procIndex
	metaOf      [2]procIndex
	// orderBuf is per-instance scratch for the recurring traversal
	// orders.
	orderBuf []int
}

type dsmcFlow struct {
	src, dst int
	blocks   Region
}

// NewDSMC builds the generator.
func NewDSMC(procs int, scale Scale) *DSMC {
	d := &DSMC{procs: procs, seed: 0xd5c, contendProb: 0.2}
	var flowBlocks, contendRegions, contendBlocks, metaBlocks int
	switch scale {
	case ScaleSmall:
		d.iters, flowBlocks, contendRegions, contendBlocks, metaBlocks, d.settleIters = 8, 2, 1, 1, 4, 3
	case ScaleMedium:
		d.iters, flowBlocks, contendRegions, contendBlocks, metaBlocks, d.settleIters = 60, 8, 4, 4, 64, 20
	default:
		d.iters, flowBlocks, contendRegions, contendBlocks, metaBlocks, d.settleIters = 400, 24, 32, 10, 3072, 250
	}

	arena := NewArena(defaultGeometry(procs))
	layout := newRNG(d.seed)
	// Cells partitioned on a 1D ring of processors (a slab
	// decomposition): particles flow to both neighbours.
	for p := 0; p < procs; p++ {
		for _, dst := range []int{(p + 1) % procs, (p + procs - 1) % procs} {
			if dst == p {
				continue
			}
			d.flows = append(d.flows, dsmcFlow{src: p, dst: dst, blocks: arena.Alloc(flowBlocks)})
		}
	}
	var contended []procRef
	for i := 0; i < contendRegions; i++ {
		d.contended = append(d.contended, arena.Alloc(contendBlocks))
		d.contenders = append(d.contenders, pickDistinctInto(make([]int, 0, 3), layout, procs, 3, -1))
		contended = appendRefs(contended, i, d.contenders[i])
	}
	d.contendedOf = newProcIndex(procs, contended)
	d.metadata = arena.Alloc(metaBlocks)
	coldBlocks := map[Scale]int{ScaleSmall: 8, ScaleMedium: 512, ScaleFull: 4800}[scale]
	d.cold = newColdRegion(arena, coldBlocks, procs)
	var src, dst []procRef
	for fi, f := range d.flows {
		src = append(src, procRef{p: int32(f.src), item: int32(fi)})
		dst = append(dst, procRef{p: int32(f.dst), item: int32(fi)})
	}
	d.flowsBySrc = newProcIndex(procs, src)
	d.flowsByDst = newProcIndex(procs, dst)
	// Metadata: the static grid's cell descriptors are each read once
	// by the 2-4 processors whose partitions border the cell, while the
	// simulation warms up. The readers' first touches are spread over
	// the two warm-up iterations so their requests do not all race.
	var meta [2][]procRef
	var pick []int
	for b := 0; b < metaBlocks; b++ {
		r := seededRNG(d.seed ^ 0x3e7a ^ uint64(b))
		pick = pickDistinctInto(pick[:0], &r, procs, 2+b%3, -1)
		for ri, q := range pick {
			w := (ri + b) % 2
			meta[w] = append(meta[w], procRef{p: int32(q), item: int32(b)})
		}
	}
	d.metaOf[0] = newProcIndex(procs, meta[0])
	d.metaOf[1] = newProcIndex(procs, meta[1])
	return d
}

// transfers reports whether flow f moves particles through block b in
// iteration iter. Early iterations are erratic; after settleIters each
// block settles into a fixed activity level: most buffer blocks carry
// particles nearly every iteration, but a sizeable minority are in
// low-flow corners of the domain and go long stretches without
// traffic. Rarely-messaged blocks train slowly, which is what makes
// dsmc take ~300 iterations to reach steady-state prediction rates
// (Table 8) and keeps its PHT/MHR ratio below one (Table 7).
func (d *DSMC) transfers(f int, b, iter int) bool {
	key := newRNG(d.seed ^ 0x57ead ^ uint64(f)<<20 ^ uint64(b))
	var pActive float64
	switch v := key.float(); {
	case v < 0.60:
		pActive = 0.95 // main flow paths
	case v < 0.85:
		pActive = 0.30 // side channels
	default:
		pActive = 0.04 // stagnant corners
	}
	if iter < d.settleIters {
		// Warm-up: few particles have reached the domain boundaries
		// yet, so little flows at first; traffic ramps up and is
		// erratic (uncorrelated with the eventual steady state). While
		// flows are quiet, the contended shared structures dominate the
		// message mix — which is why dsmc's early iterations predict so
		// poorly (Table 8) even though the application ends up the most
		// predictable of the five.
		ramp := 0.08 + 0.8*float64(iter)/float64(d.settleIters)
		r := newRNG(d.seed ^ 0xf10e ^ uint64(f)<<28 ^ uint64(b)<<8 ^ uint64(iter))
		return r.float() < ramp
	}
	r := newRNG(d.seed ^ 0xace ^ uint64(f)<<24 ^ uint64(b)<<12 ^ uint64(iter))
	return r.float() < pActive
}

// Name implements App.
func (d *DSMC) Name() string { return "dsmc" }

// Procs implements App.
func (d *DSMC) Procs() int { return d.procs }

// Iterations implements App (send + receive phase per iteration).
func (d *DSMC) Iterations() int { return 2 * d.iters }

// PhasesPerIteration implements App: a send phase (write outgoing
// buffers) and a receive phase (read incoming buffers), separated by
// the barrier the real code uses before particles are merged.
func (d *DSMC) PhasesPerIteration() int { return 2 }

// Accesses implements App.
func (d *DSMC) Accesses(p, phase int) []Access {
	return d.AppendAccesses(nil, p, phase)
}

// AppendAccesses implements Appender, generating into the caller's
// buffer with per-instance scratch for the traversal orders, so a
// machine replaying phases stops allocating per (processor, phase).
func (d *DSMC) AppendAccesses(seq []Access, p, phase int) []Access {
	iter, sub := phase/2, phase%2
	r := seededRNG(d.seed ^ uint64(p)<<24 ^ uint64(phase)<<2)

	if sub == 0 {
		seq = d.cold.appendReads(seq, p, phase)
		// Send phase: write outgoing buffers (write-first: no read —
		// this is why half-migratory helps dsmc, Section 6.1).
		for _, fi := range d.flowsBySrc.of(p) {
			f := d.flows[fi]
			for b := 0; b < f.blocks.Blocks(); b++ {
				if d.transfers(int(fi), b, iter) {
					seq = append(seq, Write(f.blocks.Block(b)))
				}
			}
		}
		// Occasional competition for shared buffers: several procs
		// read-modify-write the same blocks. The block order within the
		// region recurs per contender, so the resulting oscillating
		// directory patterns are ones history depth can learn
		// (Section 6.1: "Cosmos learns to isolate these cases using
		// either more history information or via noise filters").
		for _, i := range d.contendedOf.of(p) {
			reg, contenders := d.contended[i], d.contenders[i]
			if r.float() < d.contendProb*float64(len(contenders)) {
				ci := slices.Index(contenders, p)
				d.orderBuf = recurringOrderInto(d.orderBuf[:0], d.seed, uint64(i)<<8|uint64(ci), iter, reg.Blocks(), 3, 0.6)
				for _, b := range d.orderBuf {
					seq = append(seq, Read(reg.Block(b)), Write(reg.Block(b)))
				}
			}
		}
		return seq
	}

	// Receive phase: read the buffers that transferred this iteration,
	// in the consumer's sweep order (with recurring perturbations).
	for _, fi := range d.flowsByDst.of(p) {
		f := d.flows[fi]
		d.orderBuf = recurringOrderInto(d.orderBuf[:0], d.seed, uint64(fi), iter, f.blocks.Blocks(), 3, 0.85)
		for _, b := range d.orderBuf {
			if d.transfers(int(fi), b, iter) {
				seq = append(seq, Read(f.blocks.Block(b)))
			}
		}
	}
	// Metadata: read during the two warm-up iterations, then never
	// touched again. These blocks accumulate 2-4 directory references:
	// enough for a small PHT at MHR depth 1 but not at depths 3-4,
	// which is why dsmc's PHT/MHR ratio *falls* as depth grows (Table
	// 7's footnote).
	if iter < 2 {
		for _, b := range d.metaOf[iter].of(p) {
			seq = append(seq, Read(d.metadata.Block(int(b))))
		}
	}
	return seq
}
