package workload

import (
	"fmt"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

// Arena hands out page-aligned regions of the simulated shared address
// space. Because Stache homes pages round-robin by page number
// (Section 5.1), consecutive regions spread their directory load over
// all nodes, exactly like the paper's round-robin allocator.
type Arena struct {
	geom coherence.Geometry
	next coherence.Addr
}

// NewArena creates an arena over the given geometry. Allocation starts
// at page 0.
func NewArena(geom coherence.Geometry) *Arena {
	return &Arena{geom: geom}
}

// Geometry returns the arena's geometry.
func (a *Arena) Geometry() coherence.Geometry { return a.geom }

// Alloc reserves a region of the given number of cache blocks, starting
// on a fresh page. The region is contiguous, so a region larger than
// one page spans consecutive pages homed on consecutive nodes.
func (a *Arena) Alloc(blocks int) Region {
	if blocks <= 0 {
		panic(fmt.Sprintf("workload: Alloc(%d)", blocks))
	}
	base := a.next
	size := uint64(blocks) * a.geom.BlockSize()
	pages := (size + a.geom.PageSize() - 1) / a.geom.PageSize()
	a.next += coherence.Addr(pages * a.geom.PageSize())
	return Region{base: base, blocks: blocks, blockSize: a.geom.BlockSize()}
}

// Region is an array of cache blocks in shared memory. Workloads index
// it by block; the simulator only ever sees block-aligned addresses.
type Region struct {
	base      coherence.Addr
	blocks    int
	blockSize uint64
}

// Blocks returns the number of blocks in the region.
func (r Region) Blocks() int { return r.blocks }

// Block returns the address of block i. It panics on out-of-range i —
// workload bugs should fail loudly, not corrupt another region.
func (r Region) Block(i int) coherence.Addr {
	if i < 0 || i >= r.blocks {
		panic(fmt.Sprintf("workload: block %d out of range [0,%d)", i, r.blocks))
	}
	return r.base + coherence.Addr(uint64(i)*r.blockSize)
}

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr coherence.Addr) bool {
	return addr >= r.base && addr < r.base+coherence.Addr(uint64(r.blocks)*r.blockSize)
}

// coldRegion models the large read-once portion of a real
// application's shared address space: initialization tables, geometry
// descriptors, per-element constants. Each block is read exactly once,
// by its owning processor, during the first phase of the run.
//
// Cold blocks matter for Table 7, not for steady-state accuracy: each
// remotely-homed cold block contributes a Message History Table entry
// at one directory and one cache but never accumulates enough
// references (> MHR depth) to be granted a Pattern History Table —
// they are what pushes dsmc's and moldyn's PHT/MHR ratios below one.
type coldRegion struct {
	blocks Region
	procs  int
}

func newColdRegion(a *Arena, blocks, procs int) coldRegion {
	return coldRegion{blocks: a.Alloc(blocks), procs: procs}
}

// appendReads appends processor p's cold reads for the phase to dst
// (a no-op except in phase 0).
func (c coldRegion) appendReads(dst []Access, p, phase int) []Access {
	if phase != 0 || c.blocks.Blocks() == 0 {
		return dst
	}
	n := c.blocks.Blocks()
	lo, hi := p*n/c.procs, (p+1)*n/c.procs
	for b := lo; b < hi; b++ {
		dst = append(dst, Read(c.blocks.Block(b)))
	}
	return dst
}
