package workload

import (
	"slices"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

// DefaultBlockSize and DefaultPageSize match Table 3's machine and the
// round-robin page homing of Section 5.1; all workload generators lay
// out shared data with this geometry.
const (
	DefaultBlockSize = 64
	DefaultPageSize  = 4096
)

// defaultGeometry builds the layout geometry the generators share.
func defaultGeometry(procs int) coherence.Geometry {
	return coherence.MustGeometry(DefaultBlockSize, DefaultPageSize, procs)
}

// AppBT reproduces the sharing behaviour of appbt, the NAS parallel
// 3D computational-fluid-dynamics benchmark (Section 5.2):
//
//   - The domain is a cube of 3D arrays divided into sub-blocks, one
//     per processor; sharing occurs between neighbours in 3D along
//     sub-block boundaries.
//   - The per-boundary-block pattern is producer-consumer where the
//     producer *reads before it writes* (Section 6.1: "producer reads,
//     producer writes, and consumer reads"), which is why the
//     half-migratory optimization hurts appbt: the producer's read
//     misses again on a block the protocol chose to invalidate.
//   - Two data structures exhibit false sharing (Section 6.1), causing
//     the directory's upgrade_request -> inval_ro_response arc to
//     oscillate between signatures: both neighbours write disjoint
//     words of the same block in racy order.
//
// Each iteration: every processor first reads the ghost copies of its
// neighbours' boundary blocks (consuming last iteration's values),
// then read-modify-writes its own boundary blocks, then touches a few
// private interior blocks (which go exclusive once and stay silent).
type AppBT struct {
	procs      int
	iters      int
	px, py, pz int

	// faces[i] is a region owned by faces' producer, read by one
	// neighbouring consumer.
	faces []appbtFace
	// edges[i] is a region owned by one processor but read by the 2-3
	// neighbours whose sub-blocks share the edge; their racing
	// get_ro_requests are directory-side noise that never shows at the
	// caches (each cache still has one fixed sender under Stache).
	edges []appbtEdge
	// falseShared blocks are touched by several processors whose
	// logically-disjoint data landed in the same cache blocks.
	falseShared []appbtEdge
	private     []Region
	cold        coldRegion
	seed        uint64

	// facesOwned and facesRead index faces by owner and by neighbour,
	// edgesRead indexes edges by reader, and falseOf indexes the
	// false-shared regions by every processor touching them. Edge p is
	// owned by processor p, so owned edges need no index.
	facesOwned procIndex
	facesRead  procIndex
	edgesRead  procIndex
	falseOf    procIndex
	// orderBuf is per-instance scratch for the sweep permutations and
	// recurring traversal orders.
	orderBuf []int
}

type appbtFace struct {
	owner, neighbor int
	blocks          Region
}

type appbtEdge struct {
	owner   int
	readers []int
	blocks  Region
}

// NewAppBT builds the generator for the given processor count.
func NewAppBT(procs int, scale Scale) *AppBT {
	px, py, pz := factor3(procs)
	a := &AppBT{procs: procs, px: px, py: py, pz: pz, seed: 0xa99b7}
	var faceBlocks, edgeBlocks, fsBlocks, privBlocks, coldBlocks int
	switch scale {
	case ScaleSmall:
		a.iters, faceBlocks, edgeBlocks, fsBlocks, privBlocks, coldBlocks = 6, 2, 1, 2, 2, 8
	case ScaleMedium:
		a.iters, faceBlocks, edgeBlocks, fsBlocks, privBlocks, coldBlocks = 20, 8, 8, 16, 8, 512
	default:
		a.iters, faceBlocks, edgeBlocks, fsBlocks, privBlocks, coldBlocks = 40, 24, 20, 112, 32, 7900
	}

	arena := NewArena(defaultGeometry(procs))
	layout := newRNG(a.seed)
	// Enumerate neighbour pairs on the 3D processor grid; each ordered
	// pair (owner -> neighbor) gets a face region.
	for _, pair := range gridNeighbors(px, py, pz) {
		a.faces = append(a.faces,
			appbtFace{owner: pair[0], neighbor: pair[1], blocks: arena.Alloc(faceBlocks)},
			appbtFace{owner: pair[1], neighbor: pair[0], blocks: arena.Alloc(faceBlocks)},
		)
	}
	// Edge regions: blocks on sub-block edges are read by several
	// neighbours.
	for p := 0; p < procs; p++ {
		n := 2
		if layout.float() < 0.5 {
			n = 3
		}
		a.edges = append(a.edges, appbtEdge{
			owner:   p,
			readers: pickDistinctInto(make([]int, 0, n), layout, procs, n, p),
			blocks:  arena.Alloc(edgeBlocks),
		})
	}
	// False sharing: a handful of regions, each with three processors'
	// logically-private words packed into shared blocks (the "two data
	// structures" of Section 6.1).
	for _, pair := range gridNeighbors(px, 1, 1) {
		third := (pair[1] + px) % procs
		a.falseShared = append(a.falseShared, appbtEdge{
			owner:   pair[0],
			readers: []int{pair[1], third},
			blocks:  arena.Alloc(fsBlocks),
		})
	}
	a.private = make([]Region, procs)
	for p := range a.private {
		a.private[p] = arena.Alloc(privBlocks)
	}
	a.cold = newColdRegion(arena, coldBlocks, procs)

	var owned, read []procRef
	for fi, f := range a.faces {
		owned = append(owned, procRef{p: int32(f.owner), item: int32(fi)})
		read = append(read, procRef{p: int32(f.neighbor), item: int32(fi)})
	}
	a.facesOwned = newProcIndex(procs, owned)
	a.facesRead = newProcIndex(procs, read)
	read = read[:0]
	for ei, e := range a.edges {
		read = appendRefs(read, ei, e.readers)
	}
	a.edgesRead = newProcIndex(procs, read)
	read = read[:0]
	for fsi, f := range a.falseShared {
		// The owner and readers are distinct processors (neighbours on
		// the x axis and the one px further on), except on grids too
		// small for the third to differ: list each processor once.
		read = append(read, procRef{p: int32(f.owner), item: int32(fsi)})
		for ri, q := range f.readers {
			if q != f.owner && !slices.Contains(f.readers[:ri], q) {
				read = append(read, procRef{p: int32(q), item: int32(fsi)})
			}
		}
	}
	a.falseOf = newProcIndex(procs, read)
	return a
}

// factor3 splits procs into a 3D grid px*py*pz with px >= py >= pz,
// as the spatial decomposition of appbt would.
func factor3(procs int) (px, py, pz int) {
	px, py, pz = procs, 1, 1
	for i := 1; i*i*i <= procs; i++ {
		if procs%i != 0 {
			continue
		}
		rest := procs / i
		for j := i; j*j <= rest; j++ {
			if rest%j != 0 {
				continue
			}
			// candidate grid (rest/j, j, i)
			px, py, pz = rest/j, j, i
		}
	}
	return px, py, pz
}

// gridNeighbors returns the unordered neighbour pairs of a px*py*pz
// processor grid.
func gridNeighbors(px, py, pz int) [][2]int {
	id := func(x, y, z int) int { return (z*py+y)*px + x }
	var pairs [][2]int
	for z := 0; z < pz; z++ {
		for y := 0; y < py; y++ {
			for x := 0; x < px; x++ {
				if x+1 < px {
					pairs = append(pairs, [2]int{id(x, y, z), id(x+1, y, z)})
				}
				if y+1 < py {
					pairs = append(pairs, [2]int{id(x, y, z), id(x, y+1, z)})
				}
				if z+1 < pz {
					pairs = append(pairs, [2]int{id(x, y, z), id(x, y, z+1)})
				}
			}
		}
	}
	return pairs
}

// Name implements App.
func (a *AppBT) Name() string { return "appbt" }

// Procs implements App.
func (a *AppBT) Procs() int { return a.procs }

// Iterations implements App (total phases: compute + exchange per
// application iteration).
func (a *AppBT) Iterations() int { return 2 * a.iters }

// PhasesPerIteration implements App: appbt alternates a compute phase
// (update own boundary) and an exchange phase (read neighbours'
// ghosts), separated by the barriers of the real code.
func (a *AppBT) PhasesPerIteration() int { return 2 }

// Accesses implements App.
func (a *AppBT) Accesses(p, phase int) []Access {
	return a.AppendAccesses(nil, p, phase)
}

// AppendAccesses implements Appender.
func (a *AppBT) AppendAccesses(seq []Access, p, phase int) []Access {
	iter, sub := phase/2, phase%2

	if sub == 0 {
		// Compute phase: update own boundary blocks — read then write
		// each block (this read-before-write is what makes the
		// half-migratory optimization hurt appbt, Section 6.1).
		for _, fi := range a.facesOwned.of(p) {
			f := a.faces[fi].blocks
			for b := 0; b < f.Blocks(); b++ {
				seq = append(seq, Read(f.Block(b)), Write(f.Block(b)))
			}
		}
		e := a.edges[p].blocks
		for b := 0; b < e.Blocks(); b++ {
			seq = append(seq, Read(e.Block(b)), Write(e.Block(b)))
		}
		// False sharing: both ends of the pair touch "their halves" of
		// the same blocks in the same phase. Which words an iteration
		// touches varies, so each end independently acts as a reader or
		// a writer of the block from one iteration to the next, and the
		// two ends' sweeps interleave in fresh order. The block's
		// signature therefore oscillates randomly between
		// producer-consumer-like and ping-pong-like shapes — the
		// oscillation Section 6.1 blames for appbt's low-accuracy
		// upgrade_request -> inval_ro_response directory arc, which
		// neither history depth nor filters repair.
		for _, fsi := range a.falseOf.of(p) {
			f := a.falseShared[fsi].blocks
			r := seededRNG(a.seed ^ 0xf5 ^ uint64(fsi)<<24 ^ uint64(p)<<12 ^ uint64(iter))
			a.orderBuf = r.permInto(a.orderBuf[:0], f.Blocks())
			for _, b := range a.orderBuf {
				if r.float() < 0.55 {
					seq = append(seq, Read(f.Block(b)), Write(f.Block(b)))
				} else {
					seq = append(seq, Read(f.Block(b)))
				}
			}
		}
		// Private interior work: exclusive after iteration 0, silent after.
		for b := 0; b < a.private[p].Blocks(); b++ {
			seq = append(seq, Read(a.private[p].Block(b)), Write(a.private[p].Block(b)))
		}
		return a.cold.appendReads(seq, p, phase)
	}

	// Exchange phase: read ghost copies of neighbours' face and edge
	// blocks. The traversal is the code's fixed sweep order, with
	// recurring perturbations (alternating sweep directions), so
	// request races at the directories repeat rather than being fresh
	// noise.
	for _, fi := range a.facesRead.of(p) {
		f := a.faces[fi].blocks
		a.orderBuf = recurringOrderInto(a.orderBuf[:0], a.seed, uint64(fi), iter, f.Blocks(), 3, 0.8)
		for _, b := range a.orderBuf {
			seq = append(seq, Read(f.Block(b)))
		}
	}
	for _, ei := range a.edgesRead.of(p) {
		e := a.edges[ei].blocks
		a.orderBuf = recurringOrderInto(a.orderBuf[:0], a.seed^uint64(p)<<44, 0x770+uint64(ei), iter, e.Blocks(), 4, 0.6)
		for _, b := range a.orderBuf {
			seq = append(seq, Read(e.Block(b)))
		}
	}
	return seq
}
