package workload

// Unstructured reproduces the sharing behaviour of unstructured, the
// CFD code over a static unstructured mesh (Section 5.2 / 6.1). Its
// defining property is that the *same* data structures oscillate
// between two sharing patterns in different phases of every iteration:
//
//   - An edge-loop phase updates node data under locks: migratory
//     sharing among the processors whose partitions touch the node
//     (like moldyn's reduction).
//   - A node-loop phase then has the owner update the node and the
//     neighbouring processors read it: producer-consumer, where the
//     producer is itself a consumer, with 2.6 consumers per producer
//     on average (Section 6.1).
//
// Because a block's incoming message stream interleaves both
// signatures, a depth-1 predictor confuses the phase transitions; more
// history disambiguates them. This is why unstructured gains the most
// from MHR depth in Table 5 (74% at depth 1 to 92% at depth 4).
//
// The mesh is static (Table 4: "the mesh is static, so its
// connectivity does not change"), so the contributor/consumer sets are
// fixed for the whole run — no epoch logic.
type Unstructured struct {
	procs int
	iters int
	seed  uint64

	nodes Region
	// owner[b] owns mesh-node block b. nodesOf indexes, by processor,
	// the blocks whose sharers include it: the owner and the
	// processors whose partitions share edges/faces with the node
	// (migratory contributors in phase 1, consumers in phase 2).
	owner   []int
	nodesOf procIndex

	// edgePriv: per-processor private edge data (silent after warmup).
	edgePriv []Region
	cold     coldRegion

	// mineBuf, readBuf and orderBuf are per-instance scratch for the
	// lock-order swaps, the consumer reads, and their traversal order.
	mineBuf  []int32
	readBuf  []int32
	orderBuf []int
}

// NewUnstructured builds the generator.
func NewUnstructured(procs int, scale Scale) *Unstructured {
	u := &Unstructured{procs: procs, seed: 0x0575c}
	var nodeBlocks, privBlocks int
	switch scale {
	case ScaleSmall:
		u.iters, nodeBlocks, privBlocks = 6, 10, 2
	case ScaleMedium:
		u.iters, nodeBlocks, privBlocks = 20, 160, 8
	default:
		u.iters, nodeBlocks, privBlocks = 40, 800, 24
	}

	arena := NewArena(defaultGeometry(procs))
	u.nodes = arena.Alloc(nodeBlocks)
	layout := newRNG(u.seed)
	u.owner = make([]int, nodeBlocks)
	var sharers []procRef
	var pick []int
	for b := 0; b < nodeBlocks; b++ {
		// Recursive coordinate bisection gives spatially contiguous
		// partitions; boundary nodes touch 2-4 partitions.
		u.owner[b] = b * procs / nodeBlocks
		n := 2 + layout.intn(3) // 2..4, mean 3; owner included below
		pick = pickDistinctInto(append(pick[:0], u.owner[b]), layout, procs, n-1, u.owner[b])
		sharers = appendRefs(sharers, b, pick)
	}
	u.nodesOf = newProcIndex(procs, sharers)
	u.edgePriv = make([]Region, procs)
	for p := range u.edgePriv {
		u.edgePriv[p] = arena.Alloc(privBlocks)
	}
	coldBlocks := map[Scale]int{ScaleSmall: 8, ScaleMedium: 256, ScaleFull: 3100}[scale]
	u.cold = newColdRegion(arena, coldBlocks, procs)
	return u
}

// Name implements App.
func (u *Unstructured) Name() string { return "unstructured" }

// Procs implements App.
func (u *Unstructured) Procs() int { return u.procs }

// Iterations implements App (edge loop, node update, node read).
func (u *Unstructured) Iterations() int { return 3 * u.iters }

// PhasesPerIteration implements App: the edge-loop (migratory), the
// owner's node recomputation (producer), and the neighbours' reads
// (consumers) are separated by the loop barriers of the real code.
func (u *Unstructured) PhasesPerIteration() int { return 3 }

// Accesses implements App.
func (u *Unstructured) Accesses(p, phase int) []Access {
	return u.AppendAccesses(nil, p, phase)
}

// AppendAccesses implements Appender.
func (u *Unstructured) AppendAccesses(seq []Access, p, phase int) []Access {
	// mine: the shared node blocks this processor touches.
	mine := u.nodesOf.of(p)

	switch phase % 3 {
	case 0:
		seq = u.cold.appendReads(seq, p, phase)
		// Edge loop: migratory read-modify-write of every shared node
		// block this processor touches, in program order over the mesh
		// with occasional lock-order inversions.
		r := seededRNG(u.seed ^ uint64(p)<<24 ^ uint64(phase)<<5)
		swapped := append(u.mineBuf[:0], mine...)
		for i := 0; i+1 < len(swapped); i++ {
			if r.float() < 0.05 {
				swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
			}
		}
		for _, b := range swapped {
			seq = append(seq, Read(u.nodes.Block(int(b))), Write(u.nodes.Block(int(b))))
		}
		u.mineBuf = swapped
		// Private edge work inside the same phase.
		for b := 0; b < u.edgePriv[p].Blocks(); b++ {
			seq = append(seq, Read(u.edgePriv[p].Block(b)), Write(u.edgePriv[p].Block(b)))
		}

	case 1:
		// Node loop, producer half: the owner recomputes the node,
		// reading it first (the producer is itself a consumer).
		for _, b := range mine {
			if u.owner[b] == p {
				seq = append(seq, Read(u.nodes.Block(int(b))), Write(u.nodes.Block(int(b))))
			}
		}

	case 2:
		// Node loop, consumer half: neighbours read the recomputed
		// nodes in their (recurring) mesh traversal order.
		reads := u.readBuf[:0]
		for _, b := range mine {
			if u.owner[b] != p {
				reads = append(reads, b)
			}
		}
		u.readBuf = reads
		u.orderBuf = recurringOrderInto(u.orderBuf[:0], u.seed, uint64(p), phase, len(reads), 3, 0.9)
		for _, i := range u.orderBuf {
			seq = append(seq, Read(u.nodes.Block(int(reads[i]))))
		}
	}
	return seq
}
