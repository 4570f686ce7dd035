package core

import "github.com/cosmos-coherence/cosmos/internal/coherence"

// refCosmos is Cosmos written straight from the paper with Go maps: a
// per-block history of the last depth tuples indexes a per-block map
// of patterns (Section 3.3), each entry trained by the Section 3.4
// rule behind the Section 3.6 filter counter. It shares no code with
// the Bank, so the bank and the Predictor are tested against an
// independent reading of the paper rather than against each other.
type refCosmos struct {
	cfg    Config
	blocks map[coherence.Addr]*refBlock
}

// refBlock is one block's history, oldest first, and its patterns.
type refBlock struct {
	hist []coherence.Tuple
	pht  map[[MaxDepth]coherence.Tuple]*refEntry
}

type refEntry struct {
	pred    coherence.Tuple
	counter int
}

func newRefCosmos(cfg Config) *refCosmos {
	return &refCosmos{cfg: cfg, blocks: map[coherence.Addr]*refBlock{}}
}

// observe predicts the block's next tuple from its history, then
// trains that pattern and appends actual to the history.
func (r *refCosmos) observe(addr coherence.Addr, actual coherence.Tuple) (pred coherence.Tuple, predicted, correct bool) {
	b := r.blocks[addr]
	if b == nil {
		b = &refBlock{pht: map[[MaxDepth]coherence.Tuple]*refEntry{}}
		r.blocks[addr] = b
	}
	if len(b.hist) == r.cfg.Depth {
		var key [MaxDepth]coherence.Tuple
		copy(key[:], b.hist)
		if e := b.pht[key]; e == nil {
			b.pht[key] = &refEntry{pred: actual}
		} else {
			pred, predicted, correct = e.pred, true, e.pred == actual
			switch {
			case correct && e.counter < r.cfg.FilterMax:
				e.counter++
			case correct:
			case e.counter > 0:
				e.counter--
			default:
				e.pred = actual
			}
		}
	}
	b.hist = append(b.hist, actual)
	if len(b.hist) > r.cfg.Depth {
		b.hist = b.hist[1:]
	}
	return pred, predicted, correct
}

func (r *refCosmos) forget(addr coherence.Addr) { delete(r.blocks, addr) }

func (r *refCosmos) mhrEntries() uint64 { return uint64(len(r.blocks)) }

func (r *refCosmos) phtEntries() uint64 {
	var n uint64
	for _, b := range r.blocks {
		n += uint64(len(b.pht))
	}
	return n
}
