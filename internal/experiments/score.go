package experiments

import (
	"slices"

	"github.com/cosmos-coherence/cosmos/internal/directed"
	"github.com/cosmos-coherence/cosmos/internal/parallel"
	"github.com/cosmos-coherence/cosmos/internal/trace"
)

// bothSides selects every slot of a trace.
var bothSides = []trace.Side{trace.CacheSide, trace.DirectorySide}

// slotScore sums what the predictors of one family reported over the
// slots they ran on.
type slotScore struct {
	total, ventured, hits uint64
	// mhr and pht sum MHR and PHT entries, and classified the blocks a
	// signature detector classified, over the predictors that report
	// them (else 0).
	mhr, pht   uint64
	classified int
}

// scoreSlots scores the predictors the stats bank does not run (the
// directed predictors, the naive baselines, PAg, the macroblock
// variants and Cosmos cast as a directed.MessagePredictor). It runs
// one predictor from mk per (node, side) slot of tr whose side is in
// sides, fanned over a pool of workers, and sums what they report.
// Each predictor sees only its own slot's records, in arrival order —
// exactly the state it would reach in the serial arrival-order walk
// (see trace.Partition) — and every sum is order-insensitive, so the
// score is the same at every width. Slots without records contribute
// nothing.
func scoreSlots(tr *trace.Trace, workers int, sides []trace.Side, mk func() (directed.MessagePredictor, error)) (slotScore, error) {
	part := tr.Partition()
	scores, err := parallel.Map(part.Slots(), workers, func(s int) (slotScore, error) {
		var sc slotScore
		recs := part.Records(s)
		if len(recs) == 0 || !slices.Contains(sides, recs[0].Side) {
			return sc, nil
		}
		p, err := mk()
		if err != nil {
			return sc, err
		}
		for _, rec := range recs {
			_, predicted, correct := p.Observe(rec.Addr, rec.Tuple())
			sc.total++
			if predicted {
				sc.ventured++
			}
			if correct {
				sc.hits++
			}
		}
		if m, ok := p.(interface {
			MHREntries() uint64
			PHTEntries() uint64
		}); ok {
			sc.mhr, sc.pht = m.MHREntries(), m.PHTEntries()
		}
		if c, ok := p.(interface{ ClassifiedBlocks() int }); ok {
			sc.classified = c.ClassifiedBlocks()
		}
		return sc, nil
	})
	var sum slotScore
	for _, sc := range scores {
		sum.total += sc.total
		sum.ventured += sc.ventured
		sum.hits += sc.hits
		sum.mhr += sc.mhr
		sum.pht += sc.pht
		sum.classified += sc.classified
	}
	return sum, err
}
