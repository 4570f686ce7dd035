package experiments

import (
	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/parallel"
	"github.com/cosmos-coherence/cosmos/internal/stats"
	"github.com/cosmos-coherence/cosmos/internal/trace"
)

// VariantRow is one cell of the predictor-variant ablation: the
// Section 7 macroblock-grouping idea and the footnote-2
// sender-agnostic-history idea, traded against plain Cosmos.
type VariantRow struct {
	App string
	// Group is the macroblock size in blocks (1 = plain Cosmos).
	Group int
	// SenderAgnostic marks the stripped-history variant.
	SenderAgnostic bool
	Overall        float64
	// MHREntries and PHTEntries aggregate predictor memory across all
	// nodes and sides, showing the grouping's state savings.
	MHREntries uint64
	PHTEntries uint64
}

// Variants evaluates the macroblock sizes and the sender-agnostic
// variant over every benchmark at MHR depth 1. The measured shape
// quantifies the cost of the Section 7 idea when implemented naively
// (one merged history per macroblock): MHR state shrinks by the group
// factor, but interleaving neighbouring blocks' messages into one
// history register fragments their patterns and accuracy drops
// sharply — worst at small groups, partially recovering at large ones,
// where sweep-ordered workloads touch a macroblock many times in a row
// and the merged stream becomes regular again. A production macroblock
// predictor would need per-block sub-histories with shared PHT
// storage, exactly the refinement the paper leaves open. The
// sender-agnostic variant likewise trades accuracy on multi-sharer
// blocks for a smaller pattern space.
func Variants(s *Suite) ([]VariantRow, error) {
	blockBytes := s.cfg.Machine.CacheBlockBytes
	configs := []struct {
		group          int
		senderAgnostic bool
	}{
		{1, false}, {2, false}, {4, false}, {8, false}, {1, true},
	}
	type cell struct {
		app string
		vc  int
	}
	var cells []cell
	for _, app := range s.Apps() {
		for vc := range configs {
			cells = append(cells, cell{app: app, vc: vc})
		}
	}
	return parallel.Map(len(cells), s.workers, func(i int) (VariantRow, error) {
		c := cells[i]
		tr, err := s.Trace(c.app)
		if err != nil {
			return VariantRow{}, err
		}
		vc := configs[c.vc]
		return evalVariant(tr, c.app, core.MacroConfig{
			Base:                  core.Config{Depth: 1},
			BlockGroup:            vc.group,
			BlockBytes:            blockBytes,
			SenderAgnosticHistory: vc.senderAgnostic,
		}, s.workers)
	})
}

// slotShard runs fn once per (node, side) slot of the trace, fanned
// over the worker pool, and returns the per-slot partials in fixed
// slot order. Each fn call sees only its own slot's records, in
// original arrival order — exactly the state any per-slot predictor
// would see in the serial arrival-order walk (see trace.Partition), so
// order-insensitive merges of the partials equal the serial totals.
func slotShard[T any](tr *trace.Trace, workers int, fn func(recs []trace.Record) (T, error)) ([]T, error) {
	part := tr.Partition()
	slots := part.Slots()
	if s := 2 * tr.Nodes; slots < s {
		slots = s // empty high slots still get a (zero-record) cell
	}
	return parallel.Map(slots, workers, func(s int) (T, error) {
		return fn(part.Records(s))
	})
}

// evalVariant runs one MacroPredictor per node and side over a trace,
// slot-sharded.
func evalVariant(tr *trace.Trace, app string, cfg core.MacroConfig, workers int) (VariantRow, error) {
	type partial struct {
		total, hits, mhr, pht uint64
	}
	parts, err := slotShard(tr, workers, func(recs []trace.Record) (partial, error) {
		p, err := core.NewMacro(cfg)
		if err != nil {
			return partial{}, err
		}
		var sp partial
		for _, rec := range recs {
			_, _, correct := p.Observe(rec.Addr, rec.Tuple())
			sp.total++
			if correct {
				sp.hits++
			}
		}
		sp.mhr = p.MHREntries()
		sp.pht = p.PHTEntries()
		return sp, nil
	})
	if err != nil {
		return VariantRow{}, err
	}
	row := VariantRow{
		App:            app,
		Group:          cfg.BlockGroup,
		SenderAgnostic: cfg.SenderAgnosticHistory,
	}
	var total, hits uint64
	for _, sp := range parts {
		total += sp.total
		hits += sp.hits
		row.MHREntries += sp.mhr
		row.PHTEntries += sp.pht
	}
	if total > 0 {
		row.Overall = 100 * float64(hits) / float64(total)
	}
	return row, nil
}

// PApVsPAgRow compares the paper's per-address-PHT design (PAp) with
// the shared-global-PHT alternative (PAg) at equal depth.
type PApVsPAgRow struct {
	App        string
	Depth      int
	PApOverall float64
	PAgOverall float64
	// PHT entry totals across all predictors: the memory PAg saves.
	PApPHT uint64
	PAgPHT uint64
}

// PApVsPAg evaluates both designs over every benchmark. Expected
// shape: PAg's shared table is orders of magnitude smaller but
// aliasing across blocks with identical histories and different
// sharers costs accuracy — the quantitative justification for the
// paper's per-block PHT choice. The PAp column is the suite's Cosmos
// evaluation at that depth.
func PApVsPAg(s *Suite, depth int) ([]PApVsPAgRow, error) {
	apps := s.Apps()
	return parallel.Map(len(apps), s.workers, func(i int) (PApVsPAgRow, error) {
		appName := apps[i]
		pap, err := s.Evaluate(appName, core.Config{Depth: depth}, stats.Options{})
		if err != nil {
			return PApVsPAgRow{}, err
		}
		tr, err := s.Trace(appName)
		if err != nil {
			return PApVsPAgRow{}, err
		}
		row := PApVsPAgRow{
			App:        appName,
			Depth:      depth,
			PApOverall: 100 * pap.Overall.Accuracy(),
			PApPHT:     pap.Memory.PHTEntries,
		}

		// Each slot drives its own PAg instance; PAg shares its PHT
		// across blocks only *within* one predictor, so slot sharding
		// stays exact for it.
		type partial struct{ hits, pht uint64 }
		parts, err := slotShard(tr, s.workers, func(recs []trace.Record) (partial, error) {
			pag, err := core.NewPAg(core.Config{Depth: depth})
			if err != nil {
				return partial{}, err
			}
			var sp partial
			for _, rec := range recs {
				if _, _, ok := pag.Observe(rec.Addr, rec.Tuple()); ok {
					sp.hits++
				}
			}
			sp.pht = pag.PHTEntries()
			return sp, nil
		})
		if err != nil {
			return PApVsPAgRow{}, err
		}
		var hits uint64
		for _, sp := range parts {
			hits += sp.hits
			row.PAgPHT += sp.pht
		}
		if total := pap.Overall.Total; total > 0 {
			row.PAgOverall = 100 * float64(hits) / float64(total)
		}
		return row, nil
	})
}
