package experiments

import (
	"fmt"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/directed"
	"github.com/cosmos-coherence/cosmos/internal/model"
	"github.com/cosmos-coherence/cosmos/internal/parallel"
	"github.com/cosmos-coherence/cosmos/internal/stats"
	"github.com/cosmos-coherence/cosmos/internal/trace"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

// Figure5 reproduces the two panels of Figure 5: the analytic speedup
// model at p = 0.8, sweeping the correctly-predicted-delay fraction f
// (one curve per mis-prediction penalty r) and sweeping r (one curve
// per f).
type Figure5 struct {
	P       float64
	FSweeps []model.Curve
	RSweeps []model.Curve
}

// RunFigure5 computes the Figure 5 curves.
func RunFigure5() (*Figure5, error) {
	const p = 0.8
	fs, err := model.SweepF(p, []float64{0, 0.25, 0.5, 0.75, 1.0}, 0, 1, 0.1)
	if err != nil {
		return nil, err
	}
	rs, err := model.SweepR(p, []float64{0.1, 0.3, 0.5, 0.7, 0.9}, 0, 2, 0.2)
	if err != nil {
		return nil, err
	}
	return &Figure5{P: p, FSweeps: fs, RSweeps: rs}, nil
}

// SignatureRow is one arc of a Figure 6/7 panel: the transition, its
// prediction accuracy (the X of the paper's X/Y labels) and its share
// of the side's references (the Y).
type SignatureRow struct {
	Side trace.Side
	Stat stats.ArcStat
}

// Figures6and7 reproduces the content of Figures 6 and 7: per
// benchmark, the dominant incoming-message transitions at the caches
// and at the directories with their accuracy/reference-share labels,
// measured with a filterless depth-1 Cosmos (the figures' stated
// configuration). Figure 6 covers appbt, barnes and dsmc; Figure 7
// covers moldyn and unstructured — the split is presentation only, so
// one driver serves both.
func Figures6and7(s *Suite, app string, topN int) ([]SignatureRow, error) {
	res, err := s.Evaluate(app, core.Config{Depth: 1}, stats.Options{TrackArcs: true})
	if err != nil {
		return nil, err
	}
	var rows []SignatureRow
	for _, side := range []trace.Side{trace.CacheSide, trace.DirectorySide} {
		for _, st := range res.DominantArcs(side, topN) {
			rows = append(rows, SignatureRow{Side: side, Stat: st})
		}
	}
	return rows, nil
}

// SignaturePanels computes the Figure 6/7 panels for several apps at
// once, one worker-pool cell per app, returning the panels in the
// apps' given order.
func SignaturePanels(s *Suite, apps []string, topN int) ([][]SignatureRow, error) {
	return parallel.Map(len(apps), s.workers, func(i int) ([]SignatureRow, error) {
		return Figures6and7(s, apps[i], topN)
	})
}

// DirectedEval is one predictor's performance over one side of a trace.
type DirectedEval struct {
	Name string
	// Coverage is the fraction of messages for which the predictor
	// ventured a prediction at all.
	Coverage float64
	// Accuracy is correct predictions / all messages (misses include
	// "no prediction", the same convention Cosmos is scored with).
	Accuracy float64
	// AccuracyWhenPredicting is correct / ventured.
	AccuracyWhenPredicting float64
	// Classified counts blocks the detector classified, when the
	// predictor is a signature detector (else 0).
	Classified int
}

// evalDirected scores one predictor per node over the given side of a
// trace.
func evalDirected(tr *trace.Trace, workers int, side trace.Side, name string, mk func() directed.MessagePredictor) DirectedEval {
	// mk cannot fail, so neither can the scorer.
	sc, _ := scoreSlots(tr, workers, []trace.Side{side}, func() (directed.MessagePredictor, error) { return mk(), nil })
	out := DirectedEval{Name: name, Classified: sc.classified}
	if sc.total > 0 {
		out.Coverage = float64(sc.ventured) / float64(sc.total)
		out.Accuracy = float64(sc.hits) / float64(sc.total)
	}
	if sc.ventured > 0 {
		out.AccuracyWhenPredicting = float64(sc.hits) / float64(sc.ventured)
	}
	return out
}

// Figure8Result reports the Figure 8 reproduction: each directed
// signature detector run over the micro-workload that embodies its
// pattern.
type Figure8Result struct {
	Migratory DirectedEval // migratory detector on the migratory workload, directory side
	DSI       DirectedEval // self-invalidation detector on producer-consumer, cache side
}

// RunFigure8 builds the two micro-workloads, captures their traces,
// and feeds them to the Figure 8 signature detectors. Both must
// classify blocks and predict with high implied accuracy — showing
// that Cosmos' message vocabulary subsumes the directed signatures.
func RunFigure8(s *Suite) (*Figure8Result, error) {
	cfg := s.cfg
	geom, err := coherence.NewGeometry(cfg.Machine.CacheBlockBytes, cfg.Machine.PageBytes, cfg.Machine.Nodes)
	if err != nil {
		return nil, err
	}

	mig := workload.Migratory(cfg.Machine.Nodes, workload.NewArena(geom).Alloc(16), 12)
	migTr, err := Run(mig, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: figure 8 migratory run: %w", err)
	}

	pc := workload.ProducerConsumer(cfg.Machine.Nodes, 1, []int{2}, workload.NewArena(geom).Alloc(16), 12)
	pcTr, err := Run(pc, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: figure 8 producer-consumer run: %w", err)
	}

	return &Figure8Result{
		Migratory: evalDirected(migTr, s.workers, trace.DirectorySide, "migratory",
			func() directed.MessagePredictor { return directed.NewMigratory() }),
		DSI: evalDirected(pcTr, s.workers, trace.CacheSide, "self-invalidation",
			func() directed.MessagePredictor { return directed.NewSelfInvalidation() }),
	}, nil
}

// DirectedComparisonRow is one benchmark's Section 7 comparison:
// Cosmos against the directed detectors and naive baselines on the
// same message streams.
type DirectedComparisonRow struct {
	App  string
	Side trace.Side
	// Evals holds, in order: Cosmos depth 1, Cosmos depth 3,
	// last-tuple, most-common, and the side's directed detector
	// (migratory at directories, self-invalidation at caches).
	Evals []DirectedEval
}

// DirectedComparison reproduces the substance of Section 7: on each
// benchmark and side, Cosmos' accuracy and coverage versus the
// directed predictors (which only cover their a-priori patterns) and
// the naive baselines.
func DirectedComparison(s *Suite) ([]DirectedComparisonRow, error) {
	type cell struct {
		app  string
		side trace.Side
	}
	var cells []cell
	for _, app := range s.Apps() {
		for _, side := range bothSides {
			cells = append(cells, cell{app: app, side: side})
		}
	}
	return parallel.Map(len(cells), s.workers, func(i int) (DirectedComparisonRow, error) {
		app, side := cells[i].app, cells[i].side
		tr, err := s.Trace(app)
		if err != nil {
			return DirectedComparisonRow{}, err
		}
		row := DirectedComparisonRow{App: app, Side: side}
		row.Evals = append(row.Evals,
			evalDirected(tr, s.workers, side, "cosmos-d1", func() directed.MessagePredictor {
				return core.MustNew(core.Config{Depth: 1})
			}),
			evalDirected(tr, s.workers, side, "cosmos-d3", func() directed.MessagePredictor {
				return core.MustNew(core.Config{Depth: 3})
			}),
			evalDirected(tr, s.workers, side, "last-tuple", func() directed.MessagePredictor {
				return directed.NewLastTuple()
			}),
			evalDirected(tr, s.workers, side, "most-common", func() directed.MessagePredictor {
				return directed.NewMostCommon()
			}),
		)
		if side == trace.DirectorySide {
			row.Evals = append(row.Evals, evalDirected(tr, s.workers, side, "migratory",
				func() directed.MessagePredictor { return directed.NewMigratory() }))
		} else {
			row.Evals = append(row.Evals, evalDirected(tr, s.workers, side, "self-invalidation",
				func() directed.MessagePredictor { return directed.NewSelfInvalidation() }))
		}
		return row, nil
	})
}
