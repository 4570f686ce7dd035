package experiments

import (
	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/parallel"
	"github.com/cosmos-coherence/cosmos/internal/speculate"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

// AccelerateRow is one benchmark's end-to-end acceleration result: the
// same workload run with plain Stache and with Cosmos oracles driving
// the read-modify-write action of Table 2 at every directory.
type AccelerateRow struct {
	App              string
	BaselineMsgs     uint64
	AcceleratedMsgs  uint64
	Speculations     uint64
	MessageReduction float64 // fraction
	TimeReduction    float64 // fraction
}

// AccelerateBenchmarks goes beyond the paper's prediction-only
// evaluation (Section 4's proposed next step): it runs each of the
// five applications under the prediction-accelerated protocol and
// reports the bottom line. The expectation from Section 6.1's pattern
// analysis: the migratory applications (moldyn, unstructured, and
// appbt's read-then-write producers) benefit — their upgrade round
// trips collapse into the read — while dsmc, whose producers write
// without reading, offers the RMW action almost nothing.
func AccelerateBenchmarks(cfg Config, pcfg core.Config) ([]AccelerateRow, error) {
	apps := NewSuite(cfg).Apps()
	return parallel.Map(len(apps), cfg.workerCount(), func(i int) (AccelerateRow, error) {
		name := apps[i]
		app := func() workload.App {
			a, err := workload.ByName(name, cfg.Machine.Nodes, cfg.Scale)
			if err != nil {
				panic(err) // names come from the registry; unreachable
			}
			return a
		}
		cmp, err := speculate.AccelerateActions(app, cfg.Machine, cfg.Stache, speculate.AttachConfig{
			Actions:   speculate.Actions{RMW: true},
			Predictor: pcfg,
		})
		if err != nil {
			return AccelerateRow{}, err
		}
		return AccelerateRow{
			App:              name,
			BaselineMsgs:     cmp.Baseline.Messages,
			AcceleratedMsgs:  cmp.Accelerated.Messages,
			Speculations:     cmp.Accelerated.Speculations,
			MessageReduction: cmp.MessageReduction(),
			TimeReduction:    cmp.TimeReduction(),
		}, nil
	})
}
