package experiments

import (
	"fmt"

	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/faults"
	"github.com/cosmos-coherence/cosmos/internal/machine"
	"github.com/cosmos-coherence/cosmos/internal/stats"
	"github.com/cosmos-coherence/cosmos/internal/trace"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

// FaultRow is one cell of the fault-tolerance sweep: one benchmark
// simulated at one drop probability.
type FaultRow struct {
	App      string
	DropProb float64
	// Overall is the depth-1 Cosmos prediction accuracy (percent) over
	// the trace captured on the faulty wire.
	Overall float64
	// Messages is the number of coherence messages the predictor saw.
	Messages uint64
	// Dropped and Duplicated count raw-wire fault injections; the
	// reliable transport repairs both before the protocol sees them.
	Dropped    uint64
	Duplicated uint64
	// Retransmits counts transport-level resends needed to complete.
	Retransmits uint64
}

// FaultSweep measures how coherence prediction holds up on a lossy
// interconnect. Each benchmark is simulated at each nonzero drop
// probability with the reliable transport repairing the wire (losses
// become retransmission latency, not protocol errors), and the
// captured trace is evaluated with a depth-1 filterless Cosmos. A
// point whose plan injects nothing reads its variant's memoized
// evaluation instead, and reports zero transport counters.
//
// The paper assumes a reliable FIFO network (Section 5.1); this sweep
// tests the robustness of its accuracy claims when that assumption is
// implemented by an end-to-end transport over a faulty wire instead of
// by the wire itself. The transport restores per-link exactly-once
// FIFO delivery, so the predictor sees the same *kind* of stream —
// only timing-dependent race resolutions may differ.
func FaultSweep(s *Suite, dropProbs []float64, seed uint64) ([]FaultRow, error) {
	edit := func(c *Config, p float64) { c.Machine.Faults = faults.Plan{Seed: seed, DropProb: p} }
	return sweep(s, dropProbs, edit, func(v *Suite, p float64, name string) (FaultRow, error) {
		row := FaultRow{App: name, DropProb: p}
		var res *stats.Result
		var err error
		if !v.cfg.Machine.Faults.Enabled() {
			// A fault-free wire keeps the reliable transport out of the
			// message flow, so there is nothing to count, and the
			// evaluation is the variant's memoized one: under default
			// flags, the suite's own.
			if res, err = v.Evaluate(name, core.Config{Depth: 1}, stats.Options{}); err != nil {
				return row, err
			}
		} else {
			// The transport's counters live only on the machine.
			app, err := workload.ByName(name, v.cfg.Machine.Nodes, v.cfg.Scale)
			if err != nil {
				return row, err
			}
			rec := trace.NewRecorder(name, v.cfg.Machine.Nodes, app.PhasesPerIteration(), 0)
			m, err := simulate(app, v.cfg, func(m *machine.Machine) { m.AddObserver(rec) })
			if err != nil {
				return row, fmt.Errorf("experiments: faultsweep at drop %.3f: %w", p, err)
			}
			if res, err = stats.Evaluate(rec.Trace(), core.Config{Depth: 1}, stats.Options{}); err != nil {
				return row, err
			}
			ns := m.Network().Stats()
			row.Dropped, row.Duplicated, row.Retransmits = ns.FaultDropped, ns.FaultDuplicated, ns.Retransmits
		}
		row.Overall = 100 * res.Overall.Accuracy()
		row.Messages = res.Overall.Total
		return row, nil
	})
}
