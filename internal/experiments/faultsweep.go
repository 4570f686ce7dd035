package experiments

import (
	"fmt"

	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/faults"
	"github.com/cosmos-coherence/cosmos/internal/machine"
	"github.com/cosmos-coherence/cosmos/internal/parallel"
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
// interconnect. Each benchmark is re-simulated at each drop
// probability with the reliable transport repairing the wire (losses
// become retransmission latency, not protocol errors), and the
// captured trace is evaluated with a depth-1 filterless Cosmos.
//
// The paper assumes a reliable FIFO network (Section 5.1); this sweep
// tests the robustness of its accuracy claims when that assumption is
// implemented by an end-to-end transport over a faulty wire instead of
// by the wire itself. The transport restores per-link exactly-once
// FIFO delivery, so the predictor sees the same *kind* of stream —
// only timing-dependent race resolutions may differ.
func FaultSweep(cfg Config, dropProbs []float64, seed uint64) ([]FaultRow, error) {
	// Every (drop probability, app) sweep point is an independent
	// simulation on its own machine; fan them all out at once.
	type cell struct {
		prob float64
		app  string
	}
	var cells []cell
	for _, p := range dropProbs {
		for _, name := range NewSuite(cfg).Apps() {
			cells = append(cells, cell{prob: p, app: name})
		}
	}
	return parallel.Map(len(cells), cfg.workerCount(), func(i int) (FaultRow, error) {
		name, p := cells[i].app, cells[i].prob
		c := cfg
		c.Machine.Faults = faults.Plan{Seed: seed, DropProb: p}
		app, err := workload.ByName(name, c.Machine.Nodes, c.Scale)
		if err != nil {
			return FaultRow{}, err
		}
		if err := checkCapture(app); err != nil {
			return FaultRow{}, err
		}
		m, err := machine.New(c.Machine, c.Stache, app)
		if err != nil {
			return FaultRow{}, err
		}
		rec := trace.NewRecorder(app.Name(), c.Machine.Nodes, app.PhasesPerIteration(), 0)
		m.AddObserver(rec)
		if err := m.Run(maxSimEvents); err != nil {
			return FaultRow{}, fmt.Errorf("experiments: %s at drop %.3f: %w", name, p, err)
		}
		tr := rec.Trace()
		res, err := stats.Evaluate(tr, core.Config{Depth: 1}, stats.Options{})
		if err != nil {
			return FaultRow{}, err
		}
		ns := m.Network().Stats()
		return FaultRow{
			App:         name,
			DropProb:    p,
			Overall:     100 * res.Overall.Accuracy(),
			Messages:    uint64(len(tr.Records)),
			Dropped:     ns.FaultDropped,
			Duplicated:  ns.FaultDuplicated,
			Retransmits: ns.Retransmits,
		}, nil
	})
}
