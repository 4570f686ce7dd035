// Faults: simulate a benchmark on a lossy interconnect and watch the
// reliable transport keep the coherence protocol alive.
//
// The paper's machine (Section 5.1) assumes a reliable per-link FIFO
// network. This example breaks that assumption — 1% of packets are
// dropped, a few are duplicated, and delivery latency jitters — and
// shows the repair machinery at work: the end-to-end transport
// retransmits losses, discards duplicates, and restores per-link FIFO
// order, so Stache (and the Cosmos predictor watching its message
// streams) runs unmodified. A livelock watchdog guards the run: had
// the transport failed to make progress, the run would end with a
// diagnostic dump instead of spinning forever.
//
// Run with: go run ./examples/faults
package main

import (
	"fmt"
	"os"

	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/experiments"
	"github.com/cosmos-coherence/cosmos/internal/faults"
	"github.com/cosmos-coherence/cosmos/internal/machine"
	"github.com/cosmos-coherence/cosmos/internal/stats"
	"github.com/cosmos-coherence/cosmos/internal/trace"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "faults:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := experiments.DefaultConfig()
	cfg.Scale = workload.ScaleSmall
	cfg.Machine.Faults = faults.Plan{
		Seed:     2718,
		DropProb: 0.01, // 1% of packets vanish on the wire
		DupProb:  0.005,
		JitterNs: 40,
	}
	// The watchdog (on by default) fails the run with a diagnostic if
	// no access completes for this long of simulated time.
	fmt.Printf("fault plan: drop %.1f%%, dup %.1f%%, jitter %dns, seed %d; watchdog %v\n\n",
		100*cfg.Machine.Faults.DropProb, 100*cfg.Machine.Faults.DupProb,
		cfg.Machine.Faults.JitterNs, cfg.Machine.Faults.Seed, cfg.Machine.WatchdogNs)

	app, err := workload.ByName("dsmc", cfg.Machine.Nodes, cfg.Scale)
	if err != nil {
		return err
	}
	// A trace record numbers at most trace.MaxIter+1 application
	// iterations; refuse a longer run before simulating it.
	if err := trace.CheckIterations(app.Name(), app.Iterations(), app.PhasesPerIteration()); err != nil {
		return err
	}
	m, err := machine.New(cfg.Machine, cfg.Stache, app)
	if err != nil {
		return err
	}
	rec := trace.NewRecorder(app.Name(), cfg.Machine.Nodes, app.PhasesPerIteration(), 0)
	m.AddObserver(rec)
	if err := m.Run(0); err != nil {
		// A dead link or stall lands here with the watchdog's
		// diagnostic dump (stuck accesses, busy directory entries,
		// in-flight retransmissions).
		return err
	}

	ns := m.Network().Stats()
	ts := m.Transport().Stats()
	fmt.Printf("simulated %s: %d accesses, %d coherence messages, finished at t=%v\n",
		app.Name(), m.Accesses(), ns.MessagesSent, m.Engine().Now())
	fmt.Printf("wire faults:  %d dropped, %d duplicated\n", ns.FaultDropped, ns.FaultDuplicated)
	fmt.Printf("transport:    %d retransmits, %d duplicate frames discarded, %d acks\n",
		ts.Retransmits, ts.DupsDiscarded, ns.CtrlMessages)

	res, err := stats.Evaluate(rec.Trace(), core.Config{Depth: 1}, stats.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("\ndepth-1 Cosmos over the lossy-wire trace: %.1f%% overall accuracy\n",
		100*res.Overall.Accuracy())
	fmt.Println("(the protocol never saw a loss: the transport repaired every one)")
	return nil
}
