// Accelerate: the Section 4 bottom line. Runs a migratory workload
// (moldyn's force-reduction pattern) twice on the simulated machine —
// once with plain Stache, once with a Cosmos oracle attached beside
// every directory driving the read-modify-write action of Table 2
// (answer a read with an exclusive copy when the same node's upgrade
// is predicted next) — and reports the message and runtime reduction.
//
// Run with: go run ./examples/accelerate
package main

import (
	"fmt"
	"log"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/model"
	"github.com/cosmos-coherence/cosmos/internal/sim"
	"github.com/cosmos-coherence/cosmos/internal/speculate"
	"github.com/cosmos-coherence/cosmos/internal/stache"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

func main() {
	cfg := sim.DefaultConfig()
	geom := coherence.MustGeometry(cfg.CacheBlockBytes, cfg.PageBytes, cfg.Nodes)

	app := func() workload.App {
		return workload.Migratory(cfg.Nodes, workload.NewArena(geom).Alloc(64), 60)
	}

	// Both actions move the protocol between two legal states, so they
	// run ungated: no governor in the AttachConfig.
	rmwCfg := speculate.AttachConfig{Actions: speculate.Actions{RMW: true}, Predictor: core.Config{Depth: 1}}
	cmp, err := speculate.AccelerateActions(app, cfg, stache.DefaultOptions(), rmwCfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("migratory workload, 16 nodes, 64 blocks, 60 iterations")
	fmt.Printf("%-22s %12s %12s\n", "", "baseline", "accelerated")
	fmt.Printf("%-22s %12d %12d\n", "network messages", cmp.Baseline.Messages, cmp.Accelerated.Messages)
	fmt.Printf("%-22s %12d %12d\n", "upgrade_requests", cmp.Baseline.UpgradeRequests, cmp.Accelerated.UpgradeRequests)
	fmt.Printf("%-22s %12d %12d\n", "invalidations", cmp.Baseline.Invalidations, cmp.Accelerated.Invalidations)
	fmt.Printf("%-22s %12v %12v\n", "simulated time", cmp.Baseline.FinalTime, cmp.Accelerated.FinalTime)
	fmt.Printf("%-22s %12s %12d\n", "speculative grants", "-", cmp.Accelerated.Speculations)
	fmt.Printf("\nmessage reduction: %.1f%%   runtime reduction: %.1f%%\n",
		100*cmp.MessageReduction(), 100*cmp.TimeReduction())

	// Second action: Cosmos-driven dynamic self-invalidation on a
	// producer-consumer workload. Here the win is latency, not message
	// count: the producer's block is already home when the consumer
	// misses, so the miss is a two-hop instead of a four-hop.
	pcApp := func() workload.App {
		return workload.ProducerConsumer(cfg.Nodes, 1, []int{2, 5}, workload.NewArena(geom).Alloc(64), 60)
	}
	dsiCfg := speculate.AttachConfig{Actions: speculate.Actions{DSI: true}, Predictor: core.Config{Depth: 1}}
	dsi, err := speculate.AccelerateActions(pcApp, cfg, stache.DefaultOptions(), dsiCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nself-invalidation on producer-consumer: %d proactive writebacks,\n", dsi.Accelerated.Speculations)
	fmt.Printf("invalidations %d -> %d, simulated time %v -> %v (%.1f%% faster)\n",
		dsi.Baseline.Invalidations, dsi.Accelerated.Invalidations,
		dsi.Baseline.FinalTime, dsi.Accelerated.FinalTime, 100*dsi.TimeReduction())

	// Put the measured results beside the paper's analytic model
	// (Section 4.4): the implied per-message benefit of our measured
	// accuracy at zero mis-prediction penalty.
	s, err := model.Speedup(model.Params{P: 0.9, F: 0.5, R: 0})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfor comparison, the Section 4.4 model at p=0.9, f=0.5, r=0 predicts %.2fx\n", s)

	fmt.Println("\nTable 2 action catalogue (Section 4):")
	for _, a := range speculate.Table2() {
		state := " "
		if a.Implemented {
			state = "*"
		}
		fmt.Printf(" %s %-28s recovery: %s\n", state, a.Name, a.Class)
	}
	fmt.Println(" (* = wired into the running protocol in this repository)")
}
