// Benchmark: run one of the paper's five applications end to end and
// print its headline numbers — a single-benchmark slice of Tables 5-7.
//
// Run with: go run ./examples/benchmark [appbt|barnes|dsmc|moldyn|unstructured]
package main

import (
	"fmt"
	"log"
	"os"

	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/experiments"
	"github.com/cosmos-coherence/cosmos/internal/stats"
	"github.com/cosmos-coherence/cosmos/internal/trace"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

func main() {
	app := "moldyn"
	if len(os.Args) > 1 {
		app = os.Args[1]
	}

	cfg := experiments.DefaultConfig()
	cfg.Scale = workload.ScaleMedium
	suite := experiments.NewSuite(cfg)

	tr, err := suite.Trace(app)
	if err != nil {
		log.Fatal(err)
	}
	cacheMsgs, dirMsgs := tr.CountBySide()
	fmt.Printf("%s @ %s scale: %d iterations, %d messages (%d cache / %d directory)\n\n",
		app, cfg.Scale, tr.Iterations, len(tr.Records), cacheMsgs, dirMsgs)

	// One walk over the trace evaluates the whole depth x filter grid.
	var grid []core.Config
	for depth := 1; depth <= 4; depth++ {
		for fmax := 0; fmax <= 2; fmax++ {
			grid = append(grid, core.Config{Depth: depth, FilterMax: fmax})
		}
	}
	results, err := suite.EvaluateAll(app, grid, stats.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("accuracy by depth and filter (overall %):")
	fmt.Printf("%-6s %9s %9s %9s\n", "depth", "filter=0", "filter=1", "filter=2")
	for i, res := range results {
		if grid[i].FilterMax == 0 {
			fmt.Printf("%-6d", grid[i].Depth)
		}
		fmt.Printf(" %8.1f%%", 100*res.Overall.Accuracy())
		if grid[i].FilterMax == 2 {
			fmt.Println()
		}
	}

	res, err := suite.Evaluate(app, core.Config{Depth: 1}, stats.Options{TrackArcs: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmemory: %d MHR entries, %d PHT entries (ratio %.1f, overhead %.1f%% per 128-byte block)\n",
		res.Memory.MHREntries, res.Memory.PHTEntries, res.Memory.Ratio(),
		res.Memory.Overhead(1, experiments.Table7BlockBytes))

	fmt.Println("\ndominant signatures (depth 1):")
	for _, side := range []trace.Side{trace.CacheSide, trace.DirectorySide} {
		fmt.Printf("-- at the %s\n", side)
		for _, a := range res.DominantArcs(side, 5) {
			fmt.Printf("   %-22s -> %-22s  %3.0f/%-3.0f\n",
				a.Arc.From, a.Arc.To, 100*a.Accuracy(), 100*a.RefShare)
		}
	}
}
