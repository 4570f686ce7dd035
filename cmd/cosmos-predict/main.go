// Command cosmos-predict evaluates Cosmos predictor configurations
// over a coherence message trace — either a saved one (produced by
// stache-trace) or one simulated on the fly with -app — reporting the
// paper's accuracy metrics: overall / cache-side / directory-side
// rates, per-iteration adaptation, dominant transition arcs, and
// predictor memory.
//
// Usage:
//
//	stache-trace -app dsmc -scale medium -o dsmc.trace
//	cosmos-predict -in dsmc.trace -depth 3 -filter 1 -arcs
//	cosmos-predict -in dsmc.trace -sweep            # depths 1-4 at once
//	cosmos-predict -app dsmc -fault-drop 0.02       # simulate on a lossy wire, then evaluate
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/experiments"
	"github.com/cosmos-coherence/cosmos/internal/faults"
	"github.com/cosmos-coherence/cosmos/internal/stats"
	"github.com/cosmos-coherence/cosmos/internal/trace"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cosmos-predict:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in      = flag.String("in", "", "trace file to evaluate")
		app     = flag.String("app", "", "benchmark to simulate and evaluate instead of -in")
		scale   = flag.String("scale", "medium", "workload scale for -app: small | medium | full")
		depth   = flag.Int("depth", 1, "MHR depth (1-4)")
		filter  = flag.Int("filter", 0, "noise filter saturating-counter maximum (0 disables)")
		sweep   = flag.Bool("sweep", false, "evaluate depths 1-4 instead of a single configuration")
		arcs    = flag.Bool("arcs", false, "print the dominant transition arcs per side")
		maxIter = flag.Int("maxiter", 0, "evaluate only the first N application iterations (0 = all)")
		adapt   = flag.Bool("adapt", false, "print the per-iteration accuracy series")
		types   = flag.Bool("types", false, "print accuracy broken down by message type")
		inv     = flag.Bool("invariants", false, "simulate with the runtime coherence invariant monitor")
	)
	ff := faults.AddFlags(flag.CommandLine)
	flag.Parse()

	var tr *trace.Trace
	switch {
	case *in != "" && *app != "":
		return fmt.Errorf("-in and -app are mutually exclusive")
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		tr, err = trace.Read(f)
		if err != nil {
			return err
		}
	case *app != "":
		cfg := experiments.DefaultConfig()
		sc, ok := experiments.ScaleFor(*scale)
		if !ok {
			return fmt.Errorf("unknown scale %q", *scale)
		}
		cfg.Scale = sc
		cfg.Machine.Faults = ff.Plan()
		cfg.Machine.Invariants = *inv
		w, err := workload.ByName(*app, cfg.Machine.Nodes, sc)
		if err != nil {
			return err
		}
		tr, err = experiments.Run(w, cfg)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("need either -in (load a trace) or -app (simulate one); see -h")
	}
	fmt.Printf("trace: app=%s nodes=%d iterations=%d records=%d\n\n",
		tr.App, tr.Nodes, tr.Iterations, len(tr.Records))

	cfgs := []core.Config{{Depth: *depth, FilterMax: *filter}}
	if *sweep {
		cfgs = nil
		for d := 1; d <= 4; d++ {
			cfgs = append(cfgs, core.Config{Depth: d, FilterMax: *filter})
		}
	}
	// One walk of the trace evaluates every configuration.
	results, err := stats.EvaluateAll(tr, cfgs,
		stats.Options{TrackArcs: *arcs, MaxIterations: *maxIter})
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %-7s %8s %10s %8s %10s %10s\n",
		"depth", "filter", "cache", "directory", "overall", "MHR", "PHT")
	for i, res := range results {
		fmt.Printf("%-6d %-7d %7.1f%% %9.1f%% %7.1f%% %10d %10d\n",
			cfgs[i].Depth, cfgs[i].FilterMax,
			100*res.Cache.Accuracy(), 100*res.Dir.Accuracy(), 100*res.Overall.Accuracy(),
			res.Memory.MHREntries, res.Memory.PHTEntries)
	}
	// -arcs, -types and -adapt report the last (deepest) configuration.
	last := results[len(results)-1]

	if *arcs {
		for _, side := range []trace.Side{trace.CacheSide, trace.DirectorySide} {
			fmt.Printf("\ndominant arcs at the %s (accuracy / reference share):\n", side)
			for _, a := range last.DominantArcs(side, 10) {
				fmt.Printf("  %-22s -> %-22s  %5.1f%% / %5.1f%%  (n=%d)\n",
					a.Arc.From, a.Arc.To, 100*a.Accuracy(), 100*a.RefShare, a.Total)
			}
		}
	}

	if *types {
		fmt.Println("\naccuracy by message type:")
		for _, ts := range last.ByType() {
			fmt.Printf("  %-22s %5.1f%%  (%.1f%% of messages)\n",
				ts.Type, 100*ts.Accuracy(), 100*ts.Share)
		}
	}

	if *adapt {
		fmt.Println("\nper-iteration accuracy (cumulative messages in parentheses):")
		var cum uint64
		for i, c := range last.PerIter {
			cum += c.Total
			fmt.Printf("  iter %4d: %5.1f%% (%d)\n", i, 100*c.Accuracy(), cum)
		}
		fmt.Printf("steady state reached at iteration %d\n", last.SteadyStateIteration(0.01))
	}
	return nil
}
