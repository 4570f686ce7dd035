// Command cosmos-predict captures and scores coherence message traces,
// the two steps of the paper's methodology (Section 5). It simulates a
// benchmark (-app) or loads a saved trace (-in), optionally saves it
// (-o) in the versioned binary format of internal/trace, and then
// either inspects it (-summary, -dump) or evaluates Cosmos predictor
// configurations over it, reporting the paper's accuracy metrics:
// overall / cache-side / directory-side rates, per-iteration
// adaptation, dominant transition arcs, and predictor memory.
//
// Usage:
//
//	cosmos-predict -app dsmc -scale medium -o dsmc.trace  # simulate, save, evaluate
//	cosmos-predict -in dsmc.trace -depth 3 -filter 1 -arcs
//	cosmos-predict -in dsmc.trace -sweep                 # depths 1-4 at once
//	cosmos-predict -in dsmc.trace -summary               # per-type counts
//	cosmos-predict -in dsmc.trace -dump | head           # dump as text
//	cosmos-predict -app dsmc -fault-drop 0.02            # simulate on a lossy wire, then evaluate
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/experiments"
	"github.com/cosmos-coherence/cosmos/internal/faults"
	"github.com/cosmos-coherence/cosmos/internal/stats"
	"github.com/cosmos-coherence/cosmos/internal/trace"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "cosmos-predict:", err)
		os.Exit(1)
	}
}

// run drives the whole command against an explicit argument list and
// writer, so tests can pin the rendered output byte for byte.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cosmos-predict", flag.ContinueOnError)
	var (
		in      = fs.String("in", "", "trace file to load")
		app     = fs.String("app", "", "benchmark to simulate instead of -in (appbt|barnes|dsmc|moldyn|unstructured)")
		scale   = fs.String("scale", "medium", "workload scale for -app: small | medium | full")
		halfMig = fs.Bool("halfmigratory", true, "simulate with the Stache half-migratory optimization")
		inv     = fs.Bool("invariants", false, "simulate with the runtime coherence invariant monitor")
		out     = fs.String("o", "", "write the loaded or simulated trace to this file")
		summary = fs.Bool("summary", false, "print per-message-type and per-side counts instead of evaluating")
		dump    = fs.Bool("dump", false, "dump the trace as text instead of evaluating")
		depth   = fs.Int("depth", 1, "MHR depth (1-4)")
		filter  = fs.Int("filter", 0, "noise filter saturating-counter maximum (0 disables)")
		sweep   = fs.Bool("sweep", false, "evaluate depths 1-4 instead of a single configuration")
		arcs    = fs.Bool("arcs", false, "print the dominant transition arcs per side")
		maxIter = fs.Int("maxiter", 0, "evaluate only the first N application iterations (0 = all)")
		adapt   = fs.Bool("adapt", false, "print the per-iteration accuracy series")
		types   = fs.Bool("types", false, "print accuracy broken down by message type")
	)
	ff := faults.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := experiments.DefaultConfig()
	cfg.Stache.HalfMigratory = *halfMig
	cfg.Machine.Faults = ff.Plan()
	cfg.Machine.Invariants = *inv
	tr, err := load(*in, *app, *scale, cfg)
	if err != nil {
		return err
	}

	if *out != "" {
		if err := save(*out, tr); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d records to %s\n", len(tr.Records), *out)
	}

	if *dump {
		if err := trace.WriteText(stdout, tr); err != nil {
			return err
		}
	}
	if *summary {
		printSummary(stdout, tr)
	}
	if *dump || *summary {
		return nil
	}

	fmt.Fprintf(stdout, "trace: app=%s nodes=%d iterations=%d records=%d\n\n",
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
	fmt.Fprintf(stdout, "%-6s %-7s %8s %10s %8s %10s %10s\n",
		"depth", "filter", "cache", "directory", "overall", "MHR", "PHT")
	for i, res := range results {
		fmt.Fprintf(stdout, "%-6d %-7d %7.1f%% %9.1f%% %7.1f%% %10d %10d\n",
			cfgs[i].Depth, cfgs[i].FilterMax,
			100*res.Cache.Accuracy(), 100*res.Dir.Accuracy(), 100*res.Overall.Accuracy(),
			res.Memory.MHREntries, res.Memory.PHTEntries)
	}
	// -arcs, -types and -adapt report the last (deepest) configuration.
	last := results[len(results)-1]

	if *arcs {
		for _, side := range []trace.Side{trace.CacheSide, trace.DirectorySide} {
			fmt.Fprintf(stdout, "\ndominant arcs at the %s (accuracy / reference share):\n", side)
			for _, a := range last.DominantArcs(side, 10) {
				fmt.Fprintf(stdout, "  %-22s -> %-22s  %5.1f%% / %5.1f%%  (n=%d)\n",
					a.Arc.From, a.Arc.To, 100*a.Accuracy(), 100*a.RefShare, a.Total)
			}
		}
	}

	if *types {
		fmt.Fprintln(stdout, "\naccuracy by message type:")
		for _, ts := range last.ByType() {
			fmt.Fprintf(stdout, "  %-22s %5.1f%%  (%.1f%% of messages)\n",
				ts.Type, 100*ts.Accuracy(), 100*ts.Share)
		}
	}

	if *adapt {
		fmt.Fprintln(stdout, "\nper-iteration accuracy (cumulative messages in parentheses):")
		var cum uint64
		for i, c := range last.PerIter {
			cum += c.Total
			fmt.Fprintf(stdout, "  iter %4d: %5.1f%% (%d)\n", i, 100*c.Accuracy(), cum)
		}
		fmt.Fprintf(stdout, "steady state reached at iteration %d\n", last.SteadyStateIteration(0.01))
	}
	return nil
}

// load returns the trace named by -in, or simulates app at the named
// scale under cfg when in is empty.
func load(in, app, scale string, cfg experiments.Config) (*trace.Trace, error) {
	switch {
	case in != "" && app != "":
		return nil, fmt.Errorf("-in and -app are mutually exclusive")
	case in != "":
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.Read(f)
	case app != "":
		sc, ok := experiments.ScaleFor(scale)
		if !ok {
			return nil, fmt.Errorf("unknown scale %q", scale)
		}
		cfg.Scale = sc
		w, err := workload.ByName(app, cfg.Machine.Nodes, sc)
		if err != nil {
			return nil, err
		}
		return experiments.Run(w, cfg)
	default:
		return nil, fmt.Errorf("need either -in (load a trace) or -app (simulate one); see -h")
	}
}

// save writes tr to path in the binary trace format.
func save(path string, tr *trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.Write(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSummary prints the trace's per-side, per-block and per-type
// counts, the commonest message type first.
func printSummary(w io.Writer, tr *trace.Trace) {
	cache, dir := tr.CountBySide()
	fmt.Fprintf(w, "trace: app=%s nodes=%d iterations=%d records=%d (%d cache / %d directory)\n",
		tr.App, tr.Nodes, tr.Iterations, len(tr.Records), cache, dir)

	counts := map[coherence.MsgType]uint64{}
	blocks := map[coherence.Addr]bool{}
	for _, r := range tr.Records {
		counts[r.Type]++
		blocks[r.Addr] = true
	}
	fmt.Fprintf(w, "distinct blocks: %d\n", len(blocks))

	type kv struct {
		t coherence.MsgType
		n uint64
	}
	var rows []kv
	for t, n := range counts {
		rows = append(rows, kv{t, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].t < rows[j].t // tie-break so output never depends on map order
	})
	fmt.Fprintln(w, "messages by type:")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-22s %10d (%.1f%%)\n", r.t, r.n, 100*float64(r.n)/float64(len(tr.Records)))
	}
}
