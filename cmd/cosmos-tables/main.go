// Command cosmos-tables regenerates the tables and figures of the
// paper's evaluation (Section 6) from scratch: it simulates the five
// benchmarks on the Table 3 machine under the Stache protocol, runs
// Cosmos predictor variants over the captured message traces, and
// prints each table in the paper's layout.
//
// Usage:
//
//	cosmos-tables                      # everything, full scale
//	cosmos-tables -table 5             # one table (3,4,5,6,7,8)
//	cosmos-tables -figure 6            # one figure (5,6,7,8)
//	cosmos-tables -extra latency       # latency | adapt | directed | halfmig | filterdepth | variants | replacement | accelerate | pag | states | forwarding | faultsweep | scalesweep
//	cosmos-tables -scale medium        # small | medium | full
//	cosmos-tables -nodes 256           # machine size (with -extra scalesweep: comma-separated axis, e.g. -nodes 16,64,256,1024)
//	cosmos-tables -dir-format limited  # directory sharer-set format: full-map | limited | coarse
//	cosmos-tables -topology mesh       # interconnect: all-to-all | mesh | torus
//	cosmos-tables -workers 8           # worker pool size (default: all CPUs; 1 = serial)
//	cosmos-tables -trace-cache dir     # reuse simulated traces across runs (content-addressed)
//	cosmos-tables -trace-cache dir -warm-cache   # populate the cache and exit
//	cosmos-tables -fault-drop 0.01     # simulate on a lossy wire (with -fault-dup, -fault-jitter, -fault-seed)
//	cosmos-tables -cpuprofile cpu.out  # write pprof profiles (with -memprofile)
//
// The worker pool shards independent experiment cells (app × config
// sweep points) across goroutines and reassembles results in a fixed
// order, so output is byte-identical for every -workers value.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/experiments"
	"github.com/cosmos-coherence/cosmos/internal/faults"
	"github.com/cosmos-coherence/cosmos/internal/parallel"
	"github.com/cosmos-coherence/cosmos/internal/prof"
	"github.com/cosmos-coherence/cosmos/internal/report"
	"github.com/cosmos-coherence/cosmos/internal/stache"
	"github.com/cosmos-coherence/cosmos/internal/topology"
)

// extraNames lists the -extra experiments for the flag help and the
// name validation. Each name is spelled again where run renders it
// (the scalesweep branch, or a wantX call); TestSingleSelections checks
// that every one of them renders a block of the default output.
var extraNames = []string{
	"latency", "adapt", "directed", "halfmig", "filterdepth", "variants",
	"replacement", "accelerate", "pag", "states", "forwarding", "faultsweep",
	"scalesweep",
}

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cosmos-tables:", err)
		os.Exit(1)
	}
}

// run drives the whole command against an explicit writer and argument
// list, so tests can assert the rendered output byte for byte (the
// worker-pool invariance test depends on that).
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("cosmos-tables", flag.ContinueOnError)
	var (
		table   = fs.Int("table", 0, "render one table (3, 4, 5, 6, 7, or 8); 0 = all")
		figure  = fs.Int("figure", 0, "render one figure (5, 6, 7, or 8); 0 = all")
		extra   = fs.String("extra", "", "extra experiment: "+strings.Join(extraNames, " | "))
		scale   = fs.String("scale", "full", "workload scale: small | medium | full")
		inv     = fs.Bool("invariants", false, "run every simulation with the runtime coherence invariant monitor")
		workers = fs.Int("workers", parallel.DefaultWorkers(), "worker pool size for independent experiment cells (1 = serial)")
		tcache  = fs.String("trace-cache", "", "directory for the content-addressed trace cache (reuse simulated traces across runs)")
		warm    = fs.Bool("warm-cache", false, "simulate and cache every benchmark trace, then exit (requires -trace-cache)")
		nodes   = fs.String("nodes", "", "machine node count; with -extra scalesweep, a comma-separated sweep axis (e.g. 16,64,256,1024)")
		dirFmt  = fs.String("dir-format", "", "directory sharer-set format: full-map | limited | coarse (default: full-map)")
		topo    = fs.String("topology", "", "interconnect topology: all-to-all | mesh | torus (default: ideal all-to-all)")
	)
	ff := faults.AddFlags(fs)
	pf := prof.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *workers < 1 {
		return fmt.Errorf("-workers must be positive")
	}
	// The effective width goes to stderr, never into the rendered
	// tables: stdout is byte-identical across every -workers value (the
	// regression tests pin that), and this line is exactly the kind of
	// environment-dependent detail that would break it.
	if eff := parallel.Effective(*workers); eff != *workers {
		fmt.Fprintf(os.Stderr, "cosmos-tables: workers: requested %d, effective %d (pool self-caps at GOMAXPROCS)\n",
			*workers, eff)
	} else {
		fmt.Fprintf(os.Stderr, "cosmos-tables: workers: %d\n", eff)
	}
	if err := pf.Start(); err != nil {
		return err
	}
	defer func() {
		if err := pf.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "cosmos-tables:", err)
		}
	}()

	cfg := experiments.DefaultConfig()
	cfg.Machine.Faults = ff.Plan()
	cfg.Machine.Invariants = *inv
	cfg.Workers = *workers
	sc, ok := experiments.ScaleFor(*scale)
	if !ok {
		return fmt.Errorf("unknown scale %q", *scale)
	}
	if *table != 0 && (*table < 3 || *table > 8) {
		return fmt.Errorf("no table %d in the paper's evaluation (want 3-8)", *table)
	}
	if *figure != 0 && (*figure < 5 || *figure > 8) {
		return fmt.Errorf("no figure %d in the paper's evaluation (want 5-8)", *figure)
	}
	if *extra != "" && !slices.Contains(extraNames, *extra) {
		return fmt.Errorf("unknown extra %q (want one of %s)", *extra, strings.Join(extraNames, " | "))
	}
	var sweepNodes []int
	if *nodes != "" {
		for _, s := range strings.Split(*nodes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 2 {
				return fmt.Errorf("-nodes: %q is not a node count", s)
			}
			sweepNodes = append(sweepNodes, n)
		}
		if len(sweepNodes) == 1 {
			cfg.Machine.Nodes = sweepNodes[0]
		} else if *extra != "scalesweep" {
			return fmt.Errorf("-nodes with multiple values is the scalesweep axis; use -extra scalesweep")
		}
	}
	var sweepFormats []stache.DirectoryFormat
	if *dirFmt != "" {
		f, err := stache.ParseDirFormat(*dirFmt)
		if err != nil {
			return err
		}
		cfg.Stache.DirFormat = f
		sweepFormats = []stache.DirectoryFormat{f}
	}
	if *topo != "" {
		if _, err := topology.Parse(*topo); err != nil {
			return err
		}
		cfg.Machine.Topology = *topo
	}
	cfg.Scale = sc
	cfg.TraceCache = *tcache
	suite := experiments.NewSuite(cfg)

	// The scalesweep simulates the whole benchmark suite at every
	// (node count, directory format) point — roughly ten machine shapes
	// with the default axis — so it runs only on explicit request, never
	// as part of the render-everything default.
	if *extra == "scalesweep" {
		rows, err := experiments.ScaleSweep(suite, sweepNodes, sweepFormats)
		if err != nil {
			return err
		}
		report.ScaleSweep(w, rows)
		fmt.Fprintln(w)
		return nil
	}

	if *warm {
		if *tcache == "" {
			return fmt.Errorf("-warm-cache requires -trace-cache")
		}
		// Prefetch simulates (or cache-loads) every benchmark; Trace
		// stores each fresh capture, so this leaves the cache complete.
		return suite.Prefetch()
	}

	// The table drivers share the five benchmark traces; simulate them
	// concurrently up front when more than one consumer will need them.
	if *table == 0 && *figure == 0 && *extra == "" {
		if err := suite.Prefetch(); err != nil {
			return err
		}
	}

	specific := *table != 0 || *figure != 0 || *extra != ""

	all := !specific
	wantT := func(n int) bool { return all || *table == n }
	wantF := func(n int) bool { return all || *figure == n }
	wantX := func(s string) bool { return all || *extra == s }

	if wantT(3) {
		report.Table3(w, cfg)
		fmt.Fprintln(w)
	}
	if wantT(4) {
		report.Table4(w, cfg)
		fmt.Fprintln(w)
	}
	if wantF(5) {
		fig, err := experiments.RunFigure5()
		if err != nil {
			return err
		}
		report.Figure5(w, fig)
		fmt.Fprintln(w)
	}
	if wantT(5) {
		rows, err := experiments.Table5(suite)
		if err != nil {
			return err
		}
		report.Table5(w, rows)
		fmt.Fprintln(w)
	}
	if wantT(6) {
		rows, err := experiments.Table6(suite)
		if err != nil {
			return err
		}
		report.Table6(w, rows)
		fmt.Fprintln(w)
	}
	if wantT(7) {
		rows, err := experiments.Table7(suite)
		if err != nil {
			return err
		}
		report.Table7(w, rows)
		fmt.Fprintln(w)
	}
	if wantT(8) {
		cells, err := experiments.Table8(suite)
		if err != nil {
			return err
		}
		report.Table8(w, cells)
		fmt.Fprintln(w)
	}
	if wantF(6) || wantF(7) {
		figApps := map[int][]string{6: {"appbt", "barnes", "dsmc"}, 7: {"moldyn", "unstructured"}}
		var apps []string
		for _, n := range []int{6, 7} {
			if wantF(n) {
				apps = append(apps, figApps[n]...)
			}
		}
		panels, err := experiments.SignaturePanels(suite, apps, 8)
		if err != nil {
			return err
		}
		for i, app := range apps {
			report.Signatures(w, app, panels[i])
			fmt.Fprintln(w)
		}
	}
	if wantF(8) {
		res, err := experiments.RunFigure8(suite)
		if err != nil {
			return err
		}
		report.Figure8(w, res)
		fmt.Fprintln(w)
	}
	if wantX("latency") {
		rows, err := experiments.LatencySweep(suite, []uint64{40, 200, 1000})
		if err != nil {
			return err
		}
		report.Latency(w, rows)
		fmt.Fprintln(w)
	}
	if wantX("adapt") {
		rows, err := experiments.TimeToAdapt(suite, 0.025)
		if err != nil {
			return err
		}
		report.Adapt(w, rows)
		fmt.Fprintln(w)
	}
	if wantX("directed") {
		rows, err := experiments.DirectedComparison(suite)
		if err != nil {
			return err
		}
		report.DirectedComparison(w, rows)
		fmt.Fprintln(w)
	}
	if wantX("halfmig") {
		rows, err := experiments.HalfMigratoryAblation(suite)
		if err != nil {
			return err
		}
		report.Ablation(w, rows)
		fmt.Fprintln(w)
	}
	if wantX("variants") {
		rows, err := experiments.Variants(suite)
		if err != nil {
			return err
		}
		report.Variants(w, rows)
		fmt.Fprintln(w)
	}
	if wantX("accelerate") {
		rows, err := experiments.AccelerateBenchmarks(suite, core.Config{Depth: 1})
		if err != nil {
			return err
		}
		report.Accelerate(w, rows)
		fmt.Fprintln(w)
	}
	if wantX("replacement") {
		rows, err := experiments.Replacement(suite, 256, 2)
		if err != nil {
			return err
		}
		report.Replacement(w, rows)
		fmt.Fprintln(w)
	}
	if wantX("pag") {
		rows, err := experiments.PApVsPAg(suite, 1)
		if err != nil {
			return err
		}
		report.PApVsPAg(w, rows)
		fmt.Fprintln(w)
	}
	if wantX("forwarding") {
		rows, err := experiments.ForwardingComparison(suite)
		if err != nil {
			return err
		}
		report.Forwarding(w, rows)
		fmt.Fprintln(w)
	}
	if wantX("states") {
		rows, err := experiments.StateEquivalence(suite)
		if err != nil {
			return err
		}
		report.StateEquivalence(w, rows)
		fmt.Fprintln(w)
	}
	if wantX("faultsweep") {
		rows, err := experiments.FaultSweep(suite, []float64{0, 0.01, 0.02, 0.05}, ff.Plan().Seed)
		if err != nil {
			return err
		}
		report.FaultSweep(w, rows)
		fmt.Fprintln(w)
	}
	if wantX("filterdepth") {
		cells, err := experiments.FilterDepth(suite)
		if err != nil {
			return err
		}
		report.FilterDepth(w, cells)
		fmt.Fprintln(w)
	}
	return nil
}
