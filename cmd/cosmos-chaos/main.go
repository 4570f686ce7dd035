// Command cosmos-chaos fuzzes the coherence protocol: it sweeps seeded
// chaos runs — deterministic fault injection composed with bounded
// delivery-order perturbation — with the runtime invariant monitor
// enabled, shrinks any failing seed to a minimal configuration, and
// writes a replayable repro bundle.
//
// Usage:
//
//	cosmos-chaos                          # sweep 25 seeds, default hostility
//	cosmos-chaos -seeds 100               # the EXPERIMENTS.md clean sweep
//	cosmos-chaos -seeds 25 -quick         # the CI configuration
//	cosmos-chaos -workers 8               # parallel seed sweep (default: all CPUs)
//	cosmos-chaos -spec -seeds 100         # fuzz with all speculative actions armed
//	cosmos-chaos -corrupt dir-owner       # self-check: injected damage must be caught
//	cosmos-chaos -corrupt spec-dangling   # self-check the speculation rules
//	cosmos-chaos -replay bundle.json      # re-execute a repro bundle
//
// Seeds are independent (RunSeed is pure in config and seed), so the
// sweep fans out over a worker pool; results are reassembled and
// reported in seed order, byte-identical for any -workers value.
//
// Exit status: 0 when every seed is clean (or a replay matches), 1 on
// violations, panics, or replay divergence, 2 on usage errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/cosmos-coherence/cosmos/internal/chaos"
	"github.com/cosmos-coherence/cosmos/internal/parallel"
	"github.com/cosmos-coherence/cosmos/internal/prof"
)

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case err == errFailuresFound:
		os.Exit(1)
	default:
		fmt.Fprintln(os.Stderr, "cosmos-chaos:", err)
		os.Exit(2)
	}
}

// errFailuresFound distinguishes "the fuzzer worked and found bugs"
// (exit 1, already reported) from usage errors (exit 2).
var errFailuresFound = fmt.Errorf("failures found")

// run drives the whole command against an explicit argument list and
// writer, so tests can pin the rendered output byte for byte.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cosmos-chaos", flag.ContinueOnError)
	def := chaos.DefaultConfig()
	var (
		seeds    = fs.Int("seeds", 25, "number of consecutive seeds to sweep")
		seed     = fs.Int64("seed", 1, "first seed")
		quick    = fs.Bool("quick", false, "shrink run length for fast CI sweeps")
		nodes    = fs.Int("nodes", def.Nodes, "machine size")
		blocks   = fs.Int("blocks", def.Blocks, "conflict-pool size in cache blocks")
		iters    = fs.Int("iters", def.Iters, "barrier-separated iterations per run")
		accesses = fs.Int("accesses", def.Accesses, "accesses per processor per iteration")
		drop     = fs.Float64("drop", def.Drop, "per-packet drop probability")
		dup      = fs.Float64("dup", def.Dup, "per-packet duplication probability")
		jitter   = fs.Uint64("jitter", def.JitterNs, "max per-packet delivery jitter (ns)")
		perturb  = fs.Uint64("perturb", def.PerturbNs, "max event-scheduling perturbation (ns); 0 disables")
		every    = fs.Uint64("check-every", def.CheckEvery, "invariant sweep cadence in events")
		spec     = fs.Bool("spec", false, "arm the speculation axis: all Table 2 actions, governor-gated, under faults")
		corrupt  = fs.String("corrupt", "", "inject protocol damage: dir-owner | dir-sharer | cache-writer | spec-dangling")
		atNs     = fs.Uint64("corrupt-at", 0, "injection time in ns (0 = default)")
		outDir   = fs.String("o", ".", "directory for repro bundles")
		replay   = fs.String("replay", "", "replay a repro bundle instead of sweeping")
		verbose  = fs.Bool("v", false, "print every seed, not just failures")
		workers  = fs.Int("workers", parallel.DefaultWorkers(), "worker pool size for the seed sweep (1 = serial)")
	)
	pf := prof.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *workers < 1 {
		return fmt.Errorf("-workers must be positive")
	}
	if err := pf.Start(); err != nil {
		return err
	}
	defer func() {
		if err := pf.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "cosmos-chaos:", err)
		}
	}()

	if *replay != "" {
		return replayBundle(stdout, *replay)
	}

	cfg := chaos.Config{
		Nodes:       *nodes,
		Blocks:      *blocks,
		Iters:       *iters,
		Accesses:    *accesses,
		Drop:        *drop,
		Dup:         *dup,
		JitterNs:    *jitter,
		PerturbNs:   *perturb,
		CheckEvery:  *every,
		Spec:        *spec,
		Corrupt:     *corrupt,
		CorruptAtNs: *atNs,
	}
	if *quick {
		cfg = cfg.Quick()
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if *seeds <= 0 {
		return fmt.Errorf("-seeds must be positive")
	}

	// The sweep runs over the worker pool; reporting walks the results
	// in seed order afterwards, so the output matches a serial sweep.
	results := chaos.Sweep(cfg, *seed, *seeds, *workers)

	var ok, stalls int
	var failures []chaos.Result
	for _, res := range results {
		switch {
		case res.Failed():
			failures = append(failures, res)
			fmt.Fprintf(stdout, "seed %d: %s [%s] after %d events\n", res.Seed, res.Outcome, res.Rule, res.Events)
		case res.Outcome == chaos.OutcomeStall:
			stalls++
			fmt.Fprintf(stdout, "seed %d: stall (fault plan too hostile, not counted as a bug)\n", res.Seed)
		default:
			ok++
			if *verbose {
				fmt.Fprintf(stdout, "seed %d: ok (%d events, %d accesses, %d messages)\n",
					res.Seed, res.Events, res.Accesses, res.Messages)
			}
		}
	}
	fmt.Fprintf(stdout, "swept %d seeds: %d ok, %d stalls, %d failures\n", *seeds, ok, stalls, len(failures))

	if len(failures) > 0 {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	for _, f := range failures {
		b := chaos.Reduce(cfg, f, chaos.DefaultShrinkTrials)
		data, err := b.Marshal()
		if err != nil {
			return err
		}
		path := filepath.Join(*outDir, fmt.Sprintf("chaos-seed%d.json", f.Seed))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "seed %d shrunk in %d trials -> %s\n", f.Seed, len(b.ShrinkTrace), path)
		fmt.Fprintf(stdout, "  repro: cosmos-chaos -replay %s\n", path)
		fmt.Fprintf(stdout, "  %s\n", firstLine(b.Diagnostic))
	}
	if len(failures) > 0 {
		return errFailuresFound
	}
	return nil
}

// replayBundle re-executes a repro bundle and verifies the failure
// reproduces byte-identically.
func replayBundle(stdout io.Writer, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	b, err := chaos.ParseBundle(data)
	if err != nil {
		return err
	}
	res, err := chaos.Replay(b)
	if err != nil {
		fmt.Fprintln(stdout, res.Diagnostic)
		fmt.Fprintln(os.Stderr, "cosmos-chaos:", err)
		return errFailuresFound
	}
	fmt.Fprintf(stdout, "replayed seed %d: %s [%s] reproduced byte-identically after %d events\n",
		b.Seed, res.Outcome, res.Rule, res.Events)
	fmt.Fprintln(stdout, res.Diagnostic)
	return nil
}

// firstLine trims a multi-line diagnostic for the sweep summary.
func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}
