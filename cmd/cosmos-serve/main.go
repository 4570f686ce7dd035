// Command cosmos-serve exercises the crash-recoverable online
// prediction service (internal/serve) from the command line, in two
// modes:
//
// Chaos mode (default) sweeps seeded kill-and-restore runs: each seed
// deploys the service over a lossy wire, kills it at seed-derived
// instants (tearing the WAL's unsynced tail the way a power cut
// would), restarts it from the durable store, and verifies the
// completed run byte-for-byte against a transport-free oracle replay.
// Corruption modes damage the store between kill and restart to
// self-check that recovery's integrity errors fire with the right
// class.
//
// Load mode (-load N) runs one uninterrupted deployment as a load
// generator and reports simulated throughput and response-latency
// percentiles, optionally gating them against SLO thresholds.
//
// Usage:
//
//	cosmos-serve                          # sweep 25 kill-and-restore seeds
//	cosmos-serve -seeds 100               # the EXPERIMENTS.md sweep
//	cosmos-serve -corrupt snapshot        # self-check: damage must be caught (exit 1)
//	cosmos-serve -corrupt wal             # ... as ErrWALCorrupt
//	cosmos-serve -corrupt version         # ... as ErrVersion
//	cosmos-serve -load 2000 -streams 8    # load generator with SLO report
//	cosmos-serve -load 2000 -max-p99 100000 -min-tput 1e6
//
// Exit status: 0 when every seed is clean (or the SLO holds), 1 on
// violations, undetected corruption, or SLO breach, 2 on usage errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"github.com/cosmos-coherence/cosmos/internal/chaos"
	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/faults"
	"github.com/cosmos-coherence/cosmos/internal/parallel"
	"github.com/cosmos-coherence/cosmos/internal/prof"
	"github.com/cosmos-coherence/cosmos/internal/serve"
	"github.com/cosmos-coherence/cosmos/internal/sim"
)

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case err == errFailuresFound:
		os.Exit(1)
	default:
		fmt.Fprintln(os.Stderr, "cosmos-serve:", err)
		os.Exit(2)
	}
}

// errFailuresFound distinguishes "the sweep worked and found problems"
// (exit 1, already reported) from usage errors (exit 2).
var errFailuresFound = fmt.Errorf("failures found")

// run drives the whole command against an explicit argument list and
// writer, so tests can pin the rendered output byte for byte.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cosmos-serve", flag.ContinueOnError)
	def := chaos.DefaultServeConfig()
	var (
		seeds    = fs.Int("seeds", 25, "number of consecutive seeds to sweep")
		seed     = fs.Int64("seed", 1, "first seed")
		streams  = fs.Int("streams", def.Streams, "client stream count")
		obs      = fs.Int("obs", def.Obs, "observations per stream")
		kills    = fs.Int("kills", def.Kills, "kill-and-restore cycles per seed")
		snapshot = fs.Int("snapshot-every", def.SnapshotEvery, "server checkpoint cadence in observations")
		drop     = fs.Float64("drop", def.Drop, "per-packet drop probability")
		dup      = fs.Float64("dup", def.Dup, "per-packet duplication probability")
		jitter   = fs.Uint64("jitter", def.JitterNs, "max per-packet delivery jitter (ns)")
		corrupt  = fs.String("corrupt", "", "inject store damage between kill and restart: snapshot | wal | version")
		load     = fs.Int("load", 0, "load-generator mode: run one deployment with this many observations per stream")
		depth    = fs.Int("depth", 2, "predictor MHR depth for load mode")
		gap      = fs.Uint64("gap", 0, "load mode per-stream inter-observation pacing (ns); 0 derives a sustainable rate from -streams")
		maxP99   = fs.Uint64("max-p99", 0, "load mode SLO: fail if p99 response latency exceeds this (ns); 0 disables")
		minTput  = fs.Float64("min-tput", 0, "load mode SLO: fail if simulated throughput falls below this (obs/s); 0 disables")
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
			fmt.Fprintln(os.Stderr, "cosmos-serve:", err)
		}
	}()

	if *load > 0 {
		return loadRun(stdout, *seed, *streams, *load, *depth, *snapshot, *drop, *dup, *jitter, *gap, *maxP99, *minTput)
	}

	cfg := chaos.ServeConfig{
		Streams:       *streams,
		Obs:           *obs,
		Kills:         *kills,
		SnapshotEvery: *snapshot,
		Drop:          *drop,
		Dup:           *dup,
		JitterNs:      *jitter,
		Corrupt:       *corrupt,
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if *seeds <= 0 {
		return fmt.Errorf("-seeds must be positive")
	}

	results := chaos.ServeSweep(cfg, *seed, *seeds, *workers)
	var ok, stalls, failures int
	var wrongClass []chaos.Result
	for _, res := range results {
		switch {
		case res.Failed():
			failures++
			fmt.Fprintf(stdout, "seed %d: %s [%s] %s\n", res.Seed, res.Outcome, res.Rule, firstLine(res.Diagnostic))
		case res.Outcome == chaos.OutcomeStall:
			stalls++
			fmt.Fprintf(stdout, "seed %d: stall (fault plan too hostile, not counted as a bug)\n", res.Seed)
		case res.Outcome == chaos.OutcomeError:
			wrongClass = append(wrongClass, res)
			fmt.Fprintf(stdout, "seed %d: error: %s\n", res.Seed, firstLine(res.Diagnostic))
		default:
			ok++
			if *verbose {
				fmt.Fprintf(stdout, "seed %d: ok (%d events, %d applied, %d checkpoints)\n",
					res.Seed, res.Events, res.Accesses, res.Messages)
			}
		}
	}
	fmt.Fprintf(stdout, "swept %d seeds: %d ok, %d stalls, %d failures\n", *seeds, ok, stalls, failures)

	if *corrupt != "" {
		// Self-check semantics: every seed must have DETECTED the damage
		// (a "violation" with the detection rule). Clean runs mean the
		// corruption slipped through — the alarming case — and wrong
		// error classes break the loud-and-distinct contract.
		if len(wrongClass) > 0 {
			return fmt.Errorf("%d seeds detected %q damage with the wrong error class", len(wrongClass), *corrupt)
		}
		if failures != *seeds {
			return fmt.Errorf("injected %q damage went undetected in %d of %d seeds", *corrupt, *seeds-failures, *seeds)
		}
		fmt.Fprintf(stdout, "self-check: %q damage detected with the correct error class in all %d seeds\n", *corrupt, *seeds)
		return errFailuresFound
	}
	if len(wrongClass) > 0 {
		return fmt.Errorf("%d seeds failed to run", len(wrongClass))
	}
	if failures > 0 {
		return errFailuresFound
	}
	return nil
}

// loadRun is the load-generator mode: one uninterrupted deployment,
// reported as simulated throughput and latency percentiles.
func loadRun(w io.Writer, seed int64, streams, obs, depth, snapshot int, drop, dup float64, jitter, gap, maxP99 uint64, minTput float64) error {
	dir, err := os.MkdirTemp("", "cosmos-serve-load-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if gap == 0 {
		// The server serves one entry per 50ns (the ProcessNs default),
		// so N streams must each pace at ≥ 50N ns just to break even.
		// Default to twice that: half-capacity offered load, which keeps
		// the queue shallow and the latency numbers meaningful. A gap
		// that overloads the server sheds and stalls the run — that
		// regime belongs to the backpressure tests, not the SLO gate.
		gap = uint64(100 * streams)
	}
	workload := serve.GenWorkload(seed, streams, obs)
	c, err := serve.NewCluster(serve.HarnessConfig{
		Dir: dir,
		Server: serve.Config{
			Predictor:     core.Config{Depth: depth, FilterMax: 1},
			SnapshotEvery: snapshot,
		},
		Plan:  faults.Plan{Seed: uint64(seed) + 1, DropProb: drop, DupProb: dup, JitterNs: jitter},
		GapNs: sim.Time(gap),
	}, workload)
	if err != nil {
		return err
	}
	if err := c.Run(); err != nil {
		return err
	}

	var lats []uint64
	for _, cl := range c.Clients {
		lats = append(lats, cl.LatNs...)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	st := c.Srv.Stats()
	elapsed := c.Eng.Now()
	tput := float64(st.Applied) / float64(elapsed) * 1e9
	pct := func(p float64) uint64 {
		if len(lats) == 0 {
			return 0
		}
		i := int(p * float64(len(lats)-1))
		return lats[i]
	}
	fmt.Fprintf(w, "load: %d streams x %d obs over %d simulated ns\n", streams, obs, elapsed)
	fmt.Fprintf(w, "  applied %d, pred hits %d, checkpoints %d, max queue depth %d\n",
		st.Applied, st.PredHits, st.Checkpoints, st.MaxQueueDepth)
	fmt.Fprintf(w, "  throughput %.0f obs/s (simulated)\n", tput)
	fmt.Fprintf(w, "  latency p50 %d ns, p90 %d ns, p99 %d ns, max %d ns (%d samples)\n",
		pct(0.50), pct(0.90), pct(0.99), pct(1.0), len(lats))

	breached := false
	if maxP99 > 0 && pct(0.99) > maxP99 {
		fmt.Fprintf(w, "SLO BREACH: p99 %d ns > %d ns\n", pct(0.99), maxP99)
		breached = true
	}
	if minTput > 0 && tput < minTput {
		fmt.Fprintf(w, "SLO BREACH: throughput %.0f obs/s < %.0f obs/s\n", tput, minTput)
		breached = true
	}
	if breached {
		return errFailuresFound
	}
	fmt.Fprintln(w, "SLO: ok")
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
