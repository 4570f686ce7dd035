// Command cosmos-accelerate runs a workload twice — under plain Stache
// and under Stache with Cosmos-driven protocol actions (Section 4) —
// and reports the message and runtime differences.
//
// Four Table 2 actions are available:
//
//	rmw        directories answer a read with an exclusive copy when the
//	           reader's upgrade is predicted next (helps migratory sharing)
//	dsi        caches return exclusive blocks to the directory when an
//	           inval_rw_request is predicted next (helps producer-consumer)
//	downgrade  directories fetch an exclusive block back ahead of a
//	           predicted third-party read (speculative downgrade,
//	           ProtocolRollback: the expectation is discarded if wrong)
//	forward    directories push a block to the predicted next reader
//	           before it asks (producer push, ProtocolRollback: unclaimed
//	           copies are discarded)
//	all        the per-app table: every action, governor-gated, one row
//	           each — the Tables 6/7-style summary for protocol actions
//
// Usage:
//
//	cosmos-accelerate -action rmw -app moldyn -scale medium
//	cosmos-accelerate -action dsi -app producer-consumer
//	cosmos-accelerate -action downgrade -app migratory -depth 2
//	cosmos-accelerate -action all -app micros
//	cosmos-accelerate -action all -app benchmarks -scale small -workers 8
//	cosmos-accelerate -action rmw -app moldyn -fault-drop 0.02 -fault-seed 7
//
// The rollback actions (downgrade, forward) and the table mode run
// through the speculation governor: per-block confidence counters plus
// the global misprediction circuit breaker, so a workload the oracle
// cannot learn degrades to the base protocol instead of thrashing.
//
// The -fault-* flags (drop, dup, jitter, seed) inject deterministic
// network faults into both runs, as in the other cosmos tools. The
// table mode fans its independent (app, action) cells over -workers
// goroutines; output is byte-identical for any worker count.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/experiments"
	"github.com/cosmos-coherence/cosmos/internal/faults"
	"github.com/cosmos-coherence/cosmos/internal/governor"
	"github.com/cosmos-coherence/cosmos/internal/parallel"
	"github.com/cosmos-coherence/cosmos/internal/sim"
	"github.com/cosmos-coherence/cosmos/internal/speculate"
	"github.com/cosmos-coherence/cosmos/internal/stache"
	"github.com/cosmos-coherence/cosmos/internal/stats"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cosmos-accelerate:", err)
		os.Exit(1)
	}
}

var (
	microNames = []string{"migratory", "producer-consumer", "read-modify-write"}
	benchNames = []string{"appbt", "barnes", "dsmc", "moldyn", "unstructured"}
	// tableRows is the fixed row order of the -action all table: each
	// action in isolation, then the composed stack — producer push in
	// particular only has a trigger window after a writeback, so it
	// mostly shows up composed with self-invalidation, as in the paper's
	// Table 2 discussion.
	tableRows = []tableRow{
		{"rmw", speculate.Actions{RMW: true}},
		{"dsi", speculate.Actions{DSI: true}},
		{"downgrade", speculate.Actions{Downgrade: true}},
		{"forward", speculate.Actions{Forward: true}},
		{"all", speculate.AllActions()},
	}
)

// tableRow names one action set of the -action all table; single looks
// its -action up here too.
type tableRow struct {
	label string
	acts  speculate.Actions
}

// specOptions arms the protocol's speculative state for every run: the
// option changes nothing until Attach wires a rollback action in.
func specOptions() stache.Options {
	o := stache.DefaultOptions()
	o.Speculation = true
	return o
}

// tableGov is the governor configuration the table and the gated single
// actions run under: one verified prediction admits a block (the micro
// workloads are short), and the breaker tolerates the cold-start miss
// burst (TripRate 0.75) while still halting pathological streams.
func tableGov() governor.Config {
	return governor.Config{
		CounterMax:  3,
		Threshold:   1,
		Window:      32,
		TripRate:    0.75,
		Cooldown:    32,
		ProbeStreak: 2,
	}
}

// run drives the whole command against an explicit writer and argument
// list, so tests can assert the rendered output byte for byte (the
// worker-pool invariance test depends on that).
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("cosmos-accelerate", flag.ContinueOnError)
	var (
		action  = fs.String("action", "rmw", "protocol action: rmw | dsi | downgrade | forward | all")
		appName = fs.String("app", "migratory", "workload: one of the five benchmarks, migratory | producer-consumer | read-modify-write, or a group: micros | benchmarks")
		scale   = fs.String("scale", "medium", "benchmark scale: small | medium | full (micro workloads ignore this)")
		depth   = fs.Int("depth", 1, "oracle MHR depth (1-4)")
		iters   = fs.Int("iters", 40, "micro-workload iterations")
		blocks  = fs.Int("blocks", 32, "micro-workload shared blocks")
		inv     = fs.Bool("invariants", false, "simulate with the runtime coherence invariant monitor")
		workers = fs.Int("workers", parallel.DefaultWorkers(), "worker pool size for the table's (app, action) cells (1 = serial)")
		tcache  = fs.String("trace-cache", "", "trace cache directory; benchmark apps also report offline prediction accuracy from the cached trace")
	)
	ff := faults.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *iters < 1 || *blocks < 1 {
		return fmt.Errorf("-iters and -blocks must be positive (got %d, %d)", *iters, *blocks)
	}
	if *workers < 1 {
		return fmt.Errorf("-workers must be positive")
	}
	// Stderr, not w: rendered output stays byte-identical across
	// -workers values; the effective width is operator feedback only.
	if eff := parallel.Effective(*workers); eff != *workers {
		fmt.Fprintf(os.Stderr, "cosmos-accelerate: workers: requested %d, effective %d (pool self-caps at GOMAXPROCS)\n",
			*workers, eff)
	}
	mcfg := sim.DefaultConfig()
	mcfg.Faults = ff.Plan()
	mcfg.Invariants = *inv
	pcfg := core.Config{Depth: *depth}
	if err := pcfg.Validate(); err != nil {
		return err
	}

	if *action == "all" {
		apps, err := appGroup(*appName)
		if err != nil {
			return err
		}
		return table(w, apps, *scale, mcfg, pcfg, *iters, *blocks, *workers)
	}
	return single(w, *action, *appName, *scale, mcfg, pcfg, *iters, *blocks, *tcache)
}

// single runs one action on one app and prints the two-column
// comparison. rmw and dsi run ungated (the paper's NoRecovery
// demonstrations); downgrade and forward run the rollback machinery
// through the governor.
func single(w io.Writer, action, appName, scale string, mcfg sim.Config, pcfg core.Config, iters, blocks int, tcache string) error {
	i := slices.IndexFunc(tableRows, func(r tableRow) bool { return r.label == action })
	if i < 0 {
		return fmt.Errorf("unknown action %q (want rmw, dsi, downgrade, forward, or all)", action)
	}
	app, err := buildApp(appName, scale, mcfg, iters, blocks)
	if err != nil {
		return err
	}
	acfg := speculate.AttachConfig{Actions: tableRows[i].acts, Predictor: pcfg}
	gated := acfg.Actions.Downgrade || acfg.Actions.Forward
	if gated {
		gov := tableGov()
		acfg.Governor = &gov
	}
	cmp, err := speculate.AccelerateActions(app, mcfg, specOptions(), acfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "workload %s, action %s, oracle depth %d\n\n", appName, action, pcfg.Depth)
	fmt.Fprintf(w, "%-22s %14s %14s\n", "", "baseline", "accelerated")
	fmt.Fprintf(w, "%-22s %14d %14d\n", "network messages", cmp.Baseline.Messages, cmp.Accelerated.Messages)
	fmt.Fprintf(w, "%-22s %14d %14d\n", "upgrade_requests", cmp.Baseline.UpgradeRequests, cmp.Accelerated.UpgradeRequests)
	fmt.Fprintf(w, "%-22s %14d %14d\n", "invalidations", cmp.Baseline.Invalidations, cmp.Accelerated.Invalidations)
	fmt.Fprintf(w, "%-22s %14v %14v\n", "simulated time", cmp.Baseline.FinalTime, cmp.Accelerated.FinalTime)
	fmt.Fprintf(w, "%-22s %14s %14d\n", "actions taken", "-", cmp.Accelerated.Speculations)
	if gated {
		a := cmp.Accelerated
		fmt.Fprintf(w, "%-22s %14s %14d\n", "spec fetches", "-", a.SpecFetches)
		fmt.Fprintf(w, "%-22s %14s %14d\n", "spec pushes", "-", a.SpecPushes)
		fmt.Fprintf(w, "%-22s %14s %14s\n", "pushes claimed/dropped", "-",
			fmt.Sprintf("%d/%d", a.SpecClaims, a.SpecDiscards))
		fmt.Fprintf(w, "%-22s %14s %14s\n", "governor", "-",
			fmt.Sprintf("%s(%d trips)", a.GovState, a.GovTrips))
		fmt.Fprintf(w, "%-22s %14s %14s\n", "end state vs base", "-", digestTag(cmp))
	}
	fmt.Fprintf(w, "\nmessage reduction %.1f%%, runtime reduction %.1f%%\n",
		100*cmp.MessageReduction(), 100*cmp.TimeReduction())

	// For the five benchmarks, also report the oracle's offline
	// prediction accuracy over the captured (and, with -trace-cache,
	// cached) baseline trace — context for how much headroom the
	// protocol actions had.
	if isBenchmark(appName) {
		sc, _ := experiments.ScaleFor(scale)
		ecfg := experiments.Config{Scale: sc, Machine: mcfg, Stache: stache.DefaultOptions(), TraceCache: tcache}
		res, err := experiments.NewSuite(ecfg).Evaluate(appName, pcfg, stats.Options{})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "offline prediction accuracy on the baseline trace: %.1f%%\n",
			100*res.Overall.Accuracy())
	}
	return nil
}

// table renders the per-app action table: each cell runs the app with
// exactly one action enabled through the governor and compares it with
// the base protocol. Cells are independent, so they fan out over the
// worker pool; rows are assembled in fixed order afterwards.
func table(w io.Writer, apps []string, scale string, mcfg sim.Config, pcfg core.Config, iters, blocks, workers int) error {
	type cell struct {
		app string
		row int
	}
	var cells []cell
	for _, a := range apps {
		// Validate each app up front, serially: buildApp errors should
		// surface as usage errors, not mid-sweep failures.
		if _, err := buildApp(a, scale, mcfg, iters, blocks); err != nil {
			return err
		}
		for r := range tableRows {
			cells = append(cells, cell{app: a, row: r})
		}
	}

	gov := tableGov()
	results, err := parallel.Map(len(cells), workers, func(i int) (*speculate.Comparison, error) {
		c := cells[i]
		app, err := buildApp(c.app, scale, mcfg, iters, blocks)
		if err != nil {
			return nil, err
		}
		return speculate.AccelerateActions(app, mcfg, specOptions(), speculate.AttachConfig{
			Actions:   tableRows[c.row].acts,
			Predictor: pcfg,
			Governor:  &gov,
		})
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "protocol-action table: oracle depth %d, governor %+v\n", pcfg.Depth, gov)
	for i, a := range apps {
		base := results[i*len(tableRows)].Baseline
		fmt.Fprintf(w, "\n%s (baseline: %d messages, %v)\n", a, base.Messages, base.FinalTime)
		fmt.Fprintf(w, "  %-10s %10s %7s %12s %7s %6s %9s %6s %9s\n",
			"action", "messages", "msg%", "time", "time%", "fired", "governor", "trips", "end-state")
		for j, row := range tableRows {
			r := results[i*len(tableRows)+j]
			acc := r.Accelerated
			fired := acc.SpecRMW + acc.SpecDSI + acc.SpecFetches + acc.SpecPushes
			fmt.Fprintf(w, "  %-10s %10d %6.1f%% %12v %6.1f%% %6d %9s %6d %9s\n",
				row.label, acc.Messages, 100*r.MessageReduction(), acc.FinalTime,
				100*r.TimeReduction(), fired, acc.GovState, acc.GovTrips, digestTag(r))
		}
	}
	return nil
}

// digestTag summarizes whether the accelerated run converged to the
// byte-identical end state of the base protocol.
func digestTag(r *speculate.Comparison) string {
	if r.Accelerated.Digest == r.Baseline.Digest {
		return "=base"
	}
	return "diverged"
}

// appGroup expands the -app argument of the table mode.
func appGroup(name string) ([]string, error) {
	switch name {
	case "micros":
		return microNames, nil
	case "benchmarks":
		return benchNames, nil
	default:
		return []string{name}, nil
	}
}

// isBenchmark reports whether name is one of the five paper benchmarks
// (the only apps the trace cache and suite evaluation know).
func isBenchmark(name string) bool { return slices.Contains(benchNames, name) }

// buildApp returns a fresh-workload factory (the comparison runs the
// workload twice and needs independent instances).
func buildApp(name, scale string, mcfg sim.Config, iters, blocks int) (func() workload.App, error) {
	geom := coherence.MustGeometry(mcfg.CacheBlockBytes, mcfg.PageBytes, mcfg.Nodes)
	switch name {
	case "migratory":
		return func() workload.App {
			return workload.Migratory(mcfg.Nodes, workload.NewArena(geom).Alloc(blocks), iters)
		}, nil
	case "producer-consumer":
		return func() workload.App {
			return workload.ProducerConsumer(mcfg.Nodes, 1, []int{2, 5}, workload.NewArena(geom).Alloc(blocks), iters)
		}, nil
	case "read-modify-write":
		return func() workload.App {
			return workload.ReadModifyWrite(mcfg.Nodes, blocks/mcfg.Nodes+1, workload.NewArena(geom), iters)
		}, nil
	}
	sc, ok := experiments.ScaleFor(scale)
	if !ok {
		return nil, fmt.Errorf("unknown scale %q", scale)
	}
	// Validate the benchmark name once up front.
	if _, err := workload.ByName(name, mcfg.Nodes, sc); err != nil {
		return nil, err
	}
	return func() workload.App {
		a, err := workload.ByName(name, mcfg.Nodes, sc)
		if err != nil {
			panic(err) // validated above
		}
		return a
	}, nil
}
