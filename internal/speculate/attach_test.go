package speculate

import (
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/governor"
	"github.com/cosmos-coherence/cosmos/internal/machine"
	"github.com/cosmos-coherence/cosmos/internal/sim"
	"github.com/cosmos-coherence/cosmos/internal/stache"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

// lenientGov admits speculation as soon as one prediction verifies and
// only trips on a window of solid mispredictions — the setting tests
// use when they want actions to fire.
func lenientGov() *governor.Config {
	return &governor.Config{
		CounterMax:  1,
		Threshold:   1,
		Window:      64,
		TripRate:    1.0,
		Cooldown:    8,
		ProbeStreak: 2,
	}
}

// TestTable2Exhaustive pins the catalogue: every prediction->action
// pair of the paper's Table 2 discussion must be present, with the
// recovery class Section 4.3 assigns it and an Implemented flag that
// matches what this package actually wires into the protocol.
func TestTable2Exhaustive(t *testing.T) {
	want := []struct {
		name        string
		class       RecoveryClass
		implemented bool
	}{
		{"read-modify-write", NoRecovery, true},
		{"self-invalidation", NoRecovery, true},
		{"speculative downgrade", ProtocolRollback, true},
		{"producer push", ProtocolRollback, true},
		{"speculative protocol sequence", ProtocolRollback, false},
		{"processor-coupled speculation", FullCheckpoint, false},
	}
	specs := Table2()
	if len(specs) != len(want) {
		t.Fatalf("Table2 lists %d actions, want %d", len(specs), len(want))
	}
	for i, w := range want {
		s := specs[i]
		if s.Name != w.name {
			t.Fatalf("entry %d = %q, want %q", i, s.Name, w.name)
		}
		if s.Class != w.class {
			t.Errorf("%s: class %v, want %v", s.Name, s.Class, w.class)
		}
		if s.Implemented != w.implemented {
			t.Errorf("%s: Implemented = %v, want %v", s.Name, s.Implemented, w.implemented)
		}
	}
	// The Attach action set must cover exactly the implemented entries:
	// four flags, four implemented rows.
	if got := AllActions().String(); got != "rmw+dsi+downgrade+forward" {
		t.Errorf("AllActions = %q", got)
	}
	if got := (Actions{}).String(); got != "none" {
		t.Errorf("empty Actions = %q", got)
	}
}

// TestAttachRequiresSpeculationOption: the rollback actions hold
// speculative protocol state, which the protocol only tracks when the
// Speculation option is armed, and which only the governor may create.
func TestAttachRequiresSpeculationOption(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Nodes = 4
	geom := coherence.MustGeometry(cfg.CacheBlockBytes, cfg.PageBytes, cfg.Nodes)
	gov := governor.DefaultConfig()
	for _, c := range []struct {
		name    string
		opts    stache.Options
		acts    Actions
		gov     *governor.Config
		wantErr bool
	}{
		{"rollback actions without Options.Speculation", stache.DefaultOptions(), AllActions(), &gov, true},
		// NoRecovery-only action sets need neither the option nor a governor.
		{"rmw+dsi without Options.Speculation", stache.DefaultOptions(), Actions{RMW: true, DSI: true}, &gov, false},
		{"rmw+dsi with no governor", stache.DefaultOptions(), Actions{RMW: true, DSI: true}, nil, false},
		{"rollback action with no governor", specOptions(), Actions{Downgrade: true}, nil, true},
	} {
		app := workload.Migratory(4, workload.NewArena(geom).Alloc(4), 4)
		m, err := machine.New(cfg, c.opts, app)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Attach(m, AttachConfig{Actions: c.acts, Predictor: core.Config{Depth: 1}, Governor: c.gov})
		if (err != nil) != c.wantErr {
			t.Errorf("%s: Attach error = %v, want error %v", c.name, err, c.wantErr)
		}
	}
}

func specOptions() stache.Options {
	o := stache.DefaultOptions()
	o.Speculation = true
	return o
}

// TestDowngradeMigratory: on a migratory workload the owner's next
// directory message is predictably a third-party read, so speculative
// downgrades must fire, shorten the read's critical path, and leave the
// run invariant-clean (the machine runs with the monitor attached).
func TestDowngradeMigratory(t *testing.T) {
	cfg := sim.DefaultConfig()
	// 4 nodes: the migratory rotation has period 4, so each block's
	// depth-2 context (read P, upgrade P) recurs often enough for the
	// oracle to learn which third party reads next.
	cfg.Nodes = 4
	cfg.Invariants = true
	geom := coherence.MustGeometry(cfg.CacheBlockBytes, cfg.PageBytes, cfg.Nodes)
	app := func() workload.App {
		return workload.Migratory(cfg.Nodes, workload.NewArena(geom).Alloc(8), 30)
	}
	cmp, err := AccelerateActions(app, cfg, specOptions(), AttachConfig{
		Actions:   Actions{Downgrade: true},
		Predictor: core.Config{Depth: 2},
		Governor:  lenientGov(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Accelerated.SpecFetches == 0 {
		t.Fatal("no speculative downgrades fired on a migratory workload")
	}
	if cmp.TimeReduction() <= 0 {
		t.Errorf("time reduction = %.3f, want > 0 (base %v, spec %v)",
			cmp.TimeReduction(), cmp.Baseline.FinalTime, cmp.Accelerated.FinalTime)
	}
}

// TestForwardProducerConsumer: with self-invalidation returning the
// producer's blocks at the barrier, the directory's next message per
// block is predictably the consumer's read — producer push must fire
// and at least some pushed copies must be claimed by real reads.
func TestForwardProducerConsumer(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Nodes = 8
	cfg.Invariants = true
	geom := coherence.MustGeometry(cfg.CacheBlockBytes, cfg.PageBytes, cfg.Nodes)
	app := func() workload.App {
		return workload.ProducerConsumer(cfg.Nodes, 1, []int{2}, workload.NewArena(geom).Alloc(16), 30)
	}
	cmp, err := AccelerateActions(app, cfg, specOptions(), AttachConfig{
		Actions:   Actions{DSI: true, Forward: true},
		Predictor: core.Config{Depth: 2},
		Governor:  lenientGov(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Accelerated.SpecPushes == 0 {
		t.Fatal("no producer pushes fired on a producer-consumer workload")
	}
	if cmp.Accelerated.SpecClaims+cmp.Accelerated.SpecDiscards == 0 {
		t.Error("pushed copies neither claimed nor discarded")
	}
}

// TestAllActionsInvariantClean: the full action set composed with the
// runtime monitor on both micro-workloads; any speculative state that
// escaped, outlived its window, or survived quiesce would fail the run.
func TestAllActionsInvariantClean(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Nodes = 8
	cfg.Invariants = true
	geom := coherence.MustGeometry(cfg.CacheBlockBytes, cfg.PageBytes, cfg.Nodes)
	apps := map[string]func() workload.App{
		"migratory": func() workload.App {
			return workload.Migratory(cfg.Nodes, workload.NewArena(geom).Alloc(8), 16)
		},
		"producer-consumer": func() workload.App {
			return workload.ProducerConsumer(cfg.Nodes, 1, []int{2, 3}, workload.NewArena(geom).Alloc(8), 16)
		},
	}
	for name, app := range apps {
		cmp, err := AccelerateActions(app, cfg, specOptions(), AttachConfig{
			Actions:   AllActions(),
			Predictor: core.Config{Depth: 2},
			Governor:  lenientGov(),
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cmp.Accelerated.Speculations == 0 {
			t.Errorf("%s: no speculation fired", name)
		}
	}
}

// TestSpeculationOptionInert: with the option armed but nothing
// attached, the protocol must be bit-identical to the base protocol —
// same message count, same end state.
func TestSpeculationOptionInert(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Nodes = 4
	geom := coherence.MustGeometry(cfg.CacheBlockBytes, cfg.PageBytes, cfg.Nodes)
	run := func(opts stache.Options) (uint64, string) {
		app := workload.Migratory(4, workload.NewArena(geom).Alloc(8), 12)
		m, err := machine.New(cfg, opts, app)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(2_000_000_000); err != nil {
			t.Fatal(err)
		}
		return m.Network().Stats().MessagesSent, m.StateDigest()
	}
	baseMsgs, baseDigest := run(stache.DefaultOptions())
	specMsgs, specDigest := run(specOptions())
	if baseMsgs != specMsgs || baseDigest != specDigest {
		t.Errorf("Speculation option changed the unattached protocol: %d/%s vs %d/%s",
			baseMsgs, baseDigest, specMsgs, specDigest)
	}
}

// scrambled returns a workload whose per-block directory message stream
// never settles into a depth-2 pattern, so every standing prediction is
// wrong and confidence never builds.
func scrambled(procs int, blocks workload.Region, iters int) workload.App {
	steps := make([][][]workload.Access, iters)
	for it := range steps {
		steps[it] = make([][]workload.Access, procs)
		for b := 0; b < blocks.Blocks(); b++ {
			// A different writer each round, re-keyed per block and per
			// iteration so no depth-2 context repeats with a consistent
			// successor. Pure writes: a read-write pair by one proc would
			// be the (predictable) RMW signature.
			p := (b*5 + it*it*3 + it*7 + 1) % procs
			steps[it][p] = append(steps[it][p], workload.Write(blocks.Block(b)))
		}
	}
	return &workload.Script{ScriptName: "scrambled", NumProcs: procs, Steps: steps}
}

// TestByteEquivalenceOnMispredictions is the acceptance check for the
// fail-safe claim: on a misprediction-heavy workload the governor's
// default thresholds keep speculation from firing at all, and the end
// state is byte-equivalent to the base protocol's. DSI is excluded:
// a self-invalidation is a legal replacement that may change the end
// state even when profitable, so byte-equivalence is the wrong claim
// for it (TestAllActionsInvariantClean covers its safety instead).
func TestByteEquivalenceOnMispredictions(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Nodes = 8
	cfg.Invariants = true
	geom := coherence.MustGeometry(cfg.CacheBlockBytes, cfg.PageBytes, cfg.Nodes)
	app := func() workload.App {
		return scrambled(cfg.Nodes, workload.NewArena(geom).Alloc(8), 24)
	}
	gov := governor.DefaultConfig()
	cmp, err := AccelerateActions(app, cfg, specOptions(), AttachConfig{
		Actions:   Actions{RMW: true, Downgrade: true, Forward: true},
		Predictor: core.Config{Depth: 2},
		Governor:  &gov,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Accelerated.Speculations != 0 {
		t.Fatalf("governor admitted %d speculations on a scrambled workload", cmp.Accelerated.Speculations)
	}
	if cmp.Accelerated.Digest != cmp.Baseline.Digest {
		t.Errorf("end states diverged:\nbase %s\nspec %s", cmp.Baseline.Digest, cmp.Accelerated.Digest)
	}
	if cmp.Accelerated.Messages != cmp.Baseline.Messages {
		t.Errorf("message count changed: %d -> %d", cmp.Baseline.Messages, cmp.Accelerated.Messages)
	}
}

// TestUngatedDSIRunStats pins both runs of examples/accelerate's
// self-invalidation comparison to the values recorded while Attach
// still trained a directory oracle for every run. An ungated DSI-only
// run now attaches none, since nothing reads it; the outcome must not
// move.
func TestUngatedDSIRunStats(t *testing.T) {
	cfg := sim.DefaultConfig()
	geom := coherence.MustGeometry(cfg.CacheBlockBytes, cfg.PageBytes, cfg.Nodes)
	app := func() workload.App {
		return workload.ProducerConsumer(cfg.Nodes, 1, []int{2, 5}, workload.NewArena(geom).Alloc(64), 60)
	}
	cmp, err := AccelerateActions(app, cfg, stache.DefaultOptions(),
		AttachConfig{Actions: Actions{DSI: true}, Predictor: core.Config{Depth: 1}})
	if err != nil {
		t.Fatal(err)
	}
	const digest = "0cd232646b8dee9903c31c2682ccdb0e51a9880cfe94986c74e8f279ba0518c0"
	want := Comparison{
		Baseline: RunStats{
			Messages:      45824,
			Invalidations: 11392,
			FinalTime:     4978740,
			GovState:      "closed",
			Digest:        digest,
		},
		Accelerated: RunStats{
			Messages:      45824,
			Invalidations: 9472,
			Speculations:  1920,
			FinalTime:     4364430,
			SpecDSI:       1920,
			GovState:      "closed",
			Digest:        digest,
		},
	}
	if *cmp != want {
		t.Errorf("comparison = %+v\nwant         %+v", *cmp, want)
	}
}

// TestGatedDSIKeepsDirectoryOracles: a governed self-invalidation run
// takes no directory action, but its directory oracles still score
// every arriving message for the governor's misprediction breaker, so
// Attach must keep them. Without them this run self-invalidates 1680
// times and never trips; the values below were recorded while Attach
// trained the oracles for every run.
func TestGatedDSIKeepsDirectoryOracles(t *testing.T) {
	cfg := sim.DefaultConfig()
	geom := coherence.MustGeometry(cfg.CacheBlockBytes, cfg.PageBytes, cfg.Nodes)
	app := func() workload.App {
		return workload.Migratory(cfg.Nodes, workload.NewArena(geom).Alloc(64), 60)
	}
	cmp, err := AccelerateActions(app, cfg, stache.DefaultOptions(),
		AttachConfig{Actions: Actions{DSI: true}, Predictor: core.Config{Depth: 1}, Governor: lenientGov()})
	if err != nil {
		t.Fatal(err)
	}
	want := RunStats{
		Messages:        21480,
		UpgradeRequests: 3600,
		Invalidations:   3479,
		Speculations:    61,
		FinalTime:       266980,
		SpecDSI:         61,
		GovTrips:        1,
		GovState:        "half-open",
		Digest:          "d719f3cf28ad096169fb3919f16016e8614a8b9cc74cd2adca2e7257d75b5921",
	}
	if cmp.Accelerated != want {
		t.Errorf("accelerated = %+v\nwant          %+v", cmp.Accelerated, want)
	}
}
