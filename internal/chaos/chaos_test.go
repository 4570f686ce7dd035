package chaos

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/invariant"
)

// failingConfig is a quick configuration with a directory-owner
// corruption injected mid-run: every seed must detect it.
func failingConfig() Config {
	cfg := DefaultConfig().Quick()
	cfg.Corrupt = CorruptDirOwner
	return cfg
}

func TestCleanSweepFindsNothing(t *testing.T) {
	cfg := DefaultConfig().Quick()
	for _, r := range Sweep(cfg, 1, 8, 1) {
		if r.Failed() {
			t.Errorf("seed %d: %s on an unmodified protocol\n%s", r.Seed, r.Outcome, r.Diagnostic)
		}
	}
}

// TestSweepWorkerInvariance: the sweep's results must not depend on the
// worker count — RunSeed is pure in (cfg, seed) and Sweep reassembles
// by seed order, so serial and parallel sweeps are interchangeable.
func TestSweepWorkerInvariance(t *testing.T) {
	cfg := DefaultConfig().Quick()
	serial := Sweep(cfg, 1, 8, 1)
	for _, workers := range []int{4, 8} {
		got := Sweep(cfg, 1, 8, workers)
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(serial))
		}
		for i := range serial {
			if got[i] != serial[i] {
				t.Errorf("workers=%d seed %d diverged from serial:\n%+v\n%+v",
					workers, serial[i].Seed, serial[i], got[i])
			}
		}
	}
}

func TestRunSeedDeterminism(t *testing.T) {
	cfg := DefaultConfig().Quick()
	for _, seed := range []int64{1, 2, 3} {
		a := RunSeed(cfg, seed)
		b := RunSeed(cfg, seed)
		if a != b {
			t.Errorf("seed %d diverged between runs:\n%+v\n%+v", seed, a, b)
		}
	}
}

func TestCorruptionDetected(t *testing.T) {
	// Which rule fires depends on where the sweep catches the damage: a
	// phantom owner shows up as a bad transition if the monitor sees
	// the bogus grant path, or as a quiet-block agreement mismatch
	// otherwise. TestMonitorViolations (internal/machine) pins exact
	// rules on a quiesced machine; here any rule in the plausible set
	// counts.
	cases := []struct {
		mode  string
		rules []string
	}{
		{CorruptDirOwner, []string{invariant.RuleTransition, invariant.RuleAgreement}},
		{CorruptDirSharer, []string{invariant.RuleLegality, invariant.RuleAgreement}},
		{CorruptCacheWriter, []string{invariant.RuleSWMR, invariant.RuleAgreement}},
	}
	// Not every seed detects every corruption — a phantom sharer, for
	// instance, can be healed by a later writer's legitimate
	// invalidation round before a quiet-block sweep samples it. A small
	// seed sweep must catch each mode at least once, and every
	// detection must carry the expected rule and a structured
	// diagnostic.
	for _, tc := range cases {
		tc := tc
		t.Run(tc.mode, func(t *testing.T) {
			cfg := DefaultConfig().Quick()
			cfg.Corrupt = tc.mode
			found := false
			for seed := int64(1); seed <= 8; seed++ {
				res := RunSeed(cfg, seed)
				if res.Outcome != OutcomeViolation {
					continue
				}
				found = true
				ok := false
				for _, r := range tc.rules {
					ok = ok || res.Rule == r
				}
				if !ok {
					t.Errorf("seed %d: rule = %q, want one of %v\n%s", seed, res.Rule, tc.rules, res.Diagnostic)
				}
				if !strings.Contains(res.Diagnostic, "invariant violation") {
					t.Errorf("seed %d: diagnostic not structured:\n%s", seed, res.Diagnostic)
				}
			}
			if !found {
				t.Fatalf("no seed in 1..8 detected %s corruption", tc.mode)
			}
		})
	}
}

// TestSpecSweepClean: the speculation axis — all four actions, a
// seed-varied governor, rollback bookkeeping — composed with faults and
// perturbation must survive a clean sweep: zero violations, zero
// panics, and every stall attributable to the fault plan.
func TestSpecSweepClean(t *testing.T) {
	cfg := DefaultConfig().Quick()
	cfg.Spec = true
	for _, r := range Sweep(cfg, 1, 12, 4) {
		if r.Failed() {
			t.Errorf("seed %d: %s with speculation armed\n%s", r.Seed, r.Outcome, r.Diagnostic)
		}
	}
}

// TestSpecSweepDeterministic: arming speculation must not cost
// reproducibility — same seed, same result, worker count irrelevant.
func TestSpecSweepDeterministic(t *testing.T) {
	cfg := DefaultConfig().Quick()
	cfg.Spec = true
	serial := Sweep(cfg, 1, 6, 1)
	parallelRun := Sweep(cfg, 1, 6, 6)
	for i := range serial {
		if serial[i] != parallelRun[i] {
			t.Errorf("seed %d diverged across worker counts:\n%+v\n%+v",
				serial[i].Seed, serial[i], parallelRun[i])
		}
	}
}

// TestSpecDanglingDetected: the planted dangling speculative entry must
// be caught by the new speculation rule specifically — it is invisible
// to the pre-existing rules (the sharer bit agrees, the line is
// read-only), so a firing proves the rule carries its own weight.
func TestSpecDanglingDetected(t *testing.T) {
	cfg := DefaultConfig().Quick()
	cfg.Corrupt = CorruptSpecDangling
	found := false
	for seed := int64(1); seed <= 8; seed++ {
		res := RunSeed(cfg, seed)
		if res.Outcome != OutcomeViolation {
			continue
		}
		found = true
		if res.Rule != invariant.RuleSpeculation {
			t.Errorf("seed %d: rule = %q, want %q\n%s", seed, res.Rule, invariant.RuleSpeculation, res.Diagnostic)
		}
		if !strings.Contains(res.Diagnostic, "dangling") {
			t.Errorf("seed %d: diagnostic does not name the dangling entry:\n%s", seed, res.Diagnostic)
		}
	}
	if !found {
		t.Fatal("no seed in 1..8 detected spec-dangling corruption")
	}
}

// TestSpecDanglingBundle: the self-check shrinks and replays like any
// organic failure, and the shrinker never sheds the speculation axis
// the corruption depends on.
func TestSpecDanglingBundle(t *testing.T) {
	cfg := DefaultConfig().Quick()
	cfg.Spec = true
	cfg.Corrupt = CorruptSpecDangling
	var res Result
	var seed int64
	for seed = 1; seed <= 8; seed++ {
		if res = RunSeed(cfg, seed); res.Failed() {
			break
		}
	}
	if !res.Failed() {
		t.Fatal("no failing seed found")
	}
	bundle := Reduce(cfg, res, DefaultShrinkTrials)
	if !bundle.Config.Spec {
		t.Error("shrink dropped the Spec axis from a spec corruption repro")
	}
	if _, err := Replay(bundle); err != nil {
		t.Fatalf("replay diverged: %v", err)
	}
}

// TestBundleDeterminism: reducing the same failing seed twice must
// produce byte-identical repro bundles — config, diagnostic, trace.
func TestBundleDeterminism(t *testing.T) {
	cfg := failingConfig()
	res := RunSeed(cfg, 1)
	if !res.Failed() {
		t.Fatalf("seed 1 did not fail: %+v", res)
	}
	b1 := Reduce(cfg, res, DefaultShrinkTrials)
	b2 := Reduce(cfg, res, DefaultShrinkTrials)
	j1, err := b1.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := b2.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Errorf("bundles diverged:\n%s\n---\n%s", j1, j2)
	}
}

// TestBundleRoundTripAndReplay: a marshalled bundle parses back and
// replays to the identical outcome, rule, and diagnostic.
func TestBundleRoundTripAndReplay(t *testing.T) {
	cfg := failingConfig()
	res := RunSeed(cfg, 1)
	if !res.Failed() {
		t.Fatalf("seed 1 did not fail: %+v", res)
	}
	bundle := Reduce(cfg, res, DefaultShrinkTrials)
	raw, err := bundle.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseBundle(raw)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(parsed)
	if err != nil {
		t.Fatalf("replay diverged: %v", err)
	}
	if rep.Diagnostic != bundle.Diagnostic {
		t.Error("replay diagnostic differs from the bundle's")
	}
}

// bundleJSON is an unreduced bundle of failingConfig with its Nodes
// edited to nodes, as a hand-edited repro file would be.
func bundleJSON(t testing.TB, nodes int) []byte {
	t.Helper()
	raw, err := Bundle{Version: BundleVersion, Seed: 1, Config: failingConfig(), Original: failingConfig()}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Replace(raw, []byte(`"nodes": 8,`), []byte(fmt.Sprintf(`"nodes": %d,`, nodes)), 1)
}

// TestParseBundleValidates: a bundle whose Config the fuzzer cannot run
// is refused with Validate's error before Replay, which would panic on
// 0 nodes, run the one-node machine the sweep refuses, or fail in the
// 64-node full-map directory.
func TestParseBundleValidates(t *testing.T) {
	if _, err := ParseBundle(bundleJSON(t, 8)); err != nil {
		t.Fatalf("valid bundle refused: %v", err)
	}
	for _, tc := range []struct {
		nodes int
		want  string
	}{
		{0, "chaos: Nodes=0 out of range [2,64]"},
		{1, "chaos: Nodes=1 out of range [2,64]"},
		{65, "chaos: Nodes=65 out of range [2,64]"},
	} {
		if _, err := ParseBundle(bundleJSON(t, tc.nodes)); err == nil || err.Error() != tc.want {
			t.Errorf("Nodes=%d: err = %v, want %q", tc.nodes, err, tc.want)
		}
	}
}

// FuzzParseBundle: whatever bytes ParseBundle accepts carry a Config
// that Validate accepts, so Replay never runs a configuration the sweep
// would have refused.
func FuzzParseBundle(f *testing.F) {
	for _, nodes := range []int{8, 0, 1, 65} {
		f.Add(bundleJSON(f, nodes))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ParseBundle(data)
		if err != nil {
			return
		}
		if err := b.Config.Validate(); err != nil {
			t.Fatalf("accepted a bundle whose config is invalid: %v", err)
		}
	})
}

// TestShrinkOnlyKeepsFailingReductions: every accepted shrink step in
// the trace must preserve the failure, and the minimized config must
// still fail with the same rule.
func TestShrinkOnlyKeepsFailingReductions(t *testing.T) {
	cfg := failingConfig()
	res := RunSeed(cfg, 1)
	if !res.Failed() {
		t.Fatalf("seed 1 did not fail: %+v", res)
	}
	min, trace := Shrink(cfg, res, DefaultShrinkTrials)
	final := RunSeed(min, res.Seed)
	if final.Outcome != res.Outcome || final.Rule != res.Rule {
		t.Fatalf("minimized config no longer fails the same way: %+v (trace:\n%s)",
			final, strings.Join(trace, "\n"))
	}
	if min.Iters > cfg.Iters || min.Accesses > cfg.Accesses {
		t.Errorf("shrink grew the workload: %+v -> %+v", cfg, min)
	}
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.Nodes = 1
	if err := bad.Validate(); err == nil {
		t.Error("Nodes=1 accepted")
	}
	bad = DefaultConfig()
	bad.Drop = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("Drop=1.5 accepted")
	}
	bad = DefaultConfig()
	bad.Corrupt = "flip-bits"
	if err := bad.Validate(); err == nil {
		t.Error("unknown corrupt mode accepted")
	}
}
