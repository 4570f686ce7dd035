package chaos

import (
	"encoding/json"
	"fmt"
)

// knob is one shrinkable dimension of a failing configuration.
type knob struct {
	name string
	// lower returns a strictly smaller configuration, or ok=false when
	// the knob is already at its floor.
	lower func(Config) (Config, bool)
}

// knobs are tried in order, cheapest-win first: shrinking the workload
// shortens every subsequent trial, so it pays to try it before the
// fault-intensity knobs.
var knobs = []knob{
	{"iters", func(c Config) (Config, bool) {
		if c.Iters <= 1 {
			return c, false
		}
		c.Iters /= 2
		return c, true
	}},
	{"accesses", func(c Config) (Config, bool) {
		if c.Accesses <= 1 {
			return c, false
		}
		c.Accesses /= 2
		return c, true
	}},
	{"blocks", func(c Config) (Config, bool) {
		if c.Blocks <= 1 {
			return c, false
		}
		c.Blocks /= 2
		return c, true
	}},
	{"spec", func(c Config) (Config, bool) {
		// A failure that survives with speculation off is not a
		// speculation bug; shedding the axis (where allowed — the
		// spec-dangling self-check needs it) simplifies the repro.
		if !c.Spec || c.Corrupt == CorruptSpecDangling {
			return c, false
		}
		c.Spec = false
		return c, true
	}},
	{"drop", func(c Config) (Config, bool) {
		if c.Drop <= 0 {
			return c, false
		}
		c.Drop /= 2
		if c.Drop < 0.001 {
			c.Drop = 0
		}
		return c, true
	}},
	{"dup", func(c Config) (Config, bool) {
		if c.Dup <= 0 {
			return c, false
		}
		c.Dup /= 2
		if c.Dup < 0.001 {
			c.Dup = 0
		}
		return c, true
	}},
	{"jitter", func(c Config) (Config, bool) {
		if c.JitterNs <= 0 {
			return c, false
		}
		c.JitterNs /= 2
		return c, true
	}},
	{"perturb", func(c Config) (Config, bool) {
		if c.PerturbNs <= 0 {
			return c, false
		}
		c.PerturbNs /= 2
		return c, true
	}},
}

// DefaultShrinkTrials bounds the number of re-runs one shrink spends.
const DefaultShrinkTrials = 48

// Shrink greedily minimizes a failing configuration: each pass halves
// one knob and keeps the reduction only if the seed still fails with
// the same outcome and rule; passes repeat until a full pass sticks
// nothing or the trial budget runs out. The returned trace records
// every trial for the bundle ("iters 4->2 kept", "drop 0.02->0.01
// reverted", ...).
func Shrink(cfg Config, failed Result, maxTrials int) (Config, []string) {
	if maxTrials <= 0 {
		maxTrials = DefaultShrinkTrials
	}
	cur := cfg
	trials := 0
	var trace []string
	for changed := true; changed && trials < maxTrials; {
		changed = false
		for _, k := range knobs {
			if trials >= maxTrials {
				break
			}
			next, ok := k.lower(cur)
			if !ok {
				continue
			}
			trials++
			r := RunSeed(next, failed.Seed)
			if r.Outcome == failed.Outcome && r.Rule == failed.Rule {
				trace = append(trace, fmt.Sprintf("%s: %s -> %s kept", k.name, describe(cur, k.name), describe(next, k.name)))
				cur = next
				changed = true
			} else {
				trace = append(trace, fmt.Sprintf("%s: %s -> %s reverted (%s)", k.name, describe(cur, k.name), describe(next, k.name), r.Outcome))
			}
		}
	}
	return cur, trace
}

// describe renders one knob's current value for the shrink trace.
func describe(c Config, name string) string {
	switch name {
	case "iters":
		return fmt.Sprintf("%d", c.Iters)
	case "accesses":
		return fmt.Sprintf("%d", c.Accesses)
	case "blocks":
		return fmt.Sprintf("%d", c.Blocks)
	case "spec":
		return fmt.Sprintf("%v", c.Spec)
	case "drop":
		return fmt.Sprintf("%g", c.Drop)
	case "dup":
		return fmt.Sprintf("%g", c.Dup)
	case "jitter":
		return fmt.Sprintf("%dns", c.JitterNs)
	case "perturb":
		return fmt.Sprintf("%dns", c.PerturbNs)
	}
	return "?"
}

// BundleVersion is bumped when the bundle layout changes.
const BundleVersion = 1

// Bundle is a self-contained, replayable reproduction of one failing
// seed: the minimized configuration, the seed, and the exact failure
// it produces. Replay re-executes it and demands a byte-identical
// diagnostic.
type Bundle struct {
	Version int    `json:"version"`
	Seed    int64  `json:"seed"`
	Outcome string `json:"outcome"`
	Rule    string `json:"rule,omitempty"`
	// Diagnostic is the full failure text of the minimized run.
	Diagnostic string `json:"diagnostic"`
	// Events is the minimized run's fired-event count.
	Events uint64 `json:"events"`
	// Config reproduces the failure; Original is the configuration the
	// failure was first found under, for context.
	Config   Config `json:"config"`
	Original Config `json:"original"`
	// ShrinkTrace records every shrink trial.
	ShrinkTrace []string `json:"shrink_trace,omitempty"`
}

// Reduce shrinks a failing (cfg, result) pair and packages the repro
// bundle. The minimized configuration is re-run once so the bundle
// carries its exact diagnostic.
func Reduce(cfg Config, failed Result, maxTrials int) Bundle {
	minCfg, trace := Shrink(cfg, failed, maxTrials)
	final := RunSeed(minCfg, failed.Seed)
	if final.Outcome != failed.Outcome || final.Rule != failed.Rule {
		// Shrink accepted only same-failure reductions, so this cannot
		// happen unless determinism itself broke — in which case the
		// original config is the only trustworthy repro.
		minCfg, final, trace = cfg, failed, append(trace, "final re-run diverged; bundle keeps the original config")
	}
	return Bundle{
		Version:     BundleVersion,
		Seed:        failed.Seed,
		Outcome:     final.Outcome,
		Rule:        final.Rule,
		Diagnostic:  final.Diagnostic,
		Events:      final.Events,
		Config:      minCfg,
		Original:    cfg,
		ShrinkTrace: trace,
	}
}

// Marshal renders the bundle as stable, human-readable JSON.
func (b Bundle) Marshal() ([]byte, error) {
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// ParseBundle decodes a bundle and checks its version and that its
// Config is one the fuzzer can run (Config.Validate): a bundle is
// outside input, often hand-edited, and Replay trusts its Config.
func ParseBundle(data []byte) (Bundle, error) {
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return Bundle{}, fmt.Errorf("chaos: malformed bundle: %w", err)
	}
	if b.Version != BundleVersion {
		return Bundle{}, fmt.Errorf("chaos: bundle version %d, want %d", b.Version, BundleVersion)
	}
	if err := b.Config.Validate(); err != nil {
		return Bundle{}, err
	}
	return b, nil
}

// Replay re-executes a bundle and verifies the failure reproduces
// byte-identically (outcome, rule, and full diagnostic text). It
// returns the re-run's result alongside any mismatch error.
func Replay(b Bundle) (Result, error) {
	r := RunSeed(b.Config, b.Seed)
	switch {
	case r.Outcome != b.Outcome:
		return r, fmt.Errorf("chaos: replay diverged: outcome %q, bundle has %q", r.Outcome, b.Outcome)
	case r.Rule != b.Rule:
		return r, fmt.Errorf("chaos: replay diverged: rule %q, bundle has %q", r.Rule, b.Rule)
	case r.Diagnostic != b.Diagnostic:
		return r, fmt.Errorf("chaos: replay diverged: diagnostic differs\n--- bundle ---\n%s\n--- replay ---\n%s", b.Diagnostic, r.Diagnostic)
	}
	return r, nil
}
