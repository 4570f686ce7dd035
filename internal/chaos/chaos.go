// Package chaos implements a seeded interleaving fuzzer for the
// coherence protocol: it composes the deterministic fault injector
// (internal/faults) with a bounded perturbation of the event queue's
// delivery schedule (sim.Engine.SetPerturb), runs randomized
// high-conflict workloads with the runtime invariant monitor
// (internal/invariant) enabled, and — when a seed fails — greedily
// shrinks the failing configuration and packages a replayable repro
// bundle.
//
// Everything is deterministic in (Config, seed): the workload, the
// protocol variant, the fault decisions, and the scheduling
// perturbation are all pure functions of the seed, so a failing seed
// re-executes identically — byte-identical diagnostic included — on
// any machine. That is what makes the shrink loop sound (a shrink step
// is accepted only if the reduced run still fails the same way) and
// the bundles useful (a bundle attached to a bug report replays the
// exact failure).
package chaos

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/faults"
	"github.com/cosmos-coherence/cosmos/internal/governor"
	"github.com/cosmos-coherence/cosmos/internal/invariant"
	"github.com/cosmos-coherence/cosmos/internal/machine"
	"github.com/cosmos-coherence/cosmos/internal/parallel"
	"github.com/cosmos-coherence/cosmos/internal/sim"
	"github.com/cosmos-coherence/cosmos/internal/speculate"
	"github.com/cosmos-coherence/cosmos/internal/stache"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

// Corruption modes for Config.Corrupt: hand-injected protocol-state
// damage used to validate that the monitor actually detects broken
// runs (a fuzzer whose oracle never fires proves nothing).
const (
	// CorruptNone runs the unmodified protocol.
	CorruptNone = ""
	// CorruptDirOwner rewrites a directory entry to name a bogus
	// exclusive owner.
	CorruptDirOwner = "dir-owner"
	// CorruptDirSharer adds a bogus sharer bit to a directory entry.
	CorruptDirSharer = "dir-sharer"
	// CorruptCacheWriter forces a cache line writable behind the
	// directory's back.
	CorruptCacheWriter = "cache-writer"
	// CorruptSpecDangling plants a speculative read-only cache copy the
	// home directory does not record as spec-pushed — the dangling entry
	// the rollback discard path could never find. Forces Spec on.
	CorruptSpecDangling = "spec-dangling"
)

// Config parameterizes one fuzz run. The zero value is not useful;
// start from DefaultConfig. All fields marshal to JSON so a minimized
// config embeds verbatim in a repro bundle.
type Config struct {
	// Nodes is the machine size (processors = nodes).
	Nodes int `json:"nodes"`
	// Blocks is the size of the conflict pool every processor hammers.
	Blocks int `json:"blocks"`
	// Iters and Accesses size the random workload: Iters
	// barrier-separated phases of Accesses references per processor.
	Iters    int `json:"iters"`
	Accesses int `json:"accesses"`
	// Drop, Dup, and JitterNs feed the fault plan (internal/faults).
	Drop     float64 `json:"drop"`
	Dup      float64 `json:"dup"`
	JitterNs uint64  `json:"jitter_ns"`
	// PerturbNs bounds the extra scheduling delay the chaos perturbation
	// may add to any event (0 disables perturbation). A perturbed run
	// always layers the reliable transport (the wire may reorder), so
	// normalization forces a minimal fault plan when none is set.
	PerturbNs uint64 `json:"perturb_ns"`
	// CheckEvery is the invariant monitor's sweep cadence in events.
	CheckEvery uint64 `json:"check_every"`
	// MaxEvents is the per-run event budget (0 = the default 20M).
	MaxEvents uint64 `json:"max_events"`
	// Spec arms the speculation axis: the protocol runs with the
	// Speculation option, all four Table 2 actions attached, and a
	// seed-derived governor configuration — so rollback actions, the
	// circuit breaker, and the discard paths are fuzzed under faults and
	// perturbation like everything else.
	Spec bool `json:"spec,omitempty"`
	// Corrupt selects a hand-injected corruption (Corrupt* constants)
	// applied at CorruptAtNs of simulated time; used to self-check the
	// monitor's detection, never in clean sweeps.
	Corrupt     string `json:"corrupt,omitempty"`
	CorruptAtNs uint64 `json:"corrupt_at_ns,omitempty"`
}

// DefaultConfig returns a moderately hostile fuzz configuration: an
// 8-node machine, a small conflict pool, a lossy duplicating jittery
// wire, and bounded delivery-order perturbation.
func DefaultConfig() Config {
	return Config{
		Nodes:      8,
		Blocks:     4,
		Iters:      4,
		Accesses:   16,
		Drop:       0.02,
		Dup:        0.01,
		JitterNs:   40,
		PerturbNs:  25,
		CheckEvery: 64,
		MaxEvents:  20_000_000,
	}
}

// Quick shrinks the workload dimensions for fast CI sweeps.
func (c Config) Quick() Config {
	c.Iters = 2
	c.Accesses = 8
	c.MaxEvents = 5_000_000
	return c
}

// Validate rejects configurations the fuzzer cannot run.
func (c Config) Validate() error {
	switch {
	case c.Nodes < 2 || c.Nodes > 64:
		return fmt.Errorf("chaos: Nodes=%d out of range [2,64]", c.Nodes)
	case c.Blocks <= 0 || c.Iters <= 0 || c.Accesses <= 0:
		return fmt.Errorf("chaos: Blocks/Iters/Accesses must be positive")
	case c.Drop < 0 || c.Drop >= 1 || c.Dup < 0 || c.Dup >= 1:
		return fmt.Errorf("chaos: Drop/Dup must be in [0,1)")
	}
	switch c.Corrupt {
	case CorruptNone, CorruptDirOwner, CorruptDirSharer, CorruptCacheWriter, CorruptSpecDangling:
	default:
		return fmt.Errorf("chaos: unknown Corrupt mode %q", c.Corrupt)
	}
	return nil
}

// normalized fills defaults and enforces the perturbation/transport
// coupling: delivery-order perturbation reorders the raw wire, which
// the protocol cannot tolerate without the reliable transport, and the
// machine only layers the transport when the fault plan is enabled —
// so a perturbed config with a zero fault plan gets 1ns of jitter.
func (c Config) normalized() Config {
	if c.CheckEvery == 0 {
		c.CheckEvery = 64
	}
	if c.MaxEvents == 0 {
		c.MaxEvents = 20_000_000
	}
	if c.Corrupt != CorruptNone && c.CorruptAtNs == 0 {
		c.CorruptAtNs = 3000
	}
	if c.Corrupt == CorruptSpecDangling {
		// The planted state is only meaningful (and the speculation rule
		// only fully exercised) on a speculating protocol.
		c.Spec = true
	}
	if c.PerturbNs > 0 && c.Drop == 0 && c.Dup == 0 && c.JitterNs == 0 {
		c.JitterNs = 1
	}
	return c
}

// Run outcomes.
const (
	// OutcomeOK: the run completed and every invariant held.
	OutcomeOK = "ok"
	// OutcomeViolation: the invariant monitor fired.
	OutcomeViolation = "violation"
	// OutcomeStall: the run failed without an invariant violation
	// (watchdog stall, dead transport link, event budget) — the fault
	// plan was too hostile, not necessarily a protocol bug.
	OutcomeStall = "stall"
	// OutcomePanic: a protocol assertion (stache expect) blew up, which
	// corruption modes routinely provoke.
	OutcomePanic = "panic"
	// OutcomeError: the configuration failed to build a machine.
	OutcomeError = "error"
)

// Result is the outcome of one seed.
type Result struct {
	Seed       int64  `json:"seed"`
	Outcome    string `json:"outcome"`
	Rule       string `json:"rule,omitempty"` // invariant rule, for violations
	Diagnostic string `json:"diagnostic,omitempty"`
	Events     uint64 `json:"events"`
	Accesses   uint64 `json:"accesses"`
	Messages   uint64 `json:"messages"`
}

// Failed reports whether the outcome indicates a protocol bug (as
// opposed to a clean run or an over-hostile fault plan).
func (r Result) Failed() bool {
	return r.Outcome == OutcomeViolation || r.Outcome == OutcomePanic
}

// mix64 is the splitmix64 finalizer — the same construction the fault
// injector uses — giving the perturbation a deterministic stream of
// pseudo-random delays from (seed, event sequence number).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// variant derives the protocol options exercised by a seed. Forwarding
// is never enabled: it requires a fault-free wire, and chaos runs are
// faulty by construction.
func variant(seed int64) stache.Options {
	opts := stache.DefaultOptions()
	if seed%3 == 1 {
		opts.HalfMigratory = false
	}
	if seed%4 == 3 {
		// Tiny bounded caches force heavy replacement traffic.
		opts.CacheBlocks = 2 + int(seed%3)
		opts.CacheAssoc = 1 + int(seed%2)
	}
	return opts
}

// specAttachConfig derives the speculation stack's parameters from the
// seed: all four actions, a seed-picked predictor depth, and governor
// thresholds swept across their useful ranges so sweeps exercise eager
// and conservative gating, fast and slow breakers alike.
func specAttachConfig(seed int64) speculate.AttachConfig {
	h := mix64(uint64(seed) ^ 0x5bd1e995)
	return speculate.AttachConfig{
		Actions:   speculate.AllActions(),
		Predictor: core.Config{Depth: 1 + int((h>>40)%2)},
		Governor: &governor.Config{
			CounterMax:  3,
			Threshold:   1 + int(h%3),
			Window:      8 << ((h >> 8) % 3),
			TripRate:    0.3 + 0.1*float64((h>>16)%5),
			Cooldown:    16 << ((h >> 24) % 3),
			ProbeStreak: 1 + int((h>>32)%4),
		},
	}
}

// randomScript builds the seed's workload: every processor performs a
// random mix of loads and stores over a shared pool of Blocks blocks —
// maximum conflict, which is where protocol races live.
func randomScript(r *rand.Rand, cfg Config) (*workload.Script, []coherence.Addr) {
	geom := coherence.MustGeometry(64, 4096, cfg.Nodes)
	region := workload.NewArena(geom).Alloc(cfg.Blocks)
	addrs := make([]coherence.Addr, 0, cfg.Blocks)
	for b := 0; b < cfg.Blocks; b++ {
		addrs = append(addrs, region.Block(b))
	}
	steps := make([][][]workload.Access, cfg.Iters)
	for it := range steps {
		steps[it] = make([][]workload.Access, cfg.Nodes)
		for p := 0; p < cfg.Nodes; p++ {
			for a := 0; a < cfg.Accesses; a++ {
				addr := addrs[r.Intn(len(addrs))]
				if r.Intn(2) == 0 {
					steps[it][p] = append(steps[it][p], workload.Read(addr))
				} else {
					steps[it][p] = append(steps[it][p], workload.Write(addr))
				}
			}
		}
	}
	return &workload.Script{ScriptName: "chaos", NumProcs: cfg.Nodes, Steps: steps}, addrs
}

// corrupt applies the configured hand-injected damage mid-run. It
// wants a stable (shared/exclusive) target entry: corrupting a busy
// entry mid-transaction detonates the protocol's own handler
// assertions before the monitor's next sweep, and the point of the
// self-check is to watch the *monitor* catch silent disagreement — so
// if every pool block is mid-transaction it asks to be retried a
// little later (deterministically) by returning true, until no attempts
// remain.
func corrupt(m *machine.Machine, cfg Config, addrs []coherence.Addr, attempts int) (retry bool) {
	stable := func(e stache.EntryInfo) bool {
		if cfg.Corrupt == CorruptSpecDangling {
			// A planted speculative reader beside an exclusive owner
			// would trip SWMR first; shared/idle entries isolate the
			// speculation rule.
			return e.State == stache.EntryShared || e.State == stache.EntryIdle
		}
		return e.State == stache.EntryShared || e.State == stache.EntryExclusive
	}
	target := addrs[0]
	found := false
	for _, a := range addrs {
		e, ok := m.HomeEntry(a)
		if !ok {
			continue
		}
		if stable(e) {
			target = a
			found = true
			break
		}
	}
	if !found && cfg.Corrupt != CorruptCacheWriter && attempts > 0 {
		return true
	}
	geom := m.Geometry()
	home := geom.Home(target)
	// A node guaranteed to be neither the home nor (for dir-owner) the
	// real owner's identity under our thumb: corruption just has to
	// disagree with reality.
	bogus := coherence.NodeID((int(home) + 1) % cfg.Nodes)
	switch cfg.Corrupt {
	case CorruptDirOwner:
		if e, ok := m.HomeEntry(target); ok && e.Owner == bogus {
			bogus = coherence.NodeID((int(bogus) + 1) % cfg.Nodes)
		}
		m.Directory(home).CorruptOwner(target, bogus)
	case CorruptDirSharer:
		if e, ok := m.HomeEntry(target); ok {
			for _, s := range e.Sharers {
				if s == bogus {
					bogus = coherence.NodeID((int(bogus) + 1) % cfg.Nodes)
					break
				}
			}
		}
		m.Directory(home).CorruptAddSharer(target, bogus)
	case CorruptCacheWriter:
		m.Cache(bogus).CorruptState(target, stache.CacheReadWrite)
	case CorruptSpecDangling:
		// Plant on an idle line so the damage is pure speculative state,
		// not a clobbered in-flight transaction; retry if every non-home
		// node is mid-transaction on the target.
		planted := false
		for off := 0; off < cfg.Nodes-1; off++ {
			n := coherence.NodeID((int(bogus) + off) % cfg.Nodes)
			if n == home {
				continue
			}
			if _, busy := m.Cache(n).Pending(target); busy {
				continue
			}
			if m.Cache(n).State(target) != stache.CacheInvalid {
				continue
			}
			m.Directory(home).CorruptAddSharer(target, n)
			m.Cache(n).CorruptSpec(target)
			planted = true
			break
		}
		return !planted && attempts > 0
	default:
		panic(fmt.Sprintf("chaos: unknown corrupt mode %q", cfg.Corrupt))
	}
	return false
}

// RunSeed executes one fuzz run. It is a pure function of (cfg, seed):
// the same inputs produce the same Result, diagnostic text included.
func RunSeed(cfg Config, seed int64) (res Result) {
	cfg = cfg.normalized()
	res.Seed = seed
	var mm *machine.Machine
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		res.Outcome = OutcomePanic
		res.Diagnostic = fmt.Sprintf("panic: %v", p)
		if mm == nil {
			return
		}
		res.Events = mm.Engine().Fired()
		res.Accesses = mm.Accesses()
		// A protocol assertion can blow up in the same event in which
		// the monitor records a violation, unwinding before the machine
		// surfaces it; the monitor's structured diagnostic is the more
		// useful report, so prefer it. Err() gates the Check call: with
		// a violation already pending, Check only enriches it — it never
		// sweeps the mid-event state the panic left behind.
		func() {
			defer func() { _ = recover() }()
			if mm.Monitor().Err() == nil {
				return
			}
			verr := mm.Monitor().Check(mm)
			var v *invariant.Violation
			if errors.As(verr, &v) {
				res.Outcome = OutcomeViolation
				res.Rule = v.Rule
				res.Diagnostic = fmt.Sprintf("%v\n(protocol assertion fired in the same event: %v)", verr, p)
			}
		}()
	}()

	r := rand.New(rand.NewSource(seed))
	script, addrs := randomScript(r, cfg)

	mcfg := sim.DefaultConfig()
	mcfg.Nodes = cfg.Nodes
	mcfg.Invariants = true
	mcfg.InvariantEvery = cfg.CheckEvery
	mcfg.Faults = faults.Plan{
		Seed:     uint64(seed) + 1, // Plan seed 0 means "unseeded"; keep seeds distinct
		DropProb: cfg.Drop,
		DupProb:  cfg.Dup,
		JitterNs: cfg.JitterNs,
	}

	opts := variant(seed)
	if cfg.Spec {
		opts.Speculation = true
	}
	m, err := machine.New(mcfg, opts, script)
	if err != nil {
		res.Outcome = OutcomeError
		res.Diagnostic = err.Error()
		return res
	}
	mm = m
	if cfg.Spec {
		if _, err := speculate.Attach(m, specAttachConfig(seed)); err != nil {
			res.Outcome = OutcomeError
			res.Diagnostic = err.Error()
			return res
		}
	}
	if cfg.PerturbNs > 0 {
		window := cfg.PerturbNs + 1
		s := mix64(uint64(seed))
		m.Engine().SetPerturb(func(at sim.Time, seq uint64) sim.Time {
			return sim.Time(mix64(s^mix64(seq)) % window)
		})
	}
	if cfg.Corrupt != CorruptNone {
		// Each event carries the attempts left in Seq; a retry fires
		// 200ns later with one fewer.
		var kind sim.EventKind
		kind = m.Engine().RegisterHandler(func(rec *sim.EventRec) {
			if corrupt(m, cfg, addrs, int(rec.Seq)) {
				m.Engine().PostAfter(200, sim.EventRec{Kind: kind, Seq: rec.Seq - 1})
			}
		})
		m.Engine().PostAfter(sim.Time(cfg.CorruptAtNs), sim.EventRec{Kind: kind, Seq: 64})
	}

	err = m.Run(cfg.MaxEvents)
	res.Events = m.Engine().Fired()
	res.Accesses = m.Accesses()
	res.Messages = m.Monitor().Messages()
	if err == nil {
		res.Outcome = OutcomeOK
		return res
	}
	res.Diagnostic = err.Error()
	var v *invariant.Violation
	if errors.As(err, &v) {
		res.Outcome = OutcomeViolation
		res.Rule = v.Rule
	} else {
		res.Outcome = OutcomeStall
	}
	return res
}

// Sweep runs n consecutive seeds starting at start over a pool of
// workers goroutines (1 = serial) and returns every result in seed
// order. RunSeed is pure in (cfg, seed), so the worker count changes
// wall-clock time only — the returned slice is identical for any
// workers value.
func Sweep(cfg Config, start int64, n, workers int) []Result {
	out, _ := parallel.Map(n, workers, func(i int) (Result, error) {
		return RunSeed(cfg, start+int64(i)), nil
	})
	return out
}
