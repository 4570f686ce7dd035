// Package experiments contains one driver per table and figure of the
// paper's evaluation (Section 6), shared by the cmd/ binaries and the
// benchmark harness. Each driver returns plain result structs; the
// report package renders them.
//
// The methodology mirrors Section 5: each benchmark is simulated once
// on the Table 3 machine running the Stache protocol, the per-node
// incoming coherence message traces are captured, and predictor
// variants are evaluated over the captured traces. Every driver takes
// the Suite that holds those traces; a machine variant (another
// latency, protocol option or cache bound) simulates on a Suite of its
// own only when it changes the machine.
package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/machine"
	"github.com/cosmos-coherence/cosmos/internal/parallel"
	"github.com/cosmos-coherence/cosmos/internal/sim"
	"github.com/cosmos-coherence/cosmos/internal/stache"
	"github.com/cosmos-coherence/cosmos/internal/stats"
	"github.com/cosmos-coherence/cosmos/internal/trace"
	"github.com/cosmos-coherence/cosmos/internal/tracecache"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

// maxSimEvents bounds any single simulation; hitting it means livelock.
const maxSimEvents = 2_000_000_000

// Config selects the machine and workload scale for a run of the
// experiment suite.
type Config struct {
	Scale   workload.Scale
	Machine sim.Config
	Stache  stache.Options
	// Workers bounds the pool the experiment drivers shard independent
	// cells — (app x depth) table cells, figure panels, sweep points —
	// over. 0 or 1 runs serially. Every width produces byte-identical
	// results; the pool changes only wall-clock time.
	Workers int
	// TraceCache, when non-empty, is a directory where captured traces
	// are persisted in CTRC form, keyed by a content hash of everything
	// that determines the trace (app, scale, machine and protocol
	// configuration, trace-format version). A hit skips the simulation
	// entirely; determinism makes the decoded trace byte-identical to a
	// fresh capture. Workers is deliberately NOT part of the key: pool
	// width never changes results.
	TraceCache string
}

// traceKey derives the cache key for one benchmark under this
// configuration. The key hashes a %#v rendering of the inputs — all
// flat structs, no maps, so the rendering is deterministic — plus the
// CTRC format version, so codec bumps invalidate stale entries instead
// of tripping the version check.
func (c Config) traceKey(app string) string {
	h := sha256.New()
	fmt.Fprintf(h, "ctrc-v%d|app=%s|scale=%d|machine=%#v|stache=%#v",
		trace.Version, app, c.Scale, c.Machine, c.Stache)
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// DefaultConfig is the paper's setup: Table 3 machine, half-migratory
// Stache, full-scale workloads.
func DefaultConfig() Config {
	return Config{
		Scale:   workload.ScaleFull,
		Machine: sim.DefaultConfig(),
		Stache:  stache.DefaultOptions(),
	}
}

// Run simulates one app and captures its trace.
func Run(app workload.App, cfg Config) (*trace.Trace, error) {
	rec := trace.NewRecorder(app.Name(), cfg.Machine.Nodes, app.PhasesPerIteration(), 0)
	if _, err := simulate(app, cfg, func(m *machine.Machine) { m.AddObserver(rec) }); err != nil {
		return nil, err
	}
	return rec.Trace(), nil
}

// simulate runs app to completion on a fresh machine built from cfg,
// after attach has wired its observers in, and returns the machine for
// its end-of-run statistics.
func simulate(app workload.App, cfg Config, attach func(*machine.Machine)) (*machine.Machine, error) {
	if err := checkCapture(app); err != nil {
		return nil, err
	}
	m, err := machine.New(cfg.Machine, cfg.Stache, app)
	if err != nil {
		return nil, fmt.Errorf("experiments: building machine for %s: %w", app.Name(), err)
	}
	attach(m)
	if err := m.Run(maxSimEvents); err != nil {
		return nil, fmt.Errorf("experiments: simulating %s: %w", app.Name(), err)
	}
	return m, nil
}

// checkCapture refuses, before anything is simulated, an app whose
// iterations a trace record cannot number (trace.MaxIter).
func checkCapture(app workload.App) error {
	if err := trace.CheckIterations(app.Name(), app.Iterations(), app.PhasesPerIteration()); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	return nil
}

// Suite lazily generates and memoizes the five benchmark traces for a
// configuration, so the table drivers share one simulation per app.
//
// A Suite is safe for concurrent use: the parallel experiment engine
// shards table cells and figure panels across a worker pool, and any
// number of workers may demand the same trace — the first to arrive
// simulates, the rest block on the per-app once. Each simulation runs
// on its own single-threaded sim.Engine with its own predictors, so
// the only shared state is the memo tables and the bank free list,
// each behind a lock.
type Suite struct {
	cfg     Config
	workers int

	mu      sync.Mutex
	traces  map[string]*traceEntry
	results map[resultKey]*resultEntry
	// banks is the free list every evaluation of the suite draws its
	// predictor banks from.
	banks stats.Banks
}

// resultKey names one memoized evaluation. Options.Workers is zeroed:
// the pool width never changes a result.
type resultKey struct {
	app  string
	cfg  core.Config
	opts stats.Options
}

// resultEntry memoizes one evaluation; done closes once res and err
// are set. The memoized Result is shared by every caller, which must
// treat it as read-only.
type resultEntry struct {
	done chan struct{}
	res  *stats.Result
	err  error
}

// traceEntry memoizes one benchmark's simulation exactly once.
type traceEntry struct {
	once sync.Once
	tr   *trace.Trace
	err  error
}

// NewSuite creates an empty suite whose drivers shard their
// independent cells over a pool of cfg.Workers (at least 1; 1 is
// serial). Results are identical for every width — the pool only
// changes wall-clock time — which the determinism regression tests
// enforce.
func NewSuite(cfg Config) *Suite {
	return &Suite{
		cfg:     cfg,
		workers: max(cfg.Workers, 1),
		traces:  make(map[string]*traceEntry),
		results: make(map[resultKey]*resultEntry),
	}
}

// variant returns the suite for a machine variant of s: s's
// configuration changed by edit. An edit that leaves the trace key
// alone (no change, or only Workers or TraceCache) yields s itself, so
// the variant reads s's memoized traces and results; any other edit
// yields a fresh Suite of the edited configuration.
func (s *Suite) variant(edit func(*Config)) *Suite {
	c := s.cfg
	edit(&c)
	if c.traceKey("") == s.cfg.traceKey("") {
		return s
	}
	return NewSuite(c)
}

// sweep runs cell on every (variant, benchmark) pair, variants outer
// and benchmarks in table order, over s's worker pool, and returns the
// results in that order. Variant x's suite is s.variant of edit(x), so
// the variant that keeps s's machine reads s's memoized traces and
// results instead of simulating again.
func sweep[V, R any](s *Suite, xs []V, edit func(*Config, V), cell func(v *Suite, x V, app string) (R, error)) ([]R, error) {
	suites := make([]*Suite, len(xs))
	for i, x := range xs {
		suites[i] = s.variant(func(c *Config) { edit(c, x) })
	}
	apps := s.Apps()
	return parallel.Map(len(xs)*len(apps), s.workers, func(i int) (R, error) {
		v := i / len(apps)
		return cell(suites[v], xs[v], apps[i%len(apps)])
	})
}

// Config returns the suite's configuration.
func (s *Suite) Config() Config { return s.cfg }

// Apps returns the benchmark names in table order.
func (s *Suite) Apps() []string {
	return []string{"appbt", "barnes", "dsmc", "moldyn", "unstructured"}
}

// Prefetch simulates every benchmark up front on the suite's worker
// pool and memoizes the traces. The machines are independent
// single-threaded simulators, so this cuts a full-suite run's wall
// time by up to the benchmark count. Subsequent Trace calls hit the
// cache.
func (s *Suite) Prefetch() error {
	names := s.Apps()
	if err := parallel.ForEach(len(names), s.workers, func(i int) error {
		_, err := s.Trace(names[i])
		return err
	}); err != nil {
		return fmt.Errorf("experiments: prefetching: %w", err)
	}
	return nil
}

// Trace returns the memoized trace for a benchmark, simulating on
// first use. Concurrent callers for the same benchmark share one
// simulation.
func (s *Suite) Trace(name string) (*trace.Trace, error) {
	s.mu.Lock()
	e, ok := s.traces[name]
	if !ok {
		e = &traceEntry{}
		s.traces[name] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		app, err := workload.ByName(name, s.cfg.Machine.Nodes, s.cfg.Scale)
		if err != nil {
			e.err = err
			return
		}
		cache := tracecache.Cache{Dir: s.cfg.TraceCache}
		key := s.cfg.traceKey(name)
		if tr, ok, err := cache.Load(key); err != nil {
			// A corrupted or truncated entry fails the run loudly
			// instead of silently re-simulating: see tracecache.Load.
			e.err = err
			return
		} else if ok {
			if tr.App != name || tr.Nodes != s.cfg.Machine.Nodes {
				e.err = fmt.Errorf("experiments: trace cache entry %s holds %s/%d nodes, want %s/%d (key collision? delete the cache dir)",
					key, tr.App, tr.Nodes, name, s.cfg.Machine.Nodes)
				return
			}
			e.tr = tr
			return
		}
		e.tr, e.err = Run(app, s.cfg)
		if e.err == nil {
			e.err = cache.Store(key, e.tr)
		}
	})
	return e.tr, e.err
}

// Evaluate runs a predictor configuration over a benchmark's trace:
// EvaluateAll with one configuration.
func (s *Suite) Evaluate(name string, pcfg core.Config, opts stats.Options) (*stats.Result, error) {
	res, err := s.EvaluateAll(name, []core.Config{pcfg}, opts)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// EvaluateAll runs predictor configurations over a benchmark's trace
// and returns one Result per configuration, in order. Results are
// memoized per (benchmark, configuration, options), the way traces
// are: the configurations not yet memoized are evaluated together in
// one bank walk (stats.EvaluateAll), and concurrent callers for the
// same configuration share one evaluation. The suite's worker pool
// width is threaded into the evaluation so table drivers get
// slot-sharded evaluation for free; callers that set opts.Workers
// explicitly keep their value. Returned Results are shared: callers
// must not modify them.
func (s *Suite) EvaluateAll(name string, pcfgs []core.Config, opts stats.Options) ([]*stats.Result, error) {
	key := opts
	key.Workers = 0
	if opts.Workers == 0 {
		opts.Workers = s.workers
	}
	entries := make([]*resultEntry, len(pcfgs))
	var todo []core.Config
	var owned []*resultEntry
	s.mu.Lock()
	for i, c := range pcfgs {
		k := resultKey{app: name, cfg: c, opts: key}
		e, ok := s.results[k]
		if !ok {
			e = &resultEntry{done: make(chan struct{})}
			s.results[k] = e
			todo = append(todo, c)
			owned = append(owned, e)
		}
		entries[i] = e
	}
	s.mu.Unlock()

	if len(todo) > 0 {
		var res []*stats.Result
		tr, err := s.Trace(name)
		if err == nil {
			res, err = s.banks.EvaluateAll(tr, todo, opts)
		}
		for j, e := range owned {
			if err != nil {
				e.err = err
			} else {
				e.res = res[j]
			}
			close(e.done)
		}
	}
	out := make([]*stats.Result, len(pcfgs))
	for i, e := range entries {
		<-e.done
		if e.err != nil {
			return nil, e.err
		}
		out[i] = e.res
	}
	return out, nil
}
