// Package workload defines the shared-memory reference generators that
// stand in for the paper's five scientific applications (Section 5.2,
// Table 4), plus the micro-patterns (producer-consumer, migratory,
// read-modify-write) used by examples and unit tests.
//
// Each generator produces, per processor and per iteration, a sequence
// of loads and stores to a shared address space. The generators do not
// compute anything; they reproduce each application's *sharing
// patterns* — which is all the Cosmos predictor can observe, since it
// sees only the coherence message stream those patterns induce
// (Section 6.1 analyzes exactly these patterns per application).
package workload

import (
	"fmt"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

// Access is one memory reference by a processor.
type Access struct {
	Addr  coherence.Addr
	Write bool
}

// App is a workload: a fixed number of processors iterating over
// barrier-separated phases.
//
// Every paper generator (appbt, barnes, dsmc, moldyn, unstructured)
// also implements Appender, and its Accesses is a wrapper over
// AppendAccesses. Their instances hold per-instance scratch buffers and
// memoized layout state (moldyn's current interaction-list epoch,
// barnes' tree assignments), so an instance belongs to one machine and
// is not safe for concurrent use; build one per goroutine.
//
// The machine's unit of progress is a *phase* (all processors run
// their access sequence, then synchronize). One application-level
// iteration — the unit Tables 4 and 8 count — may span several phases:
// real applications separate compute from exchange with barriers or
// flags, and collapsing them into one racy phase would destroy the
// producer-consumer orderings the paper's signatures depend on.
type App interface {
	// Name returns the benchmark name as used in the paper's tables.
	Name() string
	// Procs returns the number of processors the workload was built for.
	Procs() int
	// Iterations returns the total number of barrier-separated phases.
	Iterations() int
	// Accesses returns the ordered references processor p performs in
	// phase iter. It must be deterministic: calling it twice with the
	// same arguments returns the same sequence.
	Accesses(p, iter int) []Access
	// PhasesPerIteration returns how many phases make up one
	// application-level iteration (>= 1).
	PhasesPerIteration() int
}

// Appender is an optional App capability: generators that can append a
// phase's access sequence into a caller-provided buffer implement it,
// so a caller replaying phases (the machine's issue loop) can recycle
// one buffer per processor instead of allocating a fresh slice every
// (processor, phase) pair. The appended contents must be identical to
// what Accesses returns for the same arguments, in any call order.
//
// Every paper generator implements it. Each indexes its sharing sets by
// processor, so a call costs O(the processor's own accesses) rather
// than a scan of every block's sharers, and once its scratch has grown
// a sweep over all (processor, phase) pairs allocates nothing. The
// scratch and memo live in the instance: concurrent calls on one
// instance race.
type Appender interface {
	AppendAccesses(dst []Access, p, iter int) []Access
}

// AppendAccesses appends processor p's phase-iter access sequence to
// dst and returns the extended slice, using the app's Appender fast
// path when it has one and falling back to copying Accesses otherwise.
func AppendAccesses(app App, dst []Access, p, iter int) []Access {
	if a, ok := app.(Appender); ok {
		return a.AppendAccesses(dst, p, iter)
	}
	return append(dst, app.Accesses(p, iter)...)
}

// Scale selects the size of the synthetic workloads. Tests use
// ScaleSmall to stay fast; the experiment harness uses ScaleFull.
type Scale int

const (
	// ScaleSmall shrinks data structures and iteration counts for
	// unit tests.
	ScaleSmall Scale = iota
	// ScaleMedium is used by quick command-line runs.
	ScaleMedium
	// ScaleFull is the configuration the reproduced tables use.
	ScaleFull
)

func (s Scale) String() string {
	switch s {
	case ScaleSmall:
		return "small"
	case ScaleMedium:
		return "medium"
	case ScaleFull:
		return "full"
	}
	return fmt.Sprintf("Scale(%d)", int(s))
}

// rng is a small deterministic PRNG (xorshift64*) so workload layout
// decisions are reproducible and independent of math/rand's evolution
// across Go releases.
type rng struct{ s uint64 }

// seededRNG returns the generator as a value, for callers that keep it
// on the stack; newRNG wraps it for the historical pointer-style call
// sites. Both apply the same zero-seed substitution, so they generate
// identical streams for identical seeds.
func seededRNG(seed uint64) rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return rng{s: seed}
}

func newRNG(seed uint64) *rng {
	r := seededRNG(seed)
	return &r
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		panic("workload: intn with non-positive n")
	}
	return int(r.next() % uint64(n))
}

// float returns a value in [0, 1).
func (r *rng) float() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// permInto appends a deterministic pseudo-random permutation of [0, n)
// to buf (a Fisher-Yates shuffle drawing n-1 values), so callers with
// a reusable buffer generate it without a per-call allocation.
func (r *rng) permInto(buf []int, n int) []int {
	start := len(buf)
	for i := 0; i < n; i++ {
		buf = append(buf, i)
	}
	p := buf[start:]
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return buf
}

// recurringOrderInto appends to buf one of k recurring traversal
// orders of [0, n) for a given stream identity and iteration. Real
// codes traverse their data in program order; races and work imbalance
// perturb the order, but the perturbations *recur* rather than being
// fresh randomness — which is why Cosmos' history depth can adapt to
// them (Section 6.2: "history information allows Cosmos to learn from
// and adapt to the noise"). Variant 0 (the dominant program order) is
// used with probability base; otherwise one of the k-1 recurring
// alternates. Once buf has grown to n it does not allocate.
func recurringOrderInto(buf []int, seed uint64, id uint64, iter, n, k int, base float64) []int {
	pick := seededRNG(seed ^ 0x0bde ^ id<<20 ^ uint64(iter)*0x9e37)
	v := 0
	if k > 1 && pick.float() >= base {
		v = 1 + pick.intn(k-1)
	}
	order := seededRNG(seed ^ 0x9e37 ^ id<<8 ^ uint64(v))
	return order.permInto(buf, n)
}

// paperApps names the five paper benchmarks' constructors, in the order
// the paper's tables list them.
var paperApps = []struct {
	name  string
	build func(procs int, scale Scale) App
}{
	{"appbt", func(procs int, scale Scale) App { return NewAppBT(procs, scale) }},
	{"barnes", func(procs int, scale Scale) App { return NewBarnes(procs, scale) }},
	{"dsmc", func(procs int, scale Scale) App { return NewDSMC(procs, scale) }},
	{"moldyn", func(procs int, scale Scale) App { return NewMoldyn(procs, scale) }},
	{"unstructured", func(procs int, scale Scale) App { return NewUnstructured(procs, scale) }},
}

// Registry returns the five paper benchmarks at the given scale for a
// machine with procs processors, in the order the paper's tables list
// them: appbt, barnes, dsmc, moldyn, unstructured.
func Registry(procs int, scale Scale) []App {
	apps := make([]App, len(paperApps))
	for i, a := range paperApps {
		apps[i] = a.build(procs, scale)
	}
	return apps
}

// ByName returns the named benchmark or an error listing valid names.
// It builds only the named generator.
func ByName(name string, procs int, scale Scale) (App, error) {
	for _, a := range paperApps {
		if a.name == name {
			return a.build(procs, scale), nil
		}
	}
	return nil, fmt.Errorf("workload: unknown benchmark %q (want appbt, barnes, dsmc, moldyn, or unstructured)", name)
}
