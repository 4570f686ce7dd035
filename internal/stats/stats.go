// Package stats evaluates predictors over captured traces and
// aggregates the accuracy accounting the paper's tables and figures
// report: overall / cache-side / directory-side prediction rates
// (Table 5), per-arc accuracy and reference shares (Figures 6-7,
// Table 8), per-iteration adaptation series (Section 6.2), and
// predictor memory consumption (Table 7).
//
// Accuracy convention (used consistently everywhere): a prediction is
// a hit iff both predicted sender and type match the actual next
// message for that block at that predictor; "no prediction" (cold
// block, unseen pattern) counts as a miss.
package stats

import (
	"sort"
	"sync"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/parallel"
	"github.com/cosmos-coherence/cosmos/internal/trace"
)

// Counter accumulates prediction outcomes.
type Counter struct {
	Total uint64
	Hits  uint64
}

func (c *Counter) add(hit bool) {
	c.Total++
	if hit {
		c.Hits++
	}
}

func (c *Counter) merge(o Counter) {
	c.Total += o.Total
	c.Hits += o.Hits
}

// Accuracy returns hits/total (0 for an empty counter).
func (c Counter) Accuracy() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Total)
}

// Arc identifies a transition between two consecutively received
// message types for a block, on one side. Figures 6 and 7 draw these
// arcs; Table 8 tracks three of dsmc's.
type Arc struct {
	Side trace.Side
	From coherence.MsgType
	To   coherence.MsgType
}

// ArcStat is the measured accuracy and reference share of one arc.
type ArcStat struct {
	Arc Arc
	Counter
	// RefShare is this arc's fraction of all references on its side
	// (the Y of the paper's X/Y arc labels).
	RefShare float64
}

// Result is the outcome of evaluating one predictor configuration over
// one trace.
type Result struct {
	App    string
	Config core.Config

	Overall Counter
	Cache   Counter
	Dir     Counter

	// PerIter[i] aggregates predictions during application iteration i.
	PerIter []Counter
	// Arcs maps each observed transition to its outcome counts.
	Arcs map[Arc]*Counter

	// Types[t] aggregates predictions for messages of type t.
	Types [coherence.NumMsgTypes]Counter

	// Memory aggregates MHR/PHT sizes over all predictors, and per side.
	Memory      core.MemoryStats
	CacheMemory core.MemoryStats
	DirMemory   core.MemoryStats
}

// Options tunes an evaluation.
type Options struct {
	// MaxIterations, if positive, stops the evaluation after that many
	// application iterations (Table 8 evaluates dsmc at 4, 80 and 320
	// iterations).
	MaxIterations int
	// TrackArcs enables per-arc accounting (Figures 6-7, Table 8).
	TrackArcs bool
	// ForgetOnWriteback models the merged-table implementation of
	// Section 3.7: when a cache-side predictor sees a block's
	// writeback acknowledged (the line was replaced), the block's
	// history and patterns are discarded. Only meaningful on traces
	// from bounded-cache runs.
	ForgetOnWriteback bool
	// Workers > 1 fans the trace's per-(node, side) slot streams over
	// a bounded worker pool (slot sharding): predictor state never
	// crosses a slot boundary, so each stream evaluates independently
	// and the counters merge in fixed slot order, giving results
	// identical to the serial arrival-order walk for every width.
	// 0 or 1 runs the serial reference path.
	Workers int
}

// Evaluate runs one Cosmos predictor per node and side over the trace
// and aggregates the paper's metrics. The predictor placement follows
// Section 3.2: "We allocate a Cosmos predictor for every cache or
// directory in the machine." It is EvaluateAll with one configuration.
func Evaluate(tr *trace.Trace, cfg core.Config, opts Options) (*Result, error) {
	res, err := EvaluateAll(tr, []core.Config{cfg}, opts)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// EvaluateAll evaluates every configuration in cfgs over the trace in
// one walk and returns one Result per configuration, in order, each
// identical to what Evaluate would return for it. Each (node, side)
// slot runs one core.Bank, which shares the block lookup, the history
// and the pattern tables between the configurations; a set with more
// than core.BankLanes filter settings at one depth is refused. With
// opts.Workers > 1 the evaluation is slot-sharded (see
// Options.Workers); every path produces identical results, which the
// equivalence regression tests pin.
func EvaluateAll(tr *trace.Trace, cfgs []core.Config, opts Options) ([]*Result, error) {
	return new(Banks).EvaluateAll(tr, cfgs, opts)
}

// Banks is a free list of predictor banks: an evaluation takes a bank
// per slot it walks at once — every slot for the arrival-order walk,
// one per worker for a sharded one — and puts them back afterwards, so
// a caller that keeps one Banks across evaluations builds its banks
// once and reuses their arrays. The zero value is an empty list. It is
// safe for concurrent use.
type Banks struct {
	mu   sync.Mutex
	free []*core.Bank
}

// take returns n banks reset to lay: free ones first, the rest built
// in one allocation.
func (fl *Banks) take(lay *core.Layout, n int) []*core.Bank {
	banks := make([]*core.Bank, n)
	fl.mu.Lock()
	k := min(n, len(fl.free))
	copy(banks, fl.free[len(fl.free)-k:])
	fl.free = fl.free[:len(fl.free)-k]
	fl.mu.Unlock()
	for _, b := range banks[:k] {
		b.Reset(lay)
	}
	if k < n {
		slab := make([]core.Bank, n-k)
		for i := range slab {
			slab[i].Reset(lay)
			banks[k+i] = &slab[i]
		}
	}
	return banks
}

// release puts banks back on the free list once their counts are read.
func (fl *Banks) release(banks []*core.Bank) {
	fl.mu.Lock()
	fl.free = append(fl.free, banks...)
	fl.mu.Unlock()
}

// EvaluateAll is the package-level EvaluateAll, drawing its banks
// from fl and putting them back when it returns.
func (fl *Banks) EvaluateAll(tr *trace.Trace, cfgs []core.Config, opts Options) ([]*Result, error) {
	if len(cfgs) == 0 {
		return nil, nil
	}
	lay, err := core.NewLayout(cfgs)
	if err != nil {
		return nil, err
	}
	var t *tally
	if opts.Workers > 1 {
		t = fl.evaluateSharded(tr, lay, opts)
	} else {
		t = fl.evaluateSerial(tr, lay, opts)
	}
	return t.results(tr.App, lay, opts), nil
}

// slotAddr keys per-(predictor slot, block) arc state. One flat map
// keyed by (slot, block) replaces the earlier per-slot map slice: the
// hot loop does a single hash probe instead of a slice load plus a
// probe into one of 2*nodes separately grown tables.
type slotAddr struct {
	slot int32
	addr coherence.Addr
}

// evaluateSerial is the reference implementation: one pass over the
// records in arrival order, with a bank per slot. The per-record body
// lives in serialEval.observe (stream.go), shared with EvaluateStream
// and with each slot of evaluateSharded, so no path can drift from the
// others.
func (fl *Banks) evaluateSerial(tr *trace.Trace, lay *core.Layout, opts Options) *tally {
	banks := fl.take(lay, 2*tr.Nodes)
	defer fl.release(banks)
	ev := newSerialEval(lay, opts, 0, banks)
	ev.observe(tr.Records)
	return ev.finish()
}

// evaluateSharded fans the trace's slot streams over the worker pool:
// each slot runs serialEval.observe over its own sub-stream with a
// bank from fl, and the per-slot tallies merge in fixed slot order.
// Exactness rests on the slot-independence argument from
// trace.Partition: a slot's bank (and its arc state, keyed per block
// within the slot) is driven only by that slot's records, in original
// relative order, so each partial equals the serial walk's
// contribution from that slot and the merged sums equal the serial
// totals.
func (fl *Banks) evaluateSharded(tr *trace.Trace, lay *core.Layout, opts Options) *tally {
	part := tr.Partition()
	// Slots without records contribute nothing, not even memory.
	partials, _ := parallel.Map(part.Slots(), opts.Workers, func(s int) (*tally, error) {
		recs := part.Records(s)
		if len(recs) == 0 {
			return nil, nil
		}
		banks := fl.take(lay, 1)
		defer fl.release(banks)
		ev := newSerialEval(lay, opts, s, banks)
		// Records arrive in iteration order, so the slot's last one
		// sizes its per-iteration counters in one allocation.
		iters := int(recs[len(recs)-1].Iter) + 1
		if opts.MaxIterations > 0 {
			iters = min(iters, opts.MaxIterations)
		}
		ev.iterTotal = make([]uint64, 0, iters)
		ev.iterHits = make([]uint64, 0, iters*lay.Lanes())
		ev.observe(recs)
		return ev.finish(), nil
	})
	t := newTally(lay, opts)
	for _, p := range partials {
		if p != nil {
			t.merge(p)
		}
	}
	return &t
}

// DominantArcs returns the side's arcs sorted by descending reference
// count, with RefShare computed against all of that side's arc
// references, truncated to at most n entries (n <= 0 means all). This
// is the data behind Figures 6 and 7's labelled transitions.
func (r *Result) DominantArcs(side trace.Side, n int) []ArcStat {
	var total uint64
	for arc, c := range r.Arcs {
		if arc.Side == side {
			total += c.Total
		}
	}
	var out []ArcStat
	for arc, c := range r.Arcs {
		if arc.Side != side {
			continue
		}
		s := ArcStat{Arc: arc, Counter: *c}
		if total > 0 {
			s.RefShare = float64(c.Total) / float64(total)
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Counter.Total != out[j].Counter.Total {
			return out[i].Counter.Total > out[j].Counter.Total
		}
		// Deterministic tie-break on the arc itself.
		a, b := out[i].Arc, out[j].Arc
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// ArcStatFor returns the stat for one specific arc (Table 8 queries
// dsmc's three named transitions), with RefShare relative to the arc's
// side.
func (r *Result) ArcStatFor(arc Arc) (ArcStat, bool) {
	c, ok := r.Arcs[arc]
	if !ok {
		return ArcStat{Arc: arc}, false
	}
	var total uint64
	for a, cc := range r.Arcs {
		if a.Side == arc.Side {
			total += cc.Total
		}
	}
	s := ArcStat{Arc: arc, Counter: *c}
	if total > 0 {
		s.RefShare = float64(c.Total) / float64(total)
	}
	return s, true
}

// SteadyStateIteration returns the first application iteration from
// which every subsequent windowed accuracy stays within tolerance of
// the run's final windowed accuracy — the paper's "time to adapt"
// (Section 6.2) made operational. Windows are ~5% of the run (at least
// one iteration), so a long stable tail cannot mask a slow warm-up.
// It returns 0 for traces with at most one iteration.
func (r *Result) SteadyStateIteration(tolerance float64) int {
	n := len(r.PerIter)
	if n <= 1 {
		return 0
	}
	w := n / 20
	if w < 1 {
		w = 1
	}
	// windowAcc(i) = accuracy over iterations [i, i+w).
	windowAcc := func(i int) (float64, bool) {
		var c Counter
		for j := i; j < i+w && j < n; j++ {
			c.Total += r.PerIter[j].Total
			c.Hits += r.PerIter[j].Hits
		}
		if c.Total == 0 {
			return 0, false
		}
		return c.Accuracy(), true
	}
	// The converged level: accuracy over the last quarter of the run.
	var tail Counter
	for j := n - (n+3)/4; j < n; j++ {
		tail.Total += r.PerIter[j].Total
		tail.Hits += r.PerIter[j].Hits
	}
	if tail.Total == 0 {
		return 0
	}
	target := tail.Accuracy()
	// Steady state is *achieved* at the first window that reaches the
	// converged level (one-sided: later noise dips, e.g. periodic
	// re-training, do not push the achievement point out).
	for i := 0; i <= n-w; i++ {
		if acc, ok := windowAcc(i); ok && acc >= target-tolerance {
			return i
		}
	}
	return n - 1
}

// TypeStat is the prediction accuracy over messages of one type.
type TypeStat struct {
	Type coherence.MsgType
	Counter
	// Share is this type's fraction of all evaluated messages.
	Share float64
}

// ByType breaks the result down by actual message type — which kinds
// of coherence traffic Cosmos predicts well. Every evaluation fills
// the per-type counters it reads.
func (r *Result) ByType() []TypeStat {
	var total uint64
	for _, c := range r.Types {
		total += c.Total
	}
	var out []TypeStat
	for mt := coherence.MsgType(1); mt < coherence.NumMsgTypes; mt++ {
		c := r.Types[mt]
		if c.Total == 0 {
			continue
		}
		s := TypeStat{Type: mt, Counter: c}
		if total > 0 {
			s.Share = float64(c.Total) / float64(total)
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}
