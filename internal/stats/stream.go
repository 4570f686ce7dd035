package stats

import (
	"fmt"
	"io"
	"sync"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/trace"
)

// DefaultWindowSize is the streaming evaluation window: 64Ki records
// (~1.1 MiB of Record structs) — large enough to amortize the window
// recycling, small enough that peak evaluation memory is dominated by
// predictor state, not trace storage, at any node count.
const DefaultWindowSize = 64 * 1024

// RecordSource yields trace records in arrival order, in bounded
// chunks. *trace.StreamReader implements it; tests substitute
// synthetic sources.
type RecordSource interface {
	// Next fills buf with up to len(buf) records and returns how many
	// it wrote. It returns io.EOF (with n == 0) once the source is
	// drained and verified.
	Next(buf []trace.Record) (int, error)
}

// StreamOptions tunes a streaming evaluation. The embedded
// Options.Workers field is ignored: the streaming path is the serial
// arrival-order walk, windowed.
type StreamOptions struct {
	Options
	// WindowSize bounds how many records are resident at once
	// (DefaultWindowSize when <= 0).
	WindowSize int
	// OnWindow, if set, runs after each window is evaluated with the
	// number of records it held. The memory-flatness tests use it to
	// sample peak RSS mid-evaluation.
	OnWindow func(records int)
}

// windowPool recycles record windows across streaming evaluations, so
// a sweep over many (trace, config) cells allocates its window once.
var windowPool sync.Pool

func borrowWindow(n int) []trace.Record {
	if v := windowPool.Get(); v != nil {
		if buf := v.([]trace.Record); cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]trace.Record, n)
}

func releaseWindow(buf []trace.Record) {
	windowPool.Put(buf[:cap(buf)])
}

// serialEval is the shared per-record state of every evaluator:
// evaluateSerial drives it from a materialized record slice,
// EvaluateStream from bounded windows, and evaluateSharded runs one
// per slot over that slot's sub-stream. One observe body keeps every
// path identical to the serial reference by construction.
type serialEval struct {
	res  Result
	opts Options
	// preds holds one predictor per slot, starting at slot base: all
	// 2*nodes slots for the arrival-order walks, a single slot for a
	// shard.
	base     int
	preds    []*core.Predictor
	lastType map[slotAddr]coherence.MsgType
}

// newSerialEval builds an evaluator over every slot of a nodes-node
// machine.
func newSerialEval(app string, nodes int, cfg core.Config, opts Options) (*serialEval, error) {
	ev := &serialEval{}
	if err := ev.init(app, 0, make([]*core.Predictor, 2*nodes), cfg, opts); err != nil {
		return nil, err
	}
	return ev, nil
}

// init prepares ev to evaluate the slots base..base+len(preds)-1,
// filling preds with predictors borrowed from the shared pool (a reset
// predictor is state-identical to a fresh one).
func (ev *serialEval) init(app string, base int, preds []*core.Predictor, cfg core.Config, opts Options) error {
	*ev = serialEval{res: Result{App: app, Config: cfg}, opts: opts, base: base, preds: preds}
	if opts.TrackArcs {
		ev.res.Arcs = make(map[Arc]*Counter)
		// Room for 64 blocks per slot, capped for whole-machine walks.
		ev.lastType = make(map[slotAddr]coherence.MsgType, min(1024, 64*len(preds)))
	}
	for i := range preds {
		p, err := borrowPredictor(cfg)
		if err != nil {
			return err
		}
		preds[i] = p
	}
	return nil
}

// observe feeds each record through its slot's predictor and updates
// every aggregate. This is the per-record hot path; it takes a run of
// records so the loop, not a call per record, carries the walk.
//
//cosmosvet:hotpath
func (ev *serialEval) observe(recs []trace.Record) {
	res, opts := &ev.res, &ev.opts
	preds, base, perIter := ev.preds, ev.base, res.PerIter
	for _, rec := range recs {
		if opts.MaxIterations > 0 && int(rec.Iter) >= opts.MaxIterations {
			continue
		}
		slot := int(rec.Node)*2 + int(rec.Side)
		p := preds[slot-base]
		_, _, correct := p.Observe(rec.Addr, rec.Tuple())
		if opts.ForgetOnWriteback && rec.Side == trace.CacheSide && rec.Type == coherence.WritebackAck {
			p.Forget(rec.Addr)
		}

		if rec.Side == trace.CacheSide {
			res.Cache.add(correct)
		} else {
			res.Dir.add(correct)
		}
		res.Types[rec.Type].add(correct)
		for int(rec.Iter) >= len(perIter) {
			//cosmosvet:allow hotpath grows once to the trace's iteration count, then never again
			perIter = append(perIter, Counter{})
		}
		perIter[rec.Iter].add(correct)

		if opts.TrackArcs {
			key := slotAddr{slot: int32(slot), addr: rec.Addr}
			if from, ok := ev.lastType[key]; ok {
				arc := Arc{Side: rec.Side, From: from, To: rec.Type}
				c := res.Arcs[arc]
				if c == nil {
					//cosmosvet:allow hotpath one counter per distinct arc, first sighting only
					c = &Counter{}
					res.Arcs[arc] = c
				}
				c.add(correct)
			}
			ev.lastType[key] = rec.Type
		}
	}
	res.PerIter = perIter
}

// finish folds predictor memory stats into the result and returns the
// predictors to the pool. The returned Result points into ev, so ev
// drops its predictor table and arc state: a caller that keeps the
// Result must not keep released predictors reachable with it.
func (ev *serialEval) finish() *Result {
	// observe counts each side; the overall counter is their sum.
	ev.res.Overall = Counter{
		Total: ev.res.Cache.Total + ev.res.Dir.Total,
		Hits:  ev.res.Cache.Hits + ev.res.Dir.Hits,
	}
	for i, p := range ev.preds {
		ev.res.Memory.Add(p)
		if (ev.base+i)%2 == int(trace.CacheSide) {
			ev.res.CacheMemory.Add(p)
		} else {
			ev.res.DirMemory.Add(p)
		}
		releasePredictor(p)
	}
	ev.preds, ev.lastType = nil, nil
	return &ev.res
}

// EvaluateStream runs the serial arrival-order evaluation over a
// record stream without ever materializing the trace: at most one
// WindowSize-record window (recycled through a pool) plus the per-slot
// predictor state is resident. For the same records it produces a
// Result identical to Evaluate's — the streaming-equivalence
// regression pins this — which is what keeps peak evaluation RSS flat
// as node count (and with it trace length) grows.
//
// app and nodes come from the stream's header
// (trace.StreamReader.App/Nodes) or from the machine that is being
// captured live.
func EvaluateStream(src RecordSource, app string, nodes int, cfg core.Config, opts StreamOptions) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nodes <= 0 {
		return nil, fmt.Errorf("stats: streaming evaluation needs a positive node count, got %d", nodes)
	}
	win := opts.WindowSize
	if win <= 0 {
		win = DefaultWindowSize
	}
	ev, err := newSerialEval(app, nodes, cfg, opts.Options)
	if err != nil {
		return nil, err
	}
	buf := borrowWindow(win)
	defer releaseWindow(buf)
	for {
		n, err := src.Next(buf)
		for _, rec := range buf[:n] {
			if int(rec.Node) >= nodes {
				return nil, fmt.Errorf("stats: record references node %d of %d", rec.Node, nodes)
			}
		}
		ev.observe(buf[:n])
		if opts.OnWindow != nil && n > 0 {
			opts.OnWindow(n)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	return ev.finish(), nil
}
