package stats

import (
	"fmt"
	"io"
	"math/bits"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/trace"
)

// windowSize is the streaming evaluation window: 64Ki records (1 MiB
// of 16-byte Records) — large enough to amortize the calls into the
// source, small enough that peak evaluation memory is dominated by
// predictor state, not trace storage, at any node count.
const windowSize = 64 * 1024

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
}

// serialEval is the shared per-record state of both evaluators:
// EvaluateStream drives it over every slot from bounded windows in
// arrival order, and evaluateSharded runs one per slot over that
// slot's sub-stream. One observe body keeps the paths identical by
// construction.
type serialEval struct {
	tally
	opts Options
	// banks holds one bank per slot, starting at slot base: all
	// 2*nodes slots for the streamed walk, a single slot for a shard.
	base     int
	banks    []*core.Bank
	lastType map[slotAddr]coherence.MsgType
}

// tally is a walk's outcome for every lane of its bank layout. Totals
// do not depend on the configuration, so they are counted once; hits
// are counted per lane.
type tally struct {
	lanes int
	total counts
	hits  []counts // by lane
	// iterTotal[i] counts iteration i's records; iterHits[i*lanes+l]
	// lane l's hits among them.
	iterTotal []uint64
	iterHits  []uint64
	// arcIndex numbers the arcs seen; arcTotal and arcHits are indexed
	// like the iteration counters.
	arcIndex map[Arc]int32
	arcTotal []uint64
	arcHits  []uint64
	// mhr counts MHR entries by side; pht[i] configuration i's PHT
	// entries by side.
	mhr [2]uint64
	pht [][2]uint64
}

// counts is one lane's hits (or every lane's totals) by side and by
// message type.
type counts struct {
	side  [2]uint64
	types [coherence.NumMsgTypes]uint64
}

func newTally(lay *core.Layout, opts Options) tally {
	t := tally{
		lanes: lay.Lanes(),
		hits:  make([]counts, lay.Lanes()),
		pht:   make([][2]uint64, len(lay.Configs())),
	}
	if opts.TrackArcs {
		t.arcIndex = make(map[Arc]int32)
	}
	return t
}

// newSerialEval prepares an evaluator of the slots
// base..base+len(banks)-1, each with its own bank following lay.
func newSerialEval(lay *core.Layout, opts Options, base int, banks []*core.Bank) *serialEval {
	ev := &serialEval{tally: newTally(lay, opts), opts: opts, base: base, banks: banks}
	if opts.TrackArcs {
		// Room for 64 blocks per slot, capped for whole-machine walks.
		ev.lastType = make(map[slotAddr]coherence.MsgType, min(1024, 64*len(banks)))
	}
	return ev
}

// arc returns the index of arc a, numbering it on first sighting.
func (t *tally) arc(a Arc) int {
	i, ok := t.arcIndex[a]
	if !ok {
		i = int32(len(t.arcTotal))
		t.arcIndex[a] = i
		//cosmosvet:allow hotpath one counter row per distinct arc, first sighting only
		t.arcTotal = append(t.arcTotal, 0)
		//cosmosvet:allow hotpath one counter row per distinct arc, first sighting only
		t.arcHits = append(t.arcHits, make([]uint64, t.lanes)...)
	}
	return int(i)
}

// observe feeds each record through its slot's bank and updates every
// aggregate. This is the per-record hot path; it takes a run of
// records so the loop, not a call per record, carries the walk.
//
//cosmosvet:hotpath
func (ev *serialEval) observe(recs []trace.Record) {
	t, opts := &ev.tally, &ev.opts
	banks, base, lanes := ev.banks, ev.base, ev.lanes
	for _, rec := range recs {
		if opts.MaxIterations > 0 && int(rec.Iter) >= opts.MaxIterations {
			continue
		}
		slot := int(rec.Node)*2 + int(rec.Side)
		b := banks[slot-base]
		hits := b.Observe(rec.Addr, rec.Tuple())
		if opts.ForgetOnWriteback && rec.Side == trace.CacheSide && rec.Type == coherence.WritebackAck {
			b.Forget(rec.Addr)
		}

		t.total.side[rec.Side]++
		t.total.types[rec.Type]++
		for int(rec.Iter) >= len(t.iterTotal) {
			//cosmosvet:allow hotpath grows once to the trace's iteration count, then never again
			t.iterTotal = append(t.iterTotal, 0)
			//cosmosvet:allow hotpath grows once to the trace's iteration count, then never again
			t.iterHits = append(t.iterHits, make([]uint64, lanes)...)
		}
		t.iterTotal[rec.Iter]++
		arc := -1
		if opts.TrackArcs {
			key := slotAddr{slot: int32(slot), addr: rec.Addr}
			if from, ok := ev.lastType[key]; ok {
				arc = t.arc(Arc{Side: rec.Side, From: from, To: rec.Type})
				t.arcTotal[arc]++
			}
			ev.lastType[key] = rec.Type
		}
		for ; hits != 0; hits &= hits - 1 {
			l := bits.TrailingZeros32(hits)
			h := &t.hits[l]
			h.side[rec.Side]++
			h.types[rec.Type]++
			t.iterHits[int(rec.Iter)*lanes+l]++
			if arc >= 0 {
				t.arcHits[arc*lanes+l]++
			}
		}
	}
}

// finish folds the banks' memory counts into the tally and drops the
// banks and arc state, so nothing the caller keeps reaches a bank.
func (ev *serialEval) finish() *tally {
	for i, b := range ev.banks {
		side := (ev.base + i) % 2
		ev.mhr[side] += b.MHREntries()
		for c := range ev.pht {
			ev.pht[c][side] += b.PHTEntries(c)
		}
	}
	ev.banks, ev.lastType = nil, nil
	return &ev.tally
}

// merge adds o's counts to t. o must cover slots disjoint from t's, as
// the slot partials of a sharded evaluation do: every count is then a
// plain sum.
func (t *tally) merge(o *tally) {
	t.total.add(&o.total)
	for l := range t.hits {
		t.hits[l].add(&o.hits[l])
	}
	if n := len(o.iterTotal) - len(t.iterTotal); n > 0 {
		t.iterTotal = append(t.iterTotal, make([]uint64, n)...)
		t.iterHits = append(t.iterHits, make([]uint64, n*t.lanes)...)
	}
	addInto(t.iterTotal, o.iterTotal)
	addInto(t.iterHits, o.iterHits)
	// The map range only accumulates into keyed rows; where a row lands
	// never reaches a Result.
	for a, oi := range o.arcIndex {
		i := t.arc(a)
		t.arcTotal[i] += o.arcTotal[oi]
		addInto(t.arcHits[i*t.lanes:], o.arcHits[int(oi)*t.lanes:int(oi+1)*t.lanes])
	}
	for s := range t.mhr {
		t.mhr[s] += o.mhr[s]
	}
	for c := range t.pht {
		for s := range t.pht[c] {
			t.pht[c][s] += o.pht[c][s]
		}
	}
}

func (c *counts) add(o *counts) {
	addInto(c.side[:], o.side[:])
	addInto(c.types[:], o.types[:])
}

// addInto adds src[i] to dst[i] for every i of src.
func addInto(dst, src []uint64) {
	for i, v := range src {
		dst[i] += v
	}
}

// results builds one Result per configuration of lay from the tally.
// Each Result owns its slices and maps.
func (t *tally) results(app string, lay *core.Layout, opts Options) []*Result {
	cfgs := lay.Configs()
	out := make([]*Result, len(cfgs))
	cache, dir := trace.CacheSide, trace.DirectorySide
	for i, cfg := range cfgs {
		l := lay.Lane(i)
		h := &t.hits[l]
		r := &Result{
			App:         app,
			Config:      cfg,
			Cache:       Counter{Total: t.total.side[cache], Hits: h.side[cache]},
			Dir:         Counter{Total: t.total.side[dir], Hits: h.side[dir]},
			CacheMemory: core.MemoryStats{MHREntries: t.mhr[cache], PHTEntries: t.pht[i][cache]},
			DirMemory:   core.MemoryStats{MHREntries: t.mhr[dir], PHTEntries: t.pht[i][dir]},
		}
		r.Overall = Counter{Total: r.Cache.Total + r.Dir.Total, Hits: r.Cache.Hits + r.Dir.Hits}
		r.Memory = core.MemoryStats{
			MHREntries: r.CacheMemory.MHREntries + r.DirMemory.MHREntries,
			PHTEntries: r.CacheMemory.PHTEntries + r.DirMemory.PHTEntries,
		}
		for ty := range r.Types {
			r.Types[ty] = Counter{Total: t.total.types[ty], Hits: h.types[ty]}
		}
		if len(t.iterTotal) > 0 {
			r.PerIter = make([]Counter, len(t.iterTotal))
			for it := range r.PerIter {
				r.PerIter[it] = Counter{Total: t.iterTotal[it], Hits: t.iterHits[it*t.lanes+l]}
			}
		}
		if opts.TrackArcs {
			r.Arcs = make(map[Arc]*Counter, len(t.arcIndex))
			arcs := make([]Counter, len(t.arcTotal))
			for a, ai := range t.arcIndex {
				arcs[ai] = Counter{Total: t.arcTotal[ai], Hits: t.arcHits[int(ai)*t.lanes+l]}
				r.Arcs[a] = &arcs[ai]
			}
		}
		out[i] = r
	}
	return out
}

// EvaluateStream runs the serial arrival-order evaluation over a
// record stream without ever materializing the trace: at most one
// windowSize-record window, allocated once per call, plus the per-slot
// bank state is resident. For the same records it produces a Result
// identical to Evaluate's — the streaming-equivalence regression pins
// this — which is what keeps peak evaluation RSS flat as node count
// (and with it trace length) grows.
//
// app and nodes come from the stream's header
// (trace.StreamReader.App/Nodes) or from the machine that is being
// captured live.
func EvaluateStream(src RecordSource, app string, nodes int, cfg core.Config, opts StreamOptions) (*Result, error) {
	lay, err := core.NewLayout([]core.Config{cfg})
	if err != nil {
		return nil, err
	}
	if nodes <= 0 {
		return nil, fmt.Errorf("stats: streaming evaluation needs a positive node count, got %d", nodes)
	}
	ev := newSerialEval(lay, opts.Options, 0, new(Banks).take(lay, 2*nodes))
	buf := make([]trace.Record, windowSize)
	for {
		n, err := src.Next(buf)
		for _, rec := range buf[:n] {
			if int(rec.Node) >= nodes {
				return nil, fmt.Errorf("stats: record references node %d of %d", rec.Node, nodes)
			}
		}
		ev.observe(buf[:n])
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	return ev.finish().results(app, lay, opts.Options)[0], nil
}
