package stats

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/trace"
)

// referenceEvaluate is the plain reading of the evaluation the banks
// must reproduce: one core.Predictor per (node, side), fed every record
// in arrival order, each outcome counted straight into the Result.
func referenceEvaluate(tr *trace.Trace, cfg core.Config, opts Options) *Result {
	preds := make([]*core.Predictor, 2*tr.Nodes)
	for i := range preds {
		preds[i] = core.MustNew(cfg)
	}
	res := &Result{App: tr.App, Config: cfg}
	if opts.TrackArcs {
		res.Arcs = make(map[Arc]*Counter)
	}
	lastType := make(map[slotAddr]coherence.MsgType)
	for _, rec := range tr.Records {
		if opts.MaxIterations > 0 && int(rec.Iter) >= opts.MaxIterations {
			continue
		}
		slot := int(rec.Node)*2 + int(rec.Side)
		p := preds[slot]
		_, _, correct := p.Observe(rec.Addr, rec.Tuple())
		if opts.ForgetOnWriteback && rec.Side == trace.CacheSide && rec.Type == coherence.WritebackAck {
			p.Forget(rec.Addr)
		}
		if rec.Side == trace.CacheSide {
			res.Cache.add(correct)
		} else {
			res.Dir.add(correct)
		}
		res.Overall.add(correct)
		res.Types[rec.Type].add(correct)
		for int(rec.Iter) >= len(res.PerIter) {
			res.PerIter = append(res.PerIter, Counter{})
		}
		res.PerIter[rec.Iter].add(correct)
		if opts.TrackArcs {
			key := slotAddr{slot: int32(slot), addr: rec.Addr}
			if from, ok := lastType[key]; ok {
				arc := Arc{Side: rec.Side, From: from, To: rec.Type}
				if res.Arcs[arc] == nil {
					res.Arcs[arc] = &Counter{}
				}
				res.Arcs[arc].add(correct)
			}
			lastType[key] = rec.Type
		}
	}
	for slot, p := range preds {
		res.Memory.Add(p)
		if slot%2 == int(trace.CacheSide) {
			res.CacheMemory.Add(p)
		} else {
			res.DirMemory.Add(p)
		}
	}
	return res
}

// paperSet is the eight configurations Tables 5-7 share.
var paperSet = []core.Config{
	{Depth: 1}, {Depth: 2}, {Depth: 3}, {Depth: 4},
	{Depth: 1, FilterMax: 1}, {Depth: 1, FilterMax: 2},
	{Depth: 2, FilterMax: 1}, {Depth: 2, FilterMax: 2},
}

// TestEvaluateAllMatchesReference pins every evaluation path to the
// plain per-predictor loop: EvaluateAll over one, two and eight
// configurations (and a set filling a depth's lanes, and one with a
// repeated configuration) at 1, 2 and 8 workers, and EvaluateStream
// per configuration, with ForgetOnWriteback and MaxIterations each on
// and off, must return Results identical field for field.
func TestEvaluateAllMatchesReference(t *testing.T) {
	tr := messyTrace(5, 4000)
	// Node 4's cache side runs three iterations past every other slot,
	// so the slot partials' iteration counters differ in length.
	for i := 0; i < 60; i++ {
		tr.Records = append(tr.Records, trace.Record{
			Node: 4, Side: trace.CacheSide, Sender: coherence.NodeID(i % 3),
			Type: coherence.GetROResp, Addr: coherence.Addr(i%4) * 64, Iter: int32(8 + i/20),
		})
	}
	tr.Iterations = 11
	full := []core.Config{
		{Depth: 1, FilterMax: 0}, {Depth: 1, FilterMax: 1}, {Depth: 1, FilterMax: 2},
		{Depth: 1, FilterMax: 3}, {Depth: 3, FilterMax: 7},
	}
	sets := [][]core.Config{
		{{Depth: 2}},
		{{Depth: 3, FilterMax: 1}, {Depth: 1}},
		paperSet,
		full,
		{{Depth: 2, FilterMax: 1}, {Depth: 1}, {Depth: 2, FilterMax: 1}},
	}
	var enc bytes.Buffer
	if err := trace.Write(&enc, tr); err != nil {
		t.Fatal(err)
	}
	for _, forget := range []bool{false, true} {
		for _, maxIter := range []int{0, 3} {
			opts := Options{TrackArcs: true, ForgetOnWriteback: forget, MaxIterations: maxIter}
			name := fmt.Sprintf("forget=%v/maxIter=%d", forget, maxIter)
			for _, cfgs := range sets {
				want := make([]*Result, len(cfgs))
				for i, c := range cfgs {
					want[i] = referenceEvaluate(tr, c, opts)
				}
				for _, workers := range []int{1, 2, 8} {
					o := opts
					o.Workers = workers
					got, err := EvaluateAll(tr, cfgs, o)
					if err != nil {
						t.Fatal(err)
					}
					for i := range cfgs {
						if !reflect.DeepEqual(got[i], want[i]) {
							t.Errorf("%s workers %d: %+v of %v diverges from the reference:\n got %+v\nwant %+v",
								name, workers, cfgs[i], cfgs, got[i], want[i])
						}
					}
				}
				for i, c := range cfgs {
					sr, err := trace.NewStreamReader(bytes.NewReader(enc.Bytes()))
					if err != nil {
						t.Fatal(err)
					}
					got, err := EvaluateStream(sr, sr.App(), sr.Nodes(), c, StreamOptions{Options: opts, WindowSize: 333})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want[i]) {
						t.Errorf("%s: streamed %+v diverges from the reference", name, c)
					}
				}
			}
		}
	}
}

// TestEvaluateAllLimits: no configurations give no results, and a set
// with more filter settings at one depth than a bank holds is refused.
func TestEvaluateAllLimits(t *testing.T) {
	tr := messyTrace(2, 10)
	if res, err := EvaluateAll(tr, nil, Options{}); err != nil || len(res) != 0 {
		t.Fatalf("EvaluateAll(nil) = %v, %v", res, err)
	}
	var wide []core.Config
	for f := 0; f <= core.BankLanes; f++ {
		wide = append(wide, core.Config{Depth: 2, FilterMax: f})
	}
	if _, err := EvaluateAll(tr, wide, Options{}); err == nil {
		t.Errorf("EvaluateAll accepted %d filter settings at one depth", len(wide))
	}
}

// TestBanksReuse: a free list kept across evaluations of different
// traces and configuration sets hands back reset banks, so its results
// match fresh evaluations.
func TestBanksReuse(t *testing.T) {
	var fl Banks
	for round, tr := range []*trace.Trace{messyTrace(4, 3000), loopTrace(40), messyTrace(6, 2000)} {
		for _, cfgs := range [][]core.Config{paperSet, {{Depth: 4, FilterMax: 2}}} {
			opts := Options{Workers: 2, TrackArcs: true}
			got, err := fl.EvaluateAll(tr, cfgs, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range cfgs {
				if want := referenceEvaluate(tr, c, opts); !reflect.DeepEqual(got[i], want) {
					t.Errorf("round %d: %+v diverges from the reference after bank reuse", round, c)
				}
			}
		}
	}
	if len(fl.free) > 2 {
		t.Errorf("2-worker evaluations left %d banks on the free list, want at most 2", len(fl.free))
	}
}
