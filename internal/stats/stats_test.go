package stats

import (
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/trace"
)

// loopTrace builds a trace where node 0's directory receives a fixed
// 2-message cycle for one block, rounds times, one round per iteration.
func loopTrace(rounds int) *trace.Trace {
	tr := &trace.Trace{App: "loop", Nodes: 2, Iterations: rounds}
	for i := 0; i < rounds; i++ {
		tr.Records = append(tr.Records,
			trace.Record{Node: 0, Side: trace.DirectorySide, Sender: 1, Type: coherence.GetRWReq, Addr: 0x40, Iter: uint16(i)},
			trace.Record{Node: 0, Side: trace.DirectorySide, Sender: 1, Type: coherence.InvalRWResp, Addr: 0x40, Iter: uint16(i)},
		)
	}
	return tr
}

func TestEvaluateConvergesOnLoop(t *testing.T) {
	tr := loopTrace(50)
	res, err := Evaluate(tr, core.Config{Depth: 1}, Options{TrackArcs: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overall.Total != 100 {
		t.Fatalf("Total = %d, want 100", res.Overall.Total)
	}
	// Depth 1: message 1 has no history, message 2 trains A->B,
	// message 3 misses (B's pattern unseen) and trains B->A; everything
	// after hits: 97 hits.
	if res.Overall.Hits != 97 {
		t.Errorf("Hits = %d, want 97", res.Overall.Hits)
	}
	if res.Dir.Total != 100 || res.Cache.Total != 0 {
		t.Errorf("side split: dir=%d cache=%d", res.Dir.Total, res.Cache.Total)
	}
	if len(res.PerIter) != 50 {
		t.Fatalf("PerIter length = %d", len(res.PerIter))
	}
	// Iteration 0 and 1 contain the misses; from iteration 2 on all hit.
	if res.PerIter[0].Hits != 0 || res.PerIter[2].Accuracy() != 1.0 {
		t.Errorf("PerIter[0] = %+v, PerIter[2] = %+v", res.PerIter[0], res.PerIter[2])
	}
}

func TestEvaluateArcs(t *testing.T) {
	tr := loopTrace(50)
	res, err := Evaluate(tr, core.Config{Depth: 1}, Options{TrackArcs: true})
	if err != nil {
		t.Fatal(err)
	}
	arcs := res.DominantArcs(trace.DirectorySide, 0)
	if len(arcs) != 2 {
		t.Fatalf("arcs = %v", arcs)
	}
	// Two arcs, each ~half the references.
	for _, a := range arcs {
		if a.RefShare < 0.49 || a.RefShare > 0.51 {
			t.Errorf("arc %v RefShare = %v", a.Arc, a.RefShare)
		}
		if a.Accuracy() < 0.9 {
			t.Errorf("arc %v accuracy = %v", a.Arc, a.Accuracy())
		}
	}
	want := Arc{Side: trace.DirectorySide, From: coherence.GetRWReq, To: coherence.InvalRWResp}
	if s, ok := res.ArcStatFor(want); !ok || s.Total != 50 {
		t.Errorf("ArcStatFor(%v) = %+v, %v", want, s, ok)
	}
	if _, ok := res.ArcStatFor(Arc{Side: trace.CacheSide, From: 1, To: 2}); ok {
		t.Error("ArcStatFor returned a nonexistent arc")
	}
	// Without arc tracking, no arcs are recorded.
	res2, err := Evaluate(tr, core.Config{Depth: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Arcs) != 0 {
		t.Error("arcs recorded without TrackArcs")
	}
}

func TestEvaluateMaxIterations(t *testing.T) {
	tr := loopTrace(50)
	res, err := Evaluate(tr, core.Config{Depth: 1}, Options{MaxIterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overall.Total != 20 {
		t.Errorf("Total = %d, want 20", res.Overall.Total)
	}
	if len(res.PerIter) != 10 {
		t.Errorf("PerIter length = %d, want 10", len(res.PerIter))
	}
}

func TestEvaluatePerNodePredictors(t *testing.T) {
	// Two nodes receiving conflicting patterns for the same address:
	// separate predictors mean both converge independently.
	tr := &trace.Trace{App: "split", Nodes: 2, Iterations: 1}
	for i := 0; i < 20; i++ {
		tr.Records = append(tr.Records,
			trace.Record{Node: 0, Side: trace.DirectorySide, Sender: 1, Type: coherence.GetROReq, Addr: 0x40},
			trace.Record{Node: 0, Side: trace.DirectorySide, Sender: 1, Type: coherence.InvalROResp, Addr: 0x40},
			trace.Record{Node: 1, Side: trace.DirectorySide, Sender: 0, Type: coherence.GetRWReq, Addr: 0x40},
			trace.Record{Node: 1, Side: trace.DirectorySide, Sender: 0, Type: coherence.UpgradeReq, Addr: 0x40},
		)
	}
	res, err := Evaluate(tr, core.Config{Depth: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 80 messages; each node's 2-cycle costs 3 misses to learn (cold,
	// first pattern A, first pattern B), so 80 - 6 hits.
	if res.Overall.Hits != 74 {
		t.Errorf("Hits = %d, want 74", res.Overall.Hits)
	}
}

func TestEvaluateMemoryAccounting(t *testing.T) {
	tr := loopTrace(50)
	res, err := Evaluate(tr, core.Config{Depth: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// One block at one predictor: 1 MHR entry, 2 PHT entries.
	if res.Memory.MHREntries != 1 || res.Memory.PHTEntries != 2 {
		t.Errorf("Memory = %+v", res.Memory)
	}
	if res.DirMemory.MHREntries != 1 || res.CacheMemory.MHREntries != 0 {
		t.Errorf("side memory: dir=%+v cache=%+v", res.DirMemory, res.CacheMemory)
	}
	if got := res.Memory.Ratio(); got != 2.0 {
		t.Errorf("Ratio = %v", got)
	}
}

func TestEvaluateRejectsBadConfig(t *testing.T) {
	if _, err := Evaluate(loopTrace(1), core.Config{Depth: 0}, Options{}); err == nil {
		t.Error("Evaluate accepted bad config")
	}
}

func TestCounterAccuracy(t *testing.T) {
	var c Counter
	if c.Accuracy() != 0 {
		t.Error("empty counter accuracy != 0")
	}
	c.add(true)
	c.add(false)
	if c.Accuracy() != 0.5 {
		t.Errorf("Accuracy = %v", c.Accuracy())
	}
}

func TestSteadyStateIteration(t *testing.T) {
	tr := loopTrace(100)
	res, err := Evaluate(tr, core.Config{Depth: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The loop is fully learned by iteration 2; steady state must be
	// detected early.
	if ss := res.SteadyStateIteration(0.01); ss > 3 {
		t.Errorf("SteadyStateIteration = %d, want <= 3", ss)
	}
	// Single-iteration trace: 0 by convention.
	res1, _ := Evaluate(loopTrace(1), core.Config{Depth: 1}, Options{})
	if ss := res1.SteadyStateIteration(0.01); ss != 0 {
		t.Errorf("single-iteration steady state = %d", ss)
	}
}

func TestByType(t *testing.T) {
	tr := loopTrace(50)
	res, err := Evaluate(tr, core.Config{Depth: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	types := res.ByType()
	if len(types) != 2 {
		t.Fatalf("ByType = %v", types)
	}
	var share float64
	for _, ts := range types {
		if ts.Total != 50 {
			t.Errorf("%v total = %d, want 50", ts.Type, ts.Total)
		}
		if ts.Accuracy() < 0.9 {
			t.Errorf("%v accuracy = %v", ts.Type, ts.Accuracy())
		}
		share += ts.Share
	}
	if share < 0.999 || share > 1.001 {
		t.Errorf("shares sum to %v", share)
	}
}
