package machine_test

import (
	"fmt"
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/governor"
	"github.com/cosmos-coherence/cosmos/internal/machine"
	"github.com/cosmos-coherence/cosmos/internal/sim"
	"github.com/cosmos-coherence/cosmos/internal/speculate"
	"github.com/cosmos-coherence/cosmos/internal/stache"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

// This test closes the loop between the declared transition tables
// (internal/stache/spec.go) and full-machine behavior: it records the
// (pre-delivery state, message type) pair of every message either
// controller receives across protocol variants — half-migratory, DASH
// downgrades, bounded caches with replacement, gated speculation with
// producer pushes — all with the runtime invariant monitor attached,
// and requires every observed pair to be declared with a live
// (non-rejected) disposition. The unit-level spec tests drive each
// declared row by hand; this one proves whole runs never leave the
// declared envelope, and that the runs collectively exercise every
// message type on both sides (so the check cannot pass vacuously).

type dirPair struct {
	State stache.EntryState
	Msg   coherence.MsgType
}

type cachePair struct {
	State stache.CacheState
	Msg   coherence.MsgType
}

// coverageRecorder snapshots the receiving controller's stable state
// for the message's block before the handler runs (both Deliver paths
// invoke observers before dispatching).
type coverageRecorder struct {
	m     *machine.Machine
	dir   map[dirPair]bool
	cache map[cachePair]bool
}

func newCoverageRecorder() *coverageRecorder {
	return &coverageRecorder{dir: map[dirPair]bool{}, cache: map[cachePair]bool{}}
}

func (r *coverageRecorder) ObserveDirectory(n coherence.NodeID, msg coherence.Msg) {
	st := stache.EntryIdle
	if info, ok := r.m.Directory(n).Entry(msg.Addr); ok {
		st = info.State
	}
	r.dir[dirPair{st, msg.Type}] = true
}

func (r *coverageRecorder) ObserveCache(n coherence.NodeID, msg coherence.Msg) {
	r.cache[cachePair{r.m.CacheState(n, msg.Addr), msg.Type}] = true
}

func (r *coverageRecorder) EndIteration(int) {}

// lenientGovernor admits speculation quickly, so the speculation run
// actually produces spec_push traffic.
func lenientGovernor() *governor.Config {
	return &governor.Config{
		CounterMax:  1,
		Threshold:   1,
		Window:      64,
		TripRate:    1.0,
		Cooldown:    8,
		ProbeStreak: 2,
	}
}

func TestRunsStayWithinDeclaredTransitions(t *testing.T) {
	dirLive := map[dirPair]bool{}
	for _, tr := range stache.DirectoryTransitions {
		if tr.On != stache.DispRejected {
			dirLive[dirPair{tr.State, tr.Msg}] = true
		}
	}
	cacheLive := map[cachePair]bool{}
	for _, tr := range stache.CacheTransitions {
		if tr.On != stache.DispRejected {
			cacheLive[cachePair{tr.State, tr.Msg}] = true
		}
	}

	dirSeen := map[dirPair]bool{}
	cacheSeen := map[cachePair]bool{}

	run := func(name string, opts stache.Options, mkApp func(coherence.Geometry) workload.App, attach bool) {
		t.Run(name, func(t *testing.T) {
			cfg := sim.DefaultConfig()
			cfg.Nodes = 8
			cfg.Invariants = true
			cfg.InvariantEvery = 256
			geom := coherence.MustGeometry(cfg.CacheBlockBytes, cfg.PageBytes, cfg.Nodes)
			m, err := machine.New(cfg, opts, mkApp(geom))
			if err != nil {
				t.Fatal(err)
			}
			rec := newCoverageRecorder()
			rec.m = m
			m.AddObserver(rec)
			if attach {
				_, err := speculate.Attach(m, speculate.AttachConfig{
					Actions:   speculate.Actions{DSI: true, Forward: true},
					Predictor: core.Config{Depth: 2},
					Governor:  lenientGovernor(),
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Run(50_000_000); err != nil {
				t.Fatal(err)
			}
			for p := range rec.dir {
				if !dirLive[p] {
					t.Errorf("directory received %v in state %v: not a declared live transition", p.Msg, p.State)
				}
				dirSeen[p] = true
			}
			for p := range rec.cache {
				if !cacheLive[p] {
					t.Errorf("cache received %v in state %v: not a declared live transition", p.Msg, p.State)
				}
				cacheSeen[p] = true
			}
		})
	}

	migratory := func(geom coherence.Geometry) workload.App {
		return workload.Migratory(8, workload.NewArena(geom).Alloc(8), 20)
	}
	producerConsumer := func(geom coherence.Geometry) workload.App {
		return workload.ProducerConsumer(8, 1, []int{2, 3}, workload.NewArena(geom).Alloc(16), 30)
	}

	run("half-migratory", stache.DefaultOptions(), migratory, false)

	dash := stache.DefaultOptions()
	dash.HalfMigratory = false
	run("dash-downgrades", dash, migratory, false)

	bounded := stache.DefaultOptions()
	bounded.CacheBlocks = 2
	bounded.CacheAssoc = 1
	run("bounded-cache", bounded, producerConsumer, false)

	spec := stache.DefaultOptions()
	spec.Speculation = true
	run("speculation", spec, producerConsumer, true)

	// The subset check above is only meaningful if the runs actually
	// exercised the protocol: collectively they must deliver every
	// message type each table declares.
	dirMsgs := map[coherence.MsgType]bool{}
	for p := range dirSeen {
		dirMsgs[p.Msg] = true
	}
	for _, tr := range stache.DirectoryTransitions {
		if !dirMsgs[tr.Msg] {
			t.Errorf("no run delivered %v to a directory; coverage is vacuous for it", tr.Msg)
		}
	}
	cacheMsgs := map[coherence.MsgType]bool{}
	for p := range cacheSeen {
		cacheMsgs[p.Msg] = true
	}
	for _, tr := range stache.CacheTransitions {
		if !cacheMsgs[tr.Msg] {
			t.Errorf("no run delivered %v to a cache; coverage is vacuous for it", tr.Msg)
		}
	}
	if t.Failed() {
		t.Logf("directory pairs seen: %v", fmt.Sprint(len(dirSeen)))
	}
}
