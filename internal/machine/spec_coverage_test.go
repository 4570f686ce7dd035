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
// for the message's block before the handler runs (Machine.deliver
// invokes observers before dispatching).
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

	// Every live row must be reached by the runs above, except the
	// pending rows below. A row reached by a later change must leave
	// the list; a newly missed row must not join it.
	var rows []string
	reached := map[string]bool{}
	for _, tr := range stache.DirectoryTransitions {
		if tr.On != stache.DispRejected {
			row := fmt.Sprintf("directory %v/%v", tr.State, tr.Msg)
			rows = append(rows, row)
			reached[row] = dirSeen[dirPair{tr.State, tr.Msg}]
		}
	}
	for _, tr := range stache.CacheTransitions {
		if tr.On != stache.DispRejected {
			row := fmt.Sprintf("cache %v/%v", tr.State, tr.Msg)
			rows = append(rows, row)
			reached[row] = cacheSeen[cachePair{tr.State, tr.Msg}]
		}
	}
	for _, row := range rows {
		_, pending := pendingTransitions[row]
		switch {
		case !reached[row] && !pending:
			t.Errorf("no run reaches the live %s row", row)
		case reached[row] && pending:
			t.Errorf("the %s row is reached now: delete it from pendingTransitions", row)
		}
	}
	for row := range pendingTransitions {
		if _, live := reached[row]; !live {
			t.Errorf("pending row %s is not a live spec.go row", row)
		}
	}
	if t.Failed() {
		t.Logf("directory pairs seen: %v", fmt.Sprint(len(dirSeen)))
	}
}

// pendingTransitions names the live spec.go rows that the runs of
// TestRunsStayWithinDeclaredTransitions do not reach, one reason each.
// The list may only shrink: a row leaves it when a run reaches it, or
// when spec.go shows it impossible and flips it to DispRejected.
var pendingTransitions = map[string]string{
	"directory exclusive/get_rw_request":  "every writer here reads the block first, so a write to another node's read-write block arrives as get_ro_request",
	"directory busy/get_rw_request":       "a write miss never meets a transaction in flight on its block: writers here upgrade or miss on idle blocks",
	"directory idle/upgrade_request":      "the upgrader's copy must be invalidated and the block written back while the upgrade is in flight",
	"directory exclusive/upgrade_request": "the upgrader's copy must be invalidated by another writer that completes while the upgrade is in flight",
	"directory busy/upgrade_request":      "an upgrade must meet another transaction on its block; migratory blocks have one accessor at a time",
	"directory idle/writeback_request":    "a writeback must arrive after the directory already reclaimed the block from its writer",
	"directory shared/writeback_request":  "a writeback must cross a downgrade that left the block shared",
	"directory busy/writeback_request":    "a writeback must cross an invalidation or downgrade of its block; the bounded run evicts blocks nobody else requests meanwhile",
	"cache read-only/get_rw_response":     "follows only a directory-converted upgrade, which needs an unreached directory upgrade race",
	"cache invalid/upgrade_response":      "the upgrading copy must be invalidated while the upgrade is in flight",
	"cache invalid/inval_rw_request":      "a stale invalidation needs a writeback crossing it (directory busy/writeback_request)",
	"cache invalid/downgrade_request":     "a stale downgrade needs a writeback crossing it (directory busy/writeback_request)",
	"cache read-only/spec_push":           "the producer pushes only to consumers whose copies its write just invalidated",
	"cache read-write/spec_push":          "the producer pushes only to consumers whose copies its write just invalidated",
}
