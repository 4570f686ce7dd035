package serve

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/faults"
	"github.com/cosmos-coherence/cosmos/internal/network"
	"github.com/cosmos-coherence/cosmos/internal/reliable"
	"github.com/cosmos-coherence/cosmos/internal/sim"
)

var testPredictor = core.Config{Depth: 2, FilterMax: 1}

// assertMatchesOracle checks every client's verified response log and
// the server's final predictor bytes against the transport-free
// oracle.
func assertMatchesOracle(t *testing.T, c *Cluster, workload [][]Obs) {
	t.Helper()
	for i, obs := range workload {
		wantResp, wantSnap, err := Oracle(testPredictor, obs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c.Clients[i].Recv, wantResp) {
			t.Fatalf("stream %d: response log diverges from oracle", i)
		}
		if got := c.Srv.PredictorSnapshot(i); !bytes.Equal(got, wantSnap) {
			t.Fatalf("stream %d: predictor state (%d bytes) differs from oracle (%d bytes)",
				i, len(got), len(wantSnap))
		}
	}
}

// TestServeMatchesOracle: an uninterrupted run over a faulty wire
// produces exactly the oracle's responses and predictor state.
func TestServeMatchesOracle(t *testing.T) {
	workload := GenWorkload(1, 3, 300)
	c, err := NewCluster(HarnessConfig{
		Dir:    t.TempDir(),
		Server: Config{Predictor: testPredictor, SnapshotEvery: 64},
		Plan:   faults.Plan{Seed: 5, DropProb: 0.02, DupProb: 0.02, JitterNs: 150},
	}, workload)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	assertMatchesOracle(t, c, workload)
	if st := c.Srv.Stats(); st.Applied != 900 || st.Checkpoints == 0 {
		t.Fatalf("stats = %+v, want 900 applied and periodic checkpoints", st)
	}
}

// TestKillRestoreByteEquivalence is the tentpole acceptance test: kill
// the server at a seeded instant, tear the unsynced WAL tail at a
// seeded byte, restore, resync, run to completion — and the service
// must be indistinguishable from one that never crashed: byte-equal
// predictor state and byte-equal response streams, with regenerated
// responses verified against what clients already held.
func TestKillRestoreByteEquivalence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		workload := GenWorkload(seed, 2+r.Intn(3), 250)
		c, err := NewCluster(HarnessConfig{
			Dir: t.TempDir(),
			Server: Config{Predictor: testPredictor,
				SnapshotEvery: 32 + r.Intn(64)},
			Plan: faults.Plan{Seed: uint64(seed), DropProb: 0.01, JitterNs: 100},
		}, workload)
		if err != nil {
			t.Fatal(err)
		}
		kills := 1 + r.Intn(3)
		for k := 0; k < kills; k++ {
			killAt := c.Eng.Now() + sim.Time(2_000+r.Intn(20_000))
			if err := c.Kill(killAt, r.Float64()); err != nil {
				t.Fatalf("seed %d kill %d: %v", seed, k, err)
			}
			if err := c.Restart(); err != nil {
				t.Fatalf("seed %d restart %d: %v", seed, k, err)
			}
		}
		if err := c.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		assertMatchesOracle(t, c, workload)
	}
}

// TestRecoveredStateIsByteIdentical kills mid-run and compares the
// restored predictors directly against a parallel server that was fed
// the same durable prefix — state equivalence without finishing the
// workload.
func TestRecoveredStateIsByteIdentical(t *testing.T) {
	workload := GenWorkload(3, 2, 400)
	c, err := NewCluster(HarnessConfig{
		Dir:    t.TempDir(),
		Server: Config{Predictor: testPredictor, SnapshotEvery: 50},
	}, workload)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(30_000, 0.4); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(); err != nil {
		t.Fatal(err)
	}
	for i := range workload {
		cursor := c.Srv.Cursor(i)
		// Feed exactly the durable prefix to a fresh predictor: the
		// restored predictor must hold identical bytes.
		p, err := core.New(testPredictor)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range workload[i][:cursor] {
			p.Observe(o.Addr, o.Tup)
		}
		if !bytes.Equal(c.Srv.PredictorSnapshot(i), p.Snapshot()) {
			t.Fatalf("stream %d: restored predictor differs from %d-observation oracle prefix", i, cursor)
		}
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	assertMatchesOracle(t, c, workload)
}

// rawHarness builds an engine/wire/transport/server stack without
// harness clients, for tests that drive crafted frames directly.
func rawHarness(t *testing.T, cfg Config, clients int) (*sim.Engine, *reliable.Transport, *Server, sim.EventKind) {
	t.Helper()
	simCfg := sim.DefaultConfig()
	simCfg.Nodes = clients + 1
	eng := &sim.Engine{}
	nw, err := network.New(eng, simCfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := reliable.New(eng, nw, simCfg)
	send := eng.RegisterHandler(func(rec *sim.EventRec) { tr.Send(rec.Msg) })
	for i := 0; i < clients; i++ {
		tr.Bind(coherence.NodeID(i), func(coherence.Msg) {})
	}
	cfg.Streams = clients
	cfg.Node = coherence.NodeID(clients)
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng, tr, store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, tr, srv, send
}

// sendAt posts msg onto the transport at simulated time at, through
// the send kind rawHarness registered.
func sendAt(eng *sim.Engine, send sim.EventKind, at sim.Time, msg coherence.Msg) {
	eng.Post(at, sim.EventRec{Kind: send, Msg: msg})
}

func sendObs(eng *sim.Engine, send sim.EventKind, at sim.Time, stream int, server coherence.NodeID, addr coherence.Addr) {
	sendAt(eng, send, at, obsMsg(coherence.NodeID(stream), server, addr,
		coherence.Tuple{Sender: 1, Type: coherence.GetROReq}))
}

// TestBackpressureShedsDeterministically floods a tiny queue from
// three streams of descending priority and pins the shed contract:
// the queue never grows past its bound, the lowest-priority stream is
// shed first, queries shed before any observation, and the whole
// outcome is deterministic run to run.
func TestBackpressureShedsDeterministically(t *testing.T) {
	run := func() (Stats, error) {
		cfg := Config{Predictor: testPredictor, MaxQueue: 4,
			ProcessNs: 100_000, Priority: []int{2, 1, 0}}
		eng, _, srv, send := rawHarness(t, cfg, 3)
		// 4 observations per stream, arriving interleaved long before
		// anything is processed: 12 arrivals into a queue of 4.
		for i := 0; i < 4; i++ {
			for s := 0; s < 3; s++ {
				sendObs(eng, send, sim.Time(100*(3*i+s)+1), s, srv.cfg.Node, coherence.Addr(64*i))
			}
		}
		// A query from the highest-priority stream while the queue is
		// full of observations: it must be shed, not an observation.
		sendAt(eng, send, 2_000, queryMsg(0, srv.cfg.Node, 0))
		if _, err := eng.Run(0); err != nil {
			return Stats{}, err
		}
		srv.Close()
		return srv.Stats(), srv.Err()
	}
	st, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxQueueDepth > 4 {
		t.Fatalf("queue reached %d, bound is 4", st.MaxQueueDepth)
	}
	if st.ShedQueries != 1 {
		t.Fatalf("ShedQueries = %d, want the full-queue query shed", st.ShedQueries)
	}
	// Stream 2 (lowest priority) bears the observation shedding;
	// stream 0 (highest) loses nothing but its query.
	if st.Shed[2] == 0 {
		t.Fatal("lowest-priority stream shed nothing under overload")
	}
	if st.Shed[0] != 1 || st.Dropped[0] != 0 {
		t.Fatalf("highest-priority stream shed=%d dropped=%d, want only its query shed",
			st.Shed[0], st.Dropped[0])
	}
	// A shed observation breaks contiguity: later arrivals drop.
	if st.Dropped[2] == 0 {
		t.Fatal("lagging stream dropped no follow-on observations")
	}
	// Determinism: an identical run sheds identically.
	st2, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, st2) {
		t.Fatalf("two identical overload runs diverged:\n%+v\n%+v", st, st2)
	}
}

// TestShedThenResyncRecoversStream: a lagging stream is re-admitted by
// Resync and serves correctly from its durable cursor.
func TestShedThenResyncRecoversStream(t *testing.T) {
	cfg := Config{Predictor: testPredictor, MaxQueue: 1, ProcessNs: 10_000}
	eng, _, srv, send := rawHarness(t, cfg, 1)
	for i := 0; i < 4; i++ {
		sendObs(eng, send, sim.Time(100*(i+1)), 0, srv.cfg.Node, 0)
	}
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if !srv.Lagging(0) {
		t.Fatal("overloaded stream did not go lagging")
	}
	applied := srv.Cursor(0)
	cursor, err := srv.Resync(0, applied)
	if err != nil || cursor != applied {
		t.Fatalf("Resync = %d, %v; want cursor %d", cursor, err, applied)
	}
	if srv.Lagging(0) {
		t.Fatal("Resync left the stream lagging")
	}
	sendObs(eng, send, eng.Now()+100, 0, srv.cfg.Node, 64)
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if srv.Cursor(0) != applied+1 {
		t.Fatalf("cursor %d after resynced observation, want %d", srv.Cursor(0), applied+1)
	}
}

// TestDeadlineTimesOutStaleWork: entries older than DeadlineNs are
// timed out rather than served stale.
func TestDeadlineTimesOutStaleWork(t *testing.T) {
	cfg := Config{Predictor: testPredictor, MaxQueue: 16,
		ProcessNs: 5_000, DeadlineNs: 6_000}
	eng, _, srv, send := rawHarness(t, cfg, 1)
	// Four near-simultaneous observations: by the time the third would
	// be served (t≈15000) it has waited 3×ProcessNs > DeadlineNs.
	for i := 0; i < 4; i++ {
		sendObs(eng, send, sim.Time(100+sim.Time(i)), 0, srv.cfg.Node, coherence.Addr(64*i))
	}
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.TimedOut[0] == 0 {
		t.Fatalf("no entries timed out: %+v", st)
	}
	if st.Applied+st.TimedOut[0]+st.Dropped[0] != 4 {
		t.Fatalf("entries unaccounted for: %+v", st)
	}
}

// TestTimeoutDropsQueuedObservations: a queue-head timeout breaks its
// stream's contiguity, and same-stream observations that were already
// queued behind it — which arrived later and may reach the head still
// fresh — must be dropped, not applied: applying observation n+1 after
// observation n was lost would advance the cursor over a hole, and
// after a resync the client would resend from the wrong index.
func TestTimeoutDropsQueuedObservations(t *testing.T) {
	cfg := Config{Predictor: testPredictor, MaxQueue: 16,
		ProcessNs: 5_000, DeadlineNs: 12_000}
	eng, _, srv, send := rawHarness(t, cfg, 1)
	// A burst of four: entries 0 and 1 are served within the deadline,
	// entry 2 times out at the head (waited ~15000 > 12000) and sets
	// lagging, entry 3 expires behind it.
	for i := 0; i < 4; i++ {
		sendObs(eng, send, sim.Time(100+sim.Time(i)), 0, srv.cfg.Node, coherence.Addr(64*i))
	}
	// Entry 4 arrives late enough to still be fresh (~6000ns old) when
	// it reaches the head at t≈25000: without the lagging check it would
	// be applied over the hole entry 2 left.
	sendObs(eng, send, 19_000, 0, srv.cfg.Node, coherence.Addr(256))
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if !srv.Lagging(0) {
		t.Fatal("timed-out stream did not go lagging")
	}
	if st.Dropped[0] == 0 {
		t.Fatalf("fresh observation behind the timeout hole was not dropped: %+v", st)
	}
	if st.Applied+st.TimedOut[0]+st.Dropped[0] != 5 {
		t.Fatalf("entries unaccounted for: %+v", st)
	}
	// The cursor froze at the hole: only the pre-timeout prefix applied.
	if srv.Cursor(0) != 2 {
		t.Fatalf("cursor = %d after the contiguity break, want 2", srv.Cursor(0))
	}
}

// TestShedKeepsPreBreakObservations: a shed victim is always the
// stream's newest queued entry, so observations queued before it are
// still contiguous — they must apply after the break; only arrivals
// after the hole drop.
func TestShedKeepsPreBreakObservations(t *testing.T) {
	cfg := Config{Predictor: testPredictor, MaxQueue: 2, ProcessNs: 10_000}
	eng, _, srv, send := rawHarness(t, cfg, 1)
	sendObs(eng, send, 100, 0, srv.cfg.Node, 0)      // applies from the head
	sendObs(eng, send, 200, 0, srv.cfg.Node, 64)     // queued before the break
	sendObs(eng, send, 300, 0, srv.cfg.Node, 128)    // overflows: shed, the hole
	sendObs(eng, send, 25_000, 0, srv.cfg.Node, 192) // post-break arrival: dropped
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if !srv.Lagging(0) {
		t.Fatal("shed stream did not go lagging")
	}
	if srv.Cursor(0) != 2 {
		t.Fatalf("cursor = %d, want 2: the observation queued before the break must still apply",
			srv.Cursor(0))
	}
	if st.Shed[0] != 1 || st.Dropped[0] != 1 {
		t.Fatalf("shed=%d dropped=%d, want 1 shed (the hole) and 1 drop (the post-break arrival)",
			st.Shed[0], st.Dropped[0])
	}
}

// TestTimedOutQueryAnswersWithTimeoutFrame: a query that waits past
// its deadline is answered with the dedicated timeout frame, not
// silence — a client must be able to tell a timed-out query from a
// lost one.
func TestTimedOutQueryAnswersWithTimeoutFrame(t *testing.T) {
	cfg := Config{Predictor: testPredictor, MaxQueue: 16,
		ProcessNs: 5_000, DeadlineNs: 6_000}
	eng, tr, srv, send := rawHarness(t, cfg, 1)
	var grants []coherence.MsgType
	tr.Bind(0, func(m coherence.Msg) { grants = append(grants, m.Grant) })
	// Three observations ahead of the query: by the time the query
	// reaches the head it has waited ~20000ns, far past the deadline.
	for i := 0; i < 3; i++ {
		sendObs(eng, send, sim.Time(100+sim.Time(i)), 0, srv.cfg.Node, coherence.Addr(64*i))
	}
	sendAt(eng, send, 110, queryMsg(0, srv.cfg.Node, 0))
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	var timeouts int
	for _, g := range grants {
		if g == grantQueryTimeout {
			timeouts++
		}
	}
	if timeouts != 1 {
		t.Fatalf("saw %d queryTimeout frames in %v, want exactly 1", timeouts, grants)
	}
	if r, isQuery := decodeResponse(queryTimeoutMsg(srv.cfg.Node, 0, 0)); !isQuery || r.OK {
		t.Fatalf("queryTimeout decodes as (%+v, %v), want a prediction-free query response", r, isQuery)
	}
}

// TestConfigRejectsOutOfRangePriority: priorities outside
// [0, maxPriority) would let a query outrank an observation in the
// shed ordering, so Validate must refuse them.
func TestConfigRejectsOutOfRangePriority(t *testing.T) {
	base := Config{Streams: 2, Node: 2, Predictor: testPredictor}
	for _, bad := range [][]int{{0, -1}, {maxPriority, 0}, {0, maxPriority + 7}} {
		cfg := base
		cfg.Priority = bad
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate accepted Priority %v", bad)
		}
	}
	ok := base
	ok.Priority = []int{0, maxPriority - 1}
	if err := ok.Validate(); err != nil {
		t.Errorf("Validate rejected in-range priorities: %v", err)
	}
}

// TestWatchdogReportsStall: a worker that makes no progress within the
// watchdog span — here one whose service time is longer than the span —
// fails the server with the diagnose dump instead of hanging.
func TestWatchdogReportsStall(t *testing.T) {
	cfg := Config{Predictor: testPredictor, WatchdogNs: 50_000}
	slow := cfg
	slow.ProcessNs = 2 * cfg.WatchdogNs
	eng, _, srv, send := rawHarness(t, slow, 1)
	var cbErr error
	srv.OnFailure(func(err error) { cbErr = err })
	sendObs(eng, send, 100, 0, srv.cfg.Node, 0)
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	err := srv.Err()
	if err == nil || cbErr == nil {
		t.Fatalf("stalled server did not fail (err=%v cb=%v)", err, cbErr)
	}
	for _, want := range []string{"no progress", "serve diagnostic at t=", "stream 0:", "head:"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("watchdog error missing %q:\n%v", want, err)
		}
	}
	// The watchdog must not keep a healthy drained server alive: a
	// fresh server that finishes its work lets the engine go quiet.
	eng2, _, srv2, send2 := rawHarness(t, cfg, 1)
	sendObs(eng2, send2, 100, 0, srv2.cfg.Node, 0)
	if _, err := eng2.Run(0); err != nil {
		t.Fatal(err)
	}
	if err := srv2.Err(); err != nil {
		t.Fatalf("healthy server tripped its watchdog: %v", err)
	}
}

// TestAckAheadOfRecoveredCursorClamps: after a crash loses WAL tail
// observations, a surviving client legitimately acks beyond the
// recovered cursor; the server must clamp and catch up, not fail.
// (Found by the chaos sweep: seed 96 of the first 100.)
func TestAckAheadOfRecoveredCursorClamps(t *testing.T) {
	cfg := Config{Predictor: testPredictor}
	eng, _, srv, send := rawHarness(t, cfg, 1)
	sendObs(eng, send, 100, 0, srv.cfg.Node, 0)
	sendObs(eng, send, 200, 0, srv.cfg.Node, 64)
	sendAt(eng, send, 1_000, ackMsg(0, srv.cfg.Node, 5))
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if err := srv.Err(); err != nil {
		t.Fatalf("ahead-of-cursor ack failed the server: %v", err)
	}
	if srv.Cursor(0) != 2 || len(srv.streams[0].resp) != 0 {
		t.Fatalf("cursor %d with %d retained responses; want 2 applied, tail fully pruned",
			srv.Cursor(0), len(srv.streams[0].resp))
	}
	// The next applied observation retains its response again (acked
	// was clamped to 2, not left at 5).
	sendObs(eng, send, eng.Now()+100, 0, srv.cfg.Node, 128)
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(srv.streams[0].resp) != 1 {
		t.Fatalf("retained %d responses after a post-clamp observation, want 1", len(srv.streams[0].resp))
	}
}

// TestQueryAnswersWithoutObserving: queries read predictions without
// mutating predictor state.
func TestQueryAnswersWithoutObserving(t *testing.T) {
	cfg := Config{Predictor: testPredictor}
	eng, tr, srv, send := rawHarness(t, cfg, 1)
	var got []Response
	tr.Bind(0, func(m coherence.Msg) {
		r, isQuery := decodeResponse(m)
		if isQuery {
			got = append(got, r)
		}
	})
	// Three identical observations: with Depth 2 the third installs
	// the PHT entry for the now-current history, making 0 predictable.
	sendObs(eng, send, 100, 0, srv.cfg.Node, 0)
	sendObs(eng, send, 200, 0, srv.cfg.Node, 0)
	sendObs(eng, send, 300, 0, srv.cfg.Node, 0)
	sendAt(eng, send, 1_000, queryMsg(0, srv.cfg.Node, 0))
	sendAt(eng, send, 1_100, queryMsg(0, srv.cfg.Node, 4096))
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	digestBefore := srv.StateDigest(0)
	if len(got) != 2 {
		t.Fatalf("received %d query responses, want 2", len(got))
	}
	if !got[0].OK {
		t.Fatal("query for a trained block returned no prediction")
	}
	if got[1].OK {
		t.Fatal("query for an untouched block returned a prediction")
	}
	if srv.StateDigest(0) != digestBefore || srv.Cursor(0) != 3 {
		t.Fatal("queries mutated predictor state")
	}
	if st := srv.Stats(); st.Queries != 2 {
		t.Fatalf("Queries = %d, want 2", st.Queries)
	}
}
