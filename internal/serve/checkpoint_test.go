package serve

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/faults"
	"github.com/cosmos-coherence/cosmos/internal/sim"
)

// checkpointDigestsFile pins the content address of every checkpoint of
// one fixed deployment; its header holds the regeneration command.
const checkpointDigestsFile = "testdata/checkpoint_digests.txt"

// checkpointDigests runs BenchmarkServeSLO's deployment (workload seed
// 1, 4 streams x 400 observations, checkpoint every 64, fault-plan seed
// 2) with one kill at the simulated midpoint, the unsynced WAL tail torn
// in half, and a restore, and returns the content address of every
// checkpoint the two server lives wrote, in order: the fresh store's,
// the periodic ones, recovery's, and Close's.
func checkpointDigests(t *testing.T) []string {
	t.Helper()
	workload := GenWorkload(1, 4, 400)
	c, err := NewCluster(HarnessConfig{
		Dir:    t.TempDir(),
		Server: Config{Predictor: testPredictor, SnapshotEvery: 64},
		Plan:   faults.Plan{Seed: 2, DropProb: 0.01, JitterNs: 100},
	}, workload)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	var seen uint64 // checkpoints of the current server life recorded so far
	record := func() {
		t.Helper()
		switch n := c.Srv.stats.Checkpoints; {
		case n == seen:
		case n == seen+1:
			out = append(out, hex.EncodeToString(c.Srv.digest[:]))
			seen = n
		default:
			t.Fatalf("%d checkpoints in one event; only the last digest is visible", n-seen)
		}
	}
	record()
	killAt := sim.Time(len(workload[0])) * 200 / 2 // the harness pacing is 200ns
	for at, ok := c.Eng.NextAt(); ok && at <= killAt; at, ok = c.Eng.NextAt() {
		c.Eng.Step()
		record()
	}
	if err := c.Kill(killAt, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(); err != nil {
		t.Fatal(err)
	}
	seen = 0
	record()
	for c.Eng.Step() {
		record()
	}
	if err := c.Run(); err != nil { // drained: only the checks and Close remain
		t.Fatal(err)
	}
	record()
	assertMatchesOracle(t, c, workload)
	return out
}

// TestCheckpointDigests checks every checkpoint of the fixed deployment
// against its committed SHA-256 content address. It pins the CPSS
// container, the core snapshot inside it and the server state fed to
// both: a change that alters one checkpoint byte fails here.
func TestCheckpointDigests(t *testing.T) {
	f, err := os.Open(checkpointDigestsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var i int
		var sum string
		if _, err := fmt.Sscanf(line, "%d %s", &i, &sum); err != nil || i != len(want) {
			t.Fatalf("%s: %q: want \"%d <sha256>\" (%v)", checkpointDigestsFile, line, len(want), err)
		}
		want = append(want, sum)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := checkpointDigests(t)
	for i, d := range got {
		t.Logf("checkpoint %03d %s", i, d)
	}
	if len(got) != len(want) {
		t.Fatalf("%d checkpoints, %s pins %d", len(got), checkpointDigestsFile, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("checkpoint %d hashes to %s, %s pins %s", i, got[i], checkpointDigestsFile, want[i])
		}
	}
}

// snapshotState is the reference the one-pass encoder is checked
// against: it assembles the durable State from live state the long way,
// copying every response tail and snapshotting every predictor into its
// own slice, for EncodeCPSS to copy once more.
func snapshotState(s *Server) State {
	st := State{Streams: make([]StreamState, len(s.streams))}
	for i, str := range s.streams {
		st.Streams[i] = StreamState{
			Applied: str.applied,
			Acked:   str.acked,
			Resp:    append([]Response(nil), str.resp...),
			Snap:    str.pred.Snapshot(),
		}
	}
	return st
}

// assertEncodeMatches checks the server's one-pass checkpoint bytes
// against EncodeCPSS of the reference State, and returns how many
// responses the streams retain.
func assertEncodeMatches(t *testing.T, s *Server, when string) int {
	t.Helper()
	want := EncodeCPSS(snapshotState(s))
	if got := s.encodeCheckpoint(); !bytes.Equal(got, want) {
		t.Fatalf("%s: one-pass checkpoint (%d bytes) differs from EncodeCPSS (%d bytes)", when, len(got), len(want))
	}
	retained := 0
	for _, str := range s.streams {
		retained += len(str.resp)
	}
	return retained
}

// TestEncodeCheckpointMatchesEncodeCPSS compares the two encoders over
// a kill-and-restore deployment, sampled mid-flight (response tails
// awaiting acks), right after recovery, and at the end.
func TestEncodeCheckpointMatchesEncodeCPSS(t *testing.T) {
	workload := GenWorkload(3, 3, 300)
	c, err := NewCluster(HarnessConfig{
		Dir:    t.TempDir(),
		Server: Config{Predictor: testPredictor, SnapshotEvery: 50},
		Plan:   faults.Plan{Seed: 4, DropProb: 0.02, DupProb: 0.01, JitterNs: 100},
	}, workload)
	if err != nil {
		t.Fatal(err)
	}
	assertEncodeMatches(t, c.Srv, "fresh")
	killAt := sim.Time(len(workload[0])) * 200 / 2
	tails := 0
	for steps := 0; ; steps++ {
		at, ok := c.Eng.NextAt()
		if !ok || at > killAt {
			break
		}
		c.Eng.Step()
		if steps%61 == 0 && assertEncodeMatches(t, c.Srv, fmt.Sprintf("step %d", steps)) > 0 {
			tails++
		}
	}
	if tails == 0 {
		t.Fatal("no sample caught a non-empty response tail")
	}
	if err := c.Kill(killAt, 0.3); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(); err != nil {
		t.Fatal(err)
	}
	assertEncodeMatches(t, c.Srv, "recovered")
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	assertEncodeMatches(t, c.Srv, "closed")
	assertMatchesOracle(t, c, workload)
}

// TestEncodeCheckpointAfterShedAndResync compares the two encoders on a
// stream that was shed, went lagging, and resynchronized part of its
// retained tail.
func TestEncodeCheckpointAfterShedAndResync(t *testing.T) {
	cfg := Config{Predictor: testPredictor, MaxQueue: 1, ProcessNs: 10_000}
	eng, _, srv, send := rawHarness(t, cfg, 2)
	for i := 0; i < 6; i++ {
		sendObs(eng, send, sim.Time(100*(i+1)), i%2, srv.cfg.Node, coherence.Addr(64*(i%3)))
	}
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if !srv.Lagging(0) && !srv.Lagging(1) {
		t.Fatal("overload left no stream lagging")
	}
	assertEncodeMatches(t, srv, "shed")
	for id := 0; id < 2; id++ {
		if _, err := srv.Resync(id, srv.streams[id].acked+srv.Cursor(id)/2); err != nil {
			t.Fatal(err)
		}
	}
	sendObs(eng, send, eng.Now()+100, 0, srv.cfg.Node, 64)
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if assertEncodeMatches(t, srv, "resynced") == 0 {
		t.Fatal("resync left no response tail to encode")
	}
}

// TestEncodeCheckpointAllocs: a warmed checkpoint encode reuses the
// server's buffer and the predictors' sort scratch, so it allocates
// nothing.
func TestEncodeCheckpointAllocs(t *testing.T) {
	workload := GenWorkload(1, 4, 200)
	c, err := NewCluster(HarnessConfig{
		Dir:    t.TempDir(),
		Server: Config{Predictor: testPredictor, SnapshotEvery: 64},
	}, workload)
	if err != nil {
		t.Fatal(err)
	}
	c.Eng.RunUntil(sim.Time(len(workload[0])) * 200 / 2)
	if allocs := testing.AllocsPerRun(20, func() { c.Srv.encodeCheckpoint() }); allocs != 0 {
		t.Fatalf("warmed checkpoint encode: %v allocs, want 0", allocs)
	}
}
