package reliable

import (
	"errors"
	"strings"
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/faults"
	"github.com/cosmos-coherence/cosmos/internal/network"
	"github.com/cosmos-coherence/cosmos/internal/sim"
)

// harness builds an engine, a faulty network, and a transport over it.
func harness(t *testing.T, plan faults.Plan, maxRetries int) (*sim.Engine, *network.Network, *Transport) {
	t.Helper()
	engine := &sim.Engine{}
	cfg := sim.DefaultConfig()
	cfg.Faults = plan
	cfg.RetxMaxRetries = maxRetries
	nw, err := network.New(engine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return engine, nw, New(engine, nw, cfg)
}

// sendStream schedules n messages on src->dst, one every gap ns, with
// the index encoded in the address.
func sendStream(e *sim.Engine, tr *Transport, src, dst coherence.NodeID, n int, gap sim.Time) {
	send := e.RegisterHandler(func(rec *sim.EventRec) { tr.Send(rec.Msg) })
	for i := 0; i < n; i++ {
		e.Post(sim.Time(i)*gap, sim.EventRec{Kind: send,
			Msg: coherence.Msg{Src: src, Dst: dst, Type: coherence.GetROReq, Addr: coherence.Addr((i + 1) * 64)}})
	}
}

func TestExactlyOnceInOrderUnderDropDupJitter(t *testing.T) {
	plan := faults.Plan{Seed: 3, DropProb: 0.10, DupProb: 0.05, JitterNs: 300}
	e, nw, tr := harness(t, plan, 0)
	var got []uint64
	tr.Bind(1, func(m coherence.Msg) { got = append(got, uint64(m.Addr)) })
	tr.Bind(0, func(coherence.Msg) {})
	const n = 400
	sendStream(e, tr, 0, 1, n, 50)
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Err(); err != nil {
		t.Fatalf("transport failed: %v", err)
	}
	if len(got) != n {
		t.Fatalf("delivered %d messages, want exactly %d", len(got), n)
	}
	for i, a := range got {
		if a != uint64(i+1)*64 {
			t.Fatalf("out of order or duplicated at %d: got addr %#x, want %#x", i, a, (i+1)*64)
		}
	}
	st := tr.Stats()
	ns := nw.Stats()
	if ns.FaultDropped == 0 {
		t.Error("fault plan dropped nothing; test exercises nothing")
	}
	if st.Retransmits == 0 {
		t.Error("no retransmissions despite drops")
	}
	if st.Delivered != n {
		t.Errorf("Delivered = %d, want %d", st.Delivered, n)
	}
	if len(tr.Inflight()) != 0 {
		t.Errorf("%d frames still inflight after completion", len(tr.Inflight()))
	}
}

func TestJitterOnlyWireReordersTransportRestoresFIFO(t *testing.T) {
	// Jitter larger than the inter-send gap guarantees raw-wire
	// reordering; the transport must still release in send order.
	plan := faults.Plan{Seed: 11, JitterNs: 2000}
	e, _, tr := harness(t, plan, 0)
	var got []uint64
	tr.Bind(1, func(m coherence.Msg) { got = append(got, uint64(m.Addr)) })
	tr.Bind(0, func(coherence.Msg) {})
	const n = 200
	sendStream(e, tr, 0, 1, n, 10)
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Err(); err != nil {
		t.Fatalf("transport failed: %v", err)
	}
	if len(got) != n {
		t.Fatalf("delivered %d, want %d", len(got), n)
	}
	for i, a := range got {
		if a != uint64(i+1)*64 {
			t.Fatalf("release order violated at %d: got %#x", i, a)
		}
	}
	if tr.Stats().HeldOutOfOrder == 0 {
		t.Error("no frames arrived out of order; jitter did not reorder the wire (weak test)")
	}
}

func TestConcurrentLinksIndependent(t *testing.T) {
	plan := faults.Plan{Seed: 9, DropProb: 0.05, JitterNs: 100}
	e, _, tr := harness(t, plan, 0)
	recv := map[coherence.NodeID][]uint64{}
	for _, node := range []coherence.NodeID{0, 1, 2} {
		node := node
		tr.Bind(node, func(m coherence.Msg) { recv[node] = append(recv[node], uint64(m.Addr)) })
	}
	const n = 150
	sendStream(e, tr, 0, 1, n, 40)
	sendStream(e, tr, 2, 1, n, 40)
	sendStream(e, tr, 1, 2, n, 40)
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	// Node 1 receives two interleaved streams; each must be internally
	// ordered and complete.
	if len(recv[1]) != 2*n {
		t.Fatalf("node 1 received %d, want %d", len(recv[1]), 2*n)
	}
	if len(recv[2]) != n {
		t.Fatalf("node 2 received %d, want %d", len(recv[2]), n)
	}
	for i, a := range recv[2] {
		if a != uint64(i+1)*64 {
			t.Fatalf("link 1->2 out of order at %d", i)
		}
	}
}

func TestDuplicatesDiscarded(t *testing.T) {
	plan := faults.Plan{Seed: 21, DupProb: 0.5}
	e, nw, tr := harness(t, plan, 0)
	var got int
	tr.Bind(1, func(coherence.Msg) { got++ })
	tr.Bind(0, func(coherence.Msg) {})
	const n = 100
	sendStream(e, tr, 0, 1, n, 200)
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("delivered %d, want exactly %d", got, n)
	}
	if nw.Stats().FaultDuplicated == 0 {
		t.Fatal("no duplicates injected; weak test")
	}
	if tr.Stats().DupsDiscarded == 0 {
		t.Error("transport discarded no duplicates despite wire duplication")
	}
}

func TestDeadLinkFailsWithDiagnosticError(t *testing.T) {
	plan := faults.Plan{Blackouts: []faults.Blackout{{Src: 0, Dst: 1}}}
	e, _, tr := harness(t, plan, 3)
	tr.Bind(1, func(coherence.Msg) { t.Error("message delivered across a blacked-out link") })
	tr.Bind(0, func(coherence.Msg) {})
	var cbErr error
	tr.OnFailure(func(err error) { cbErr = err })
	tr.Send(coherence.Msg{Src: 0, Dst: 1, Type: coherence.GetRWReq, Addr: 0x80})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	err := tr.Err()
	if err == nil {
		t.Fatal("dead link did not fail")
	}
	if cbErr == nil {
		t.Error("OnFailure callback not invoked")
	}
	for _, want := range []string{"P0->P1", "get_rw_request", "3 retransmits"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	// The undeliverable frame stays visible for the watchdog dump.
	inf := tr.Inflight()
	if len(inf) != 1 || inf[0].Src != 0 || inf[0].Dst != 1 || inf[0].Retries != 3 {
		t.Errorf("Inflight = %+v, want the one dead frame with 3 retries", inf)
	}
}

func TestLocalMessagesBypassSequencing(t *testing.T) {
	plan := faults.Plan{Seed: 2, DropProb: 0.9}
	e, _, tr := harness(t, plan, 0)
	var got int
	tr.Bind(2, func(coherence.Msg) { got++ })
	tr.Send(coherence.Msg{Src: 2, Dst: 2, Type: coherence.GetROResp, Addr: 0x40})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("local message delivered %d times, want 1 (faults must not touch local delivery)", got)
	}
	if st := tr.Stats(); st.DataSent != 0 {
		t.Errorf("local message was sequenced (DataSent=%d)", st.DataSent)
	}
}

func TestAckLossRepairedByRetransmission(t *testing.T) {
	// Heavy drop hits acks as much as data; completion proves the
	// re-ack path (duplicate arrival -> fresh cumulative ack) works.
	plan := faults.Plan{Seed: 5, DropProb: 0.3}
	e, _, tr := harness(t, plan, 0)
	var got int
	tr.Bind(1, func(coherence.Msg) { got++ })
	tr.Bind(0, func(coherence.Msg) {})
	const n = 200
	sendStream(e, tr, 0, 1, n, 100)
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Err(); err != nil {
		t.Fatalf("transport failed under 30%% loss: %v", err)
	}
	if got != n {
		t.Fatalf("delivered %d, want %d", got, n)
	}
}

// deadLinkHarness builds a transport over a permanently blacked-out
// 0->1 link with explicit timeout, backoff cap, and retry budget, sends
// one frame at t=0, and runs to completion.
func deadLinkHarness(t *testing.T, timeout, cap sim.Time, maxRetries int) (*sim.Engine, *Transport) {
	t.Helper()
	engine := &sim.Engine{}
	cfg := sim.DefaultConfig()
	cfg.Faults = faults.Plan{Seed: 5, Blackouts: []faults.Blackout{{Src: 0, Dst: 1}}}
	cfg.RetxTimeoutNs = timeout
	cfg.RetxBackoffCapNs = cap
	cfg.RetxMaxRetries = maxRetries
	nw, err := network.New(engine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := New(engine, nw, cfg)
	tr.Bind(0, func(coherence.Msg) {})
	tr.Bind(1, func(coherence.Msg) {})
	send := engine.RegisterHandler(func(rec *sim.EventRec) { tr.Send(rec.Msg) })
	engine.Post(0, sim.EventRec{Kind: send, Msg: coherence.Msg{Src: 0, Dst: 1, Type: coherence.GetROReq, Addr: 64}})
	if _, err := engine.Run(0); err != nil {
		t.Fatal(err)
	}
	return engine, tr
}

// TestBackoffCapBoundsRetransmitSchedule pins the exact retransmit
// schedule under a cap: the backoff doubles until it hits the cap and
// stays there, so link death arrives at a bounded, computable time
// instead of after an exponentially growing final wait.
func TestBackoffCapBoundsRetransmitSchedule(t *testing.T) {
	const (
		timeout    = sim.Time(100)
		cap        = sim.Time(400)
		maxRetries = 6
	)
	// Timer fires at cumulative sums of the per-retry backoffs
	// 100, 200, 400, 400, 400, 400, 400 — the uncapped tail would be
	// 400, 800, 1600, 3200, 6400 ending at t=12700.
	const wantDeath = sim.Time(100 + 200 + 400 + 400 + 400 + 400 + 400)
	e, tr := deadLinkHarness(t, timeout, cap, maxRetries)
	if tr.Err() == nil {
		t.Fatal("blacked-out link did not die")
	}
	if e.Now() != wantDeath {
		t.Fatalf("link died at t=%v, want t=%v (capped schedule)", e.Now(), wantDeath)
	}
	if got := tr.Stats().Retransmits; got != maxRetries {
		t.Fatalf("Retransmits = %d, want %d", got, maxRetries)
	}

	// The same run without an effective cap must die much later.
	eUncapped, trUncapped := deadLinkHarness(t, timeout, sim.Time(1_000_000), maxRetries)
	if trUncapped.Err() == nil {
		t.Fatal("uncapped blacked-out link did not die")
	}
	const wantUncapped = sim.Time(100 + 200 + 400 + 800 + 1600 + 3200 + 6400)
	if eUncapped.Now() != wantUncapped {
		t.Fatalf("uncapped link died at t=%v, want t=%v", eUncapped.Now(), wantUncapped)
	}
}

// TestBackoffCapDefaultsAndClamping covers the derived default and the
// below-timeout clamp.
func TestBackoffCapDefaultsAndClamping(t *testing.T) {
	engine := &sim.Engine{}
	cfg := sim.DefaultConfig()
	cfg.RetxTimeoutNs = 500
	nw, err := network.New(engine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr := New(engine, nw, cfg); tr.backoffCap != DefaultBackoffCapFactor*500 {
		t.Fatalf("default cap = %v, want %v", tr.backoffCap, sim.Time(DefaultBackoffCapFactor*500))
	}
	cfg.RetxBackoffCapNs = 10 // below the initial timeout
	if tr := New(engine, nw, cfg); tr.backoffCap != 500 {
		t.Fatalf("sub-timeout cap clamped to %v, want 500ns", tr.backoffCap)
	}
}

// TestRetryExhaustionIsTypedError pins the satellite contract: retry-
// cap exhaustion surfaces as *LinkDeadError naming the link, reachable
// through errors.As, with the same human-readable text as before.
func TestRetryExhaustionIsTypedError(t *testing.T) {
	_, tr := deadLinkHarness(t, 100, 400, 3)
	err := tr.Err()
	if err == nil {
		t.Fatal("no failure from a permanently dead link")
	}
	var dead *LinkDeadError
	if !errors.As(err, &dead) {
		t.Fatalf("failure is %T, want *LinkDeadError", err)
	}
	if dead.Src != 0 || dead.Dst != 1 || dead.TSeq != 1 || dead.Retries != 3 {
		t.Fatalf("LinkDeadError fields wrong: %+v", dead)
	}
	if dead.Msg.Addr != 64 || dead.Msg.Type != coherence.GetROReq {
		t.Fatalf("LinkDeadError carries wrong frame: %+v", dead.Msg)
	}
	for _, want := range []string{"link P0->P1 dead", "3 retransmits", "frame 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error text missing %q: %s", want, err)
		}
	}
}

// TestStaleAckRetiresNothing delivers a cumulative ack below one
// already received: it must not reopen the acknowledged prefix of the
// send window. Frames 1-3 cross the wire and are acked; frames 4-5 hit
// a blackout; then a forged copy of the first ack (TSeq 1) arrives
// after the ack of frame 3.
func TestStaleAckRetiresNothing(t *testing.T) {
	engine := &sim.Engine{}
	cfg := sim.DefaultConfig()
	cfg.Faults = faults.Plan{Seed: 1, Blackouts: []faults.Blackout{{Src: 0, Dst: 1, FromNs: 50}}}
	cfg.RetxTimeoutNs = 1000
	cfg.RetxBackoffCapNs = 1 << 20
	cfg.RetxMaxRetries = 2
	nw, err := network.New(engine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := New(engine, nw, cfg)
	delivered := 0
	tr.Bind(0, func(coherence.Msg) {})
	tr.Bind(1, func(coherence.Msg) { delivered++ })
	send := engine.RegisterHandler(func(rec *sim.EventRec) { tr.Send(rec.Msg) })
	for i := 1; i <= 5; i++ {
		at := sim.Time(0)
		if i > 3 {
			at = 100 // inside the blackout
		}
		engine.Post(at, sim.EventRec{Kind: send,
			Msg: coherence.Msg{Src: 0, Dst: 1, Type: coherence.GetROReq, Addr: coherence.Addr(i * 64)}})
	}
	// The acks of frames 1-3 reach node 0 at t=320; the stale one lands
	// at t=560, before any retransmit timer fires (t=1000 and t=1100).
	stale := engine.RegisterHandler(func(*sim.EventRec) {
		nw.SendPacket(&network.Packet{Src: 1, Dst: 0, Flags: network.FlagCtrl, Seq: 1})
	})
	engine.Post(400, sim.EventRec{Kind: stale})

	check := func(when string, retries int, retransmits uint64) {
		t.Helper()
		if got := tr.Undelivered(); got != 2 {
			t.Errorf("%s: Undelivered = %d, want 2 (frames 4 and 5)", when, got)
		}
		inf := tr.Inflight()
		if len(inf) != 2 || inf[0].TSeq != 4 || inf[1].TSeq != 5 {
			t.Fatalf("%s: Inflight = %+v, want frames 4 then 5", when, inf)
		}
		for _, f := range inf {
			if f.Src != 0 || f.Dst != 1 || f.Retries != retries || f.SentAt != 100 || f.Msg.Addr != coherence.Addr(f.TSeq*64) {
				t.Errorf("%s: in-flight frame %+v, want link P0->P1, %d retries, sent at 100", when, f, retries)
			}
		}
		if got := tr.Stats().Retransmits; got != retransmits {
			t.Errorf("%s: Retransmits = %d, want %d", when, got, retransmits)
		}
	}

	engine.RunUntil(700)
	if st := tr.Stats(); st.AcksRecv != 4 || delivered != 3 {
		t.Fatalf("AcksRecv = %d, delivered = %d; want 4 acks (one stale) and 3 frames", st.AcksRecv, delivered)
	}
	check("after the stale ack", 0, 0)
	// Frames 1-3's timers fire at t=1000 and must find them acked.
	engine.RunUntil(1150)
	check("after the first timeouts", 1, 2)
	if _, err := engine.Run(0); err != nil {
		t.Fatal(err)
	}
	var dead *LinkDeadError
	if !errors.As(tr.Err(), &dead) || dead.TSeq != 4 {
		t.Fatalf("Err = %v, want frame 4's link death", tr.Err())
	}
	check("at link death", 2, 4)
}
