package machine

import (
	"strings"
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/faults"
	"github.com/cosmos-coherence/cosmos/internal/network"
	"github.com/cosmos-coherence/cosmos/internal/sim"
	"github.com/cosmos-coherence/cosmos/internal/stache"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

// pcApp builds a small producer-consumer workload for n nodes.
func pcApp(cfg sim.Config, rounds int) workload.App {
	geom := coherence.MustGeometry(cfg.CacheBlockBytes, cfg.PageBytes, cfg.Nodes)
	arena := workload.NewArena(geom)
	blocks := arena.Alloc(4)
	consumers := make([]int, 0, cfg.Nodes-1)
	for i := 1; i < cfg.Nodes; i++ {
		consumers = append(consumers, i)
	}
	return workload.ProducerConsumer(cfg.Nodes, 0, consumers, blocks, rounds)
}

func TestMachineCompletesUnderDrops(t *testing.T) {
	// At a 5% drop rate with duplication and jitter on top, the
	// reliable transport must still carry every workload to completion
	// with exactly the same protocol outcome.
	cfg := smallConfig(4)
	cfg.Faults = faults.Plan{Seed: 42, DropProb: 0.05, DupProb: 0.02, JitterNs: 50}
	m, err := New(cfg, stache.DefaultOptions(), pcApp(cfg, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	if m.Iteration() != 10 {
		t.Errorf("completed %d phases, want 10", m.Iteration())
	}
	ns := m.Network().Stats()
	if ns.FaultDropped == 0 {
		t.Error("no packets dropped; fault plan not engaged")
	}
	if ns.Retransmits == 0 {
		t.Error("no retransmits despite drops")
	}
	ts := m.Transport().Stats()
	if ts.Retransmits != ns.Retransmits {
		t.Errorf("transport counted %d retransmits, network %d", ts.Retransmits, ns.Retransmits)
	}
}

func TestFaultFreeMachineHasNoTransport(t *testing.T) {
	cfg := smallConfig(4)
	m, err := New(cfg, stache.DefaultOptions(), pcApp(cfg, 2))
	if err != nil {
		t.Fatal(err)
	}
	if m.Transport() != nil {
		t.Error("fault-free machine attached a reliable transport")
	}
	if m.Network().Faulty() {
		t.Error("fault-free machine attached an injector")
	}
}

// TestCtrlFrameToProtocolPanics: with no reliable transport bound, a
// transport control frame on the wire reaches the protocol dispatch,
// which refuses it with *network.SendError at delivery.
func TestCtrlFrameToProtocolPanics(t *testing.T) {
	cfg := smallConfig(4)
	m, err := New(cfg, stache.DefaultOptions(), pcApp(cfg, 2))
	if err != nil {
		t.Fatal(err)
	}
	m.Network().SendPacket(&network.Packet{Src: 0, Dst: 1, Flags: network.FlagCtrl, Seq: 1})
	defer func() {
		if _, ok := recover().(*network.SendError); !ok {
			t.Error("control frame delivered to the protocol did not panic with *network.SendError")
		}
	}()
	m.Engine().Step()
}

func TestForwardingRejectsFaultyWire(t *testing.T) {
	cfg := smallConfig(4)
	cfg.Faults = faults.Plan{Seed: 1, DropProb: 0.01}
	opts := stache.DefaultOptions()
	opts.Forwarding = true
	if _, err := New(cfg, opts, pcApp(cfg, 2)); err == nil {
		t.Fatal("New accepted Forwarding over a faulty interconnect")
	}
}

func TestTransportDeathReportsStuckLink(t *testing.T) {
	// A permanent blackout on one link exhausts the retry budget; the
	// machine must fail with a diagnostic naming the dead link and the
	// frame stuck on it, not time out on the event budget.
	cfg := smallConfig(4)
	cfg.Faults = faults.Plan{
		Seed:      7,
		Blackouts: []faults.Blackout{{Src: 1, Dst: 0}}, // consumer 1 can never reach home 0
	}
	cfg.RetxMaxRetries = 3
	m, err := New(cfg, stache.DefaultOptions(), pcApp(cfg, 3))
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run(5_000_000)
	if err == nil {
		t.Fatal("machine completed over a permanently dead link")
	}
	for _, want := range []string{"link P1->P0 dead", "3 retransmits", "diagnostic at t="} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing %q:\n%s", want, err)
		}
	}
}

func TestWatchdogReportsStall(t *testing.T) {
	// With retries effectively unbounded, a dead link stalls the run
	// without a transport error; the watchdog must catch it and name
	// the in-flight retransmission.
	cfg := smallConfig(4)
	cfg.Faults = faults.Plan{
		Seed:      7,
		Blackouts: []faults.Blackout{{Src: 1, Dst: 0}},
	}
	cfg.RetxMaxRetries = 1000 // backoff doubles, so the watchdog wins
	cfg.WatchdogNs = 200_000
	m, err := New(cfg, stache.DefaultOptions(), pcApp(cfg, 3))
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run(50_000_000)
	if err == nil {
		t.Fatal("machine completed over a permanently dead link")
	}
	for _, want := range []string{"watchdog", "no access completed", "retransmitting P1->P0"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing %q:\n%s", want, err)
		}
	}
}

func TestFaultyRunMatchesFaultFreeOutcome(t *testing.T) {
	// The protocol outcome (iterations, access count) is identical with
	// and without faults; only timing and message counts differ.
	clean := smallConfig(4)
	mClean, err := New(clean, stache.DefaultOptions(), pcApp(clean, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := mClean.Run(5_000_000); err != nil {
		t.Fatal(err)
	}

	faulty := smallConfig(4)
	faulty.Faults = faults.Plan{Seed: 99, DropProb: 0.03, JitterNs: 30}
	mFaulty, err := New(faulty, stache.DefaultOptions(), pcApp(faulty, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := mFaulty.Run(5_000_000); err != nil {
		t.Fatal(err)
	}

	if mClean.Iteration() != mFaulty.Iteration() {
		t.Errorf("iterations: clean %d, faulty %d", mClean.Iteration(), mFaulty.Iteration())
	}
	if mClean.Accesses() != mFaulty.Accesses() {
		t.Errorf("accesses: clean %d, faulty %d", mClean.Accesses(), mFaulty.Accesses())
	}
}
