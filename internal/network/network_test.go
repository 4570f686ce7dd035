package network

import (
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/faults"
	"github.com/cosmos-coherence/cosmos/internal/sim"
)

func testNet(t *testing.T) (*sim.Engine, *Network) {
	t.Helper()
	var e sim.Engine
	cfg := sim.DefaultConfig()
	nw, err := New(&e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &e, nw
}

// bindMsgs binds a receiver that hands every packet's message to h.
func bindMsgs(nw *Network, h func(coherence.Msg)) {
	nw.Bind(func(pkt *Packet) { h(pkt.Msg) })
}

func TestDeliveryLatency(t *testing.T) {
	e, nw := testNet(t)
	var deliveredAt sim.Time
	bindMsgs(nw, func(coherence.Msg) { deliveredAt = e.Now() })
	nw.Send(coherence.Msg{Src: 0, Dst: 1, Type: coherence.GetROReq, Addr: 0x40})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	// Table 3: 60 (NI) + 40 (wire) + 60 (NI) = 160 ns.
	if deliveredAt != 160 {
		t.Errorf("delivered at %v, want 160ns", deliveredAt)
	}
}

// TestPerLinkFIFO interleaves same-instant sends on several links into
// one destination and checks each link delivers in send order, on the
// paper's 16-node machine and on an all-to-all machine past 64 nodes.
// No per-link state enforces this: a link's latency is constant, and
// same-instant deliveries fire in the engine's scheduling order.
func TestPerLinkFIFO(t *testing.T) {
	for _, nodes := range []int{16, 128} {
		e, nw := topoNet(t, "", nodes)
		srcs := []coherence.NodeID{0, 1, 7, coherence.NodeID(nodes - 1)} // 1 is the local link
		got := map[coherence.NodeID][]uint64{}
		bindMsgs(nw, func(m coherence.Msg) { got[m.Src] = append(got[m.Src], uint64(m.Addr)) })
		for i := uint64(1); i <= 50; i++ {
			for _, src := range srcs {
				nw.Send(coherence.Msg{Src: src, Dst: 1, Type: coherence.GetROReq, Addr: coherence.Addr(i * 64)})
			}
		}
		if _, err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		for _, src := range srcs {
			if len(got[src]) != 50 {
				t.Fatalf("nodes=%d: link %v->P1 delivered %d messages, want 50", nodes, src, len(got[src]))
			}
			for i, a := range got[src] {
				if a != uint64(i+1)*64 {
					t.Fatalf("nodes=%d: FIFO violated on %v->P1: got[%d] = %#x", nodes, src, i, a)
				}
			}
		}
	}
}

func TestStats(t *testing.T) {
	e, nw := testNet(t)
	bindMsgs(nw, func(coherence.Msg) {})
	nw.Send(coherence.Msg{Src: 0, Dst: 1, Type: coherence.GetROReq})
	nw.Send(coherence.Msg{Src: 1, Dst: 0, Type: coherence.GetROResp})  // carries data
	nw.Send(coherence.Msg{Src: 2, Dst: 2, Type: coherence.UpgradeReq}) // local
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	s := nw.Stats()
	if s.MessagesSent != 3 {
		t.Errorf("MessagesSent = %d", s.MessagesSent)
	}
	if s.DataMessages != 1 {
		t.Errorf("DataMessages = %d", s.DataMessages)
	}
	if s.LocalMessages != 1 {
		t.Errorf("LocalMessages = %d", s.LocalMessages)
	}
	if s.MessagesByType[coherence.GetROReq] != 1 || s.MessagesByType[coherence.GetROResp] != 1 {
		t.Errorf("MessagesByType = %v", s.MessagesByType)
	}
}

func TestSendPanicsOnInvalidType(t *testing.T) {
	_, nw := testNet(t)
	bindMsgs(nw, func(coherence.Msg) {})
	defer func() {
		if recover() == nil {
			t.Error("Send with invalid type did not panic")
		}
	}()
	nw.Send(coherence.Msg{Src: 0, Dst: 0, Type: coherence.MsgInvalid})
}

// TestSendPanicsOnUnboundDestination sends before any receiver is
// bound: there is nothing to deliver to.
func TestSendPanicsOnUnboundDestination(t *testing.T) {
	_, nw := testNet(t)
	defer func() {
		if recover() == nil {
			t.Error("Send to unbound destination did not panic")
		}
	}()
	nw.Send(coherence.Msg{Src: 0, Dst: 5, Type: coherence.GetROReq})
}

func TestNewRejectsBadConfig(t *testing.T) {
	var e sim.Engine
	cfg := sim.DefaultConfig()
	cfg.Nodes = 0
	if _, err := New(&e, cfg); err == nil {
		t.Error("New accepted invalid config")
	}
	if _, err := New(nil, sim.DefaultConfig()); err == nil {
		t.Error("New accepted nil engine")
	}
}

func TestLocalDeliveryFasterThanRemote(t *testing.T) {
	e, nw := testNet(t)
	var localAt, remoteAt sim.Time
	bindMsgs(nw, func(m coherence.Msg) {
		if m.Dst == 0 {
			localAt = e.Now()
		} else {
			remoteAt = e.Now()
		}
	})
	nw.Send(coherence.Msg{Src: 0, Dst: 0, Type: coherence.GetROReq})
	nw.Send(coherence.Msg{Src: 0, Dst: 1, Type: coherence.GetROReq})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if localAt >= remoteAt {
		t.Errorf("local delivery (%v) should be faster than remote (%v)", localAt, remoteAt)
	}
}

func faultyNet(t *testing.T, plan faults.Plan) (*sim.Engine, *Network) {
	t.Helper()
	var e sim.Engine
	cfg := sim.DefaultConfig()
	cfg.Faults = plan
	nw, err := New(&e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &e, nw
}

func TestSendPanicsWithTypedError(t *testing.T) {
	cases := []struct {
		name    string
		unbound bool // send before any receiver is bound
		msg     coherence.Msg
		reason  string
	}{
		{"invalid type", false, coherence.Msg{Src: 0, Dst: 0, Type: coherence.MsgInvalid}, "invalid message type"},
		{"unbound destination", true, coherence.Msg{Src: 0, Dst: 5, Type: coherence.GetROReq}, "no receiver bound"},
		{"out-of-range destination", false, coherence.Msg{Src: 0, Dst: 99, Type: coherence.GetROReq}, "destination out of range"},
		{"negative destination", false, coherence.Msg{Src: 0, Dst: -2, Type: coherence.GetROReq}, "destination out of range"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, nw := testNet(t)
			if !c.unbound {
				bindMsgs(nw, func(coherence.Msg) {})
			}
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("no panic")
				}
				serr, ok := r.(*SendError)
				if !ok {
					t.Fatalf("panic value %T, want *SendError", r)
				}
				if serr.Reason != c.reason {
					t.Errorf("Reason = %q, want one mentioning %q", serr.Reason, c.reason)
				}
				if want := "network: " + c.reason + " in " + c.msg.String(); serr.Error() != want {
					t.Errorf("Error() = %q, want %q", serr.Error(), want)
				}
			}()
			nw.Send(c.msg)
		})
	}
}

func TestPerLinkFIFOWithDisabledFaultPlan(t *testing.T) {
	// A zero-valued fault plan (even with a seed set) must leave the
	// wire on the exact seed-identical FIFO path.
	e, nw := faultyNet(t, faults.Plan{Seed: 1234})
	if nw.Faulty() {
		t.Fatal("seed-only plan attached an injector")
	}
	var got []uint64
	bindMsgs(nw, func(m coherence.Msg) { got = append(got, uint64(m.Addr)) })
	for i := uint64(1); i <= 100; i++ {
		nw.Send(coherence.Msg{Src: 0, Dst: 1, Type: coherence.GetROReq, Addr: coherence.Addr(i * 64)})
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("delivered %d, want 100", len(got))
	}
	for i, a := range got {
		if a != uint64(i+1)*64 {
			t.Fatalf("FIFO violated at %d under disabled plan", i)
		}
	}
}

func TestJitterReordersRawWire(t *testing.T) {
	// With jitter far exceeding the send gap, the raw wire legally
	// reorders a link — the property the reliable transport exists to
	// repair (its tests prove the repair).
	e, nw := faultyNet(t, faults.Plan{Seed: 7, JitterNs: 5000})
	var got []uint64
	bindMsgs(nw, func(m coherence.Msg) { got = append(got, uint64(m.Addr)) })
	send := e.RegisterHandler(func(rec *sim.EventRec) { nw.Send(rec.Msg) })
	for i := uint64(1); i <= 100; i++ {
		e.Post(sim.Time(i*10), sim.EventRec{Kind: send,
			Msg: coherence.Msg{Src: 0, Dst: 1, Type: coherence.GetROReq, Addr: coherence.Addr(i * 64)}})
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("delivered %d, want 100 (jitter must not lose packets)", len(got))
	}
	inOrder := true
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Error("jittered wire delivered perfectly in order; injector is not perturbing delivery")
	}
}

func TestDropAndDupCounters(t *testing.T) {
	e, nw := faultyNet(t, faults.Plan{Seed: 13, DropProb: 0.3, DupProb: 0.3})
	delivered := 0
	bindMsgs(nw, func(coherence.Msg) { delivered++ })
	const n = 500
	for i := 0; i < n; i++ {
		nw.Send(coherence.Msg{Src: 0, Dst: 1, Type: coherence.GetROReq, Addr: 0x40})
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	s := nw.Stats()
	if s.FaultDropped == 0 || s.FaultDuplicated == 0 {
		t.Fatalf("counters not advancing: dropped=%d duplicated=%d", s.FaultDropped, s.FaultDuplicated)
	}
	if want := n - int(s.FaultDropped) + int(s.FaultDuplicated); delivered != want {
		t.Errorf("delivered %d, want %d (%d sent - %d dropped + %d duplicated)",
			delivered, want, n, s.FaultDropped, s.FaultDuplicated)
	}
	if s.MessagesSent != n {
		t.Errorf("MessagesSent = %d, want %d (drops still count as injections)", s.MessagesSent, n)
	}
}

func TestCtrlFramesBypassTypeValidationAndCount(t *testing.T) {
	e, nw := testNet(t)
	acks := 0
	nw.Bind(func(pkt *Packet) {
		if pkt.Ctrl() {
			acks++
		}
	})
	nw.SendPacket(&Packet{Src: 0, Dst: 1, Flags: FlagCtrl, Seq: 17})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if acks != 1 {
		t.Fatalf("ack delivered %d times, want 1", acks)
	}
	s := nw.Stats()
	if s.CtrlMessages != 1 {
		t.Errorf("CtrlMessages = %d, want 1", s.CtrlMessages)
	}
	if s.MessagesSent != 0 {
		t.Errorf("MessagesSent = %d; control frames must not count as coherence messages", s.MessagesSent)
	}
}
