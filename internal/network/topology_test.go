package network

import (
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/faults"
	"github.com/cosmos-coherence/cosmos/internal/sim"
)

func topoNet(t *testing.T, topo string, nodes int) (*sim.Engine, *Network) {
	t.Helper()
	var e sim.Engine
	cfg := sim.DefaultConfig()
	cfg.Nodes = nodes
	cfg.Topology = topo
	nw, err := New(&e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bindMsgs(nw, func(coherence.Msg) {})
	return &e, nw
}

// TestMeshHopLatency pins the structured latency model: NI + hops*wire
// + NI, against hand-computed dimension-order distances on a 4x4 mesh.
func TestMeshHopLatency(t *testing.T) {
	cases := []struct {
		src, dst coherence.NodeID
		hops     sim.Time
	}{
		{0, 1, 1},  // one east hop
		{0, 3, 3},  // across the top row
		{0, 15, 6}, // 3 east + 3 south, the full diagonal
		{5, 6, 1},
	}
	for _, c := range cases {
		var e sim.Engine
		cfg := sim.DefaultConfig()
		cfg.Topology = "mesh"
		nw, err := New(&e, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var at sim.Time
		bindMsgs(nw, func(coherence.Msg) { at = e.Now() })
		nw.Send(coherence.Msg{Src: c.src, Dst: c.dst, Type: coherence.GetROReq, Addr: 0x40})
		if _, err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		// Table 3: 60 ns NI each end, 40 ns per hop.
		want := 60 + c.hops*40 + 60
		if at != want {
			t.Errorf("%d->%d delivered at %v, want %v", c.src, c.dst, at, want)
		}
	}
}

// TestTorusWrapsShorter pins that the torus routes 0->3 on a 4-wide
// row as one wrap hop where the mesh walks three interior hops.
func TestTorusWrapsShorter(t *testing.T) {
	deliver := func(topo string) sim.Time {
		e, nw := topoNet(t, topo, 16)
		var at sim.Time
		bindMsgs(nw, func(coherence.Msg) { at = e.Now() })
		nw.Send(coherence.Msg{Src: 0, Dst: 3, Type: coherence.GetROReq, Addr: 0x40})
		if _, err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		return at
	}
	if mesh, torus := deliver("mesh"), deliver("torus"); torus >= mesh {
		t.Errorf("torus delivery %v not faster than mesh %v", torus, mesh)
	}
}

// TestLinkContentionSerializes sends two same-tick messages whose
// dimension-order routes share the 0->1 east link; the second must
// wait for the link, arriving one wire-latency later than it would
// alone.
func TestLinkContentionSerializes(t *testing.T) {
	e, nw := topoNet(t, "mesh", 16)
	var at1, at2 sim.Time
	bindMsgs(nw, func(m coherence.Msg) {
		if m.Dst == 2 {
			at1 = e.Now()
		} else {
			at2 = e.Now()
		}
	})
	// 0->2 routes east-east along row 0; 0->6 (east-east-south) shares
	// both east links with it.
	nw.Send(coherence.Msg{Src: 0, Dst: 2, Type: coherence.GetROReq, Addr: 0x40})
	nw.Send(coherence.Msg{Src: 0, Dst: 6, Type: coherence.GetROReq, Addr: 0x80})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if at1 != 60+2*40+60 {
		t.Errorf("uncontended 0->2 delivered at %v, want 220", at1)
	}
	// 0->6: waits behind 0->2 on both east links (free at 100 and
	// 140), crossing them at 140 and 180, the south link at 220;
	// extraction makes it 280. Alone it would arrive at 60+3*40+60.
	if at2 != 280 {
		t.Errorf("contended 0->6 delivered at %v, want 280", at2)
	}
}

// TestMeshSameLinkFIFO checks messages on one (src,dst) pair stay in
// order under contention: same route, so link occupancy serializes
// them in injection order.
func TestMeshSameLinkFIFO(t *testing.T) {
	e, nw := topoNet(t, "mesh", 16)
	var got []coherence.Addr
	bindMsgs(nw, func(m coherence.Msg) { got = append(got, m.Addr) })
	for i := 1; i <= 32; i++ {
		nw.Send(coherence.Msg{Src: 0, Dst: 15, Type: coherence.GetROReq, Addr: coherence.Addr(i * 64)})
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 32 {
		t.Fatalf("delivered %d messages, want 32", len(got))
	}
	for i, a := range got {
		if a != coherence.Addr((i+1)*64) {
			t.Fatalf("delivery %d got addr %#x: FIFO violated", i, a)
		}
	}
}

// TestTopologyWithFaultsComposes checks the structured path under an
// aggressive fault plan: drops and duplicates are counted, and
// delivered+dropped conservation holds, exactly as on the ideal wire.
func TestTopologyWithFaultsComposes(t *testing.T) {
	var e sim.Engine
	cfg := sim.DefaultConfig()
	cfg.Topology = "torus"
	cfg.Faults = faults.Plan{Seed: 42, DropProb: 0.1, DupProb: 0.05, JitterNs: 30}
	nw, err := New(&e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	nw.Bind(func(*Packet) { delivered++ })
	const sent = 2000
	for i := 0; i < sent; i++ {
		nw.SendPacket(&Packet{
			Src: coherence.NodeID(i % 16), Dst: coherence.NodeID((i + 5) % 16),
			Msg: coherence.Msg{Src: coherence.NodeID(i % 16), Dst: coherence.NodeID((i + 5) % 16),
				Type: coherence.GetROReq, Addr: 0x40},
		})
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	st := nw.Stats()
	if st.FaultDropped == 0 || st.FaultDuplicated == 0 {
		t.Fatalf("fault plan inert on structured fabric: %+v", st)
	}
	if want := sent - int(st.FaultDropped) + int(st.FaultDuplicated); delivered != want {
		t.Errorf("delivered %d packets, want %d (sent %d, dropped %d, duplicated %d)",
			delivered, want, sent, st.FaultDropped, st.FaultDuplicated)
	}
	if nw.InFlight() != 0 {
		t.Errorf("%d packets still in flight after quiesce", nw.InFlight())
	}
}
