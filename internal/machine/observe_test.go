package machine_test

import (
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/faults"
	"github.com/cosmos-coherence/cosmos/internal/machine"
	"github.com/cosmos-coherence/cosmos/internal/sim"
	"github.com/cosmos-coherence/cosmos/internal/stache"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

// deliveryRecorder checks every observation against the receiving
// controller's state at that moment, which is the state before the
// controller acts on the message.
type deliveryRecorder struct {
	t *testing.T
	m *machine.Machine
	// byType counts observations per message type.
	byType [coherence.NumMsgTypes]uint64
	// pendingResponses counts cache-bound responses observed while the
	// receiving cache still had the transaction outstanding.
	pendingResponses uint64
	// busyAcks counts directory-bound acknowledgments observed while the
	// entry was still collecting them.
	busyAcks uint64
	// busyRequests counts directory-bound requests observed at a busy
	// entry: the ones the directory is about to queue.
	busyRequests uint64
}

func (r *deliveryRecorder) ObserveDirectory(n coherence.NodeID, msg coherence.Msg) {
	if !msg.Type.DirectoryBound() || msg.Dst != n {
		r.t.Errorf("ObserveDirectory(%v, %v): wrong side or node", n, msg)
	}
	r.byType[msg.Type]++
	info, ok := r.m.Directory(n).Entry(msg.Addr)
	busy := ok && info.State == stache.EntryBusy
	switch {
	case msg.Type.IsRequest():
		if busy {
			r.busyRequests++
		}
	case busy:
		r.busyAcks++
	default:
		r.t.Errorf("%v observed after its directory entry settled (%v)", msg, info.State)
	}
}

func (r *deliveryRecorder) ObserveCache(n coherence.NodeID, msg coherence.Msg) {
	if !msg.Type.CacheBound() || msg.Dst != n {
		r.t.Errorf("ObserveCache(%v, %v): wrong side or node", n, msg)
	}
	r.byType[msg.Type]++
	if msg.Type.IsRequest() || msg.Type == coherence.SpecPush {
		return
	}
	if _, ok := r.m.CachePending(n, msg.Addr); !ok {
		r.t.Errorf("%v observed after the cache completed its transaction", msg)
		return
	}
	r.pendingResponses++
}

func (r *deliveryRecorder) EndIteration(int) {}

// hotSpot has every processor write and read the same two blocks in
// every iteration, so requests pile up at busy directory entries.
func hotSpot(geom coherence.Geometry, iters int) workload.App {
	region := workload.NewArena(geom).Alloc(2)
	a, b := region.Block(0), region.Block(1)
	steps := make([][][]workload.Access, iters)
	for it := range steps {
		steps[it] = make([][]workload.Access, geom.Nodes())
		for p := range steps[it] {
			steps[it][p] = []workload.Access{workload.Write(a), workload.Read(b), workload.Write(b), workload.Read(a)}
		}
	}
	return &workload.Script{ScriptName: "hot-spot", NumProcs: geom.Nodes(), Steps: steps}
}

// TestObservers: Machine.deliver observes each delivered message
// exactly once, on the side its type is bound for, before the
// controller dispatches it — so a response is seen while its
// transaction is still outstanding, an acknowledgment while its entry
// is still busy, and a request that queues at a busy directory while
// the entry is still busy. Both delivery paths are covered: the
// fault-free network and the reliable transport over a lossy wire.
func TestObservers(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults faults.Plan
	}{
		{"fault-free", faults.Plan{}},
		{"transport", faults.Plan{Seed: 7, DropProb: 0.05, DupProb: 0.02, JitterNs: 50}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := sim.DefaultConfig()
			cfg.Nodes = 8
			cfg.Faults = tc.faults
			geom := coherence.MustGeometry(cfg.CacheBlockBytes, cfg.PageBytes, cfg.Nodes)
			m, err := machine.New(cfg, stache.DefaultOptions(), hotSpot(geom, 10))
			if err != nil {
				t.Fatal(err)
			}
			r := &deliveryRecorder{t: t, m: m}
			m.AddObserver(r)
			if err := m.Run(50_000_000); err != nil {
				t.Fatal(err)
			}

			var observed uint64
			for _, c := range r.byType {
				observed += c
			}
			if tr := m.Transport(); tr != nil {
				if st := tr.Stats(); observed != st.Delivered {
					t.Errorf("observed %d messages, transport delivered %d", observed, st.Delivered)
				}
			} else {
				ns := m.Network().Stats()
				if ns.MessagesByType != r.byType {
					t.Errorf("observed per type %v, network sent %v", r.byType, ns.MessagesByType)
				}
			}
			var queued uint64
			for n := 0; n < cfg.Nodes; n++ {
				_, _, _, q := m.Directory(coherence.NodeID(n)).Stats()
				queued += q
			}
			if r.busyRequests == 0 || r.busyRequests > queued {
				t.Errorf("%d requests observed at a busy entry, %d queued; want some, at most the queued count", r.busyRequests, queued)
			}
			if r.pendingResponses == 0 || r.busyAcks == 0 {
				t.Errorf("%d responses observed pending, %d acks observed busy; want both", r.pendingResponses, r.busyAcks)
			}
		})
	}
}
