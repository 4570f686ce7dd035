package machine

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/invariant"
	"github.com/cosmos-coherence/cosmos/internal/sim"
	"github.com/cosmos-coherence/cosmos/internal/stache"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

// randomScript builds a deterministic pseudo-random workload: procs
// processors, iters iterations, each performing a random mix of loads
// and stores over a small pool of blocks (guaranteeing heavy
// conflict).
func randomScript(r *rand.Rand, procs, iters, blocks, accessesPerIter int) (*workload.Script, []coherence.Addr) {
	geom := coherence.MustGeometry(64, 4096, procs)
	arena := workload.NewArena(geom)
	region := arena.Alloc(blocks)
	var addrs []coherence.Addr
	for b := 0; b < blocks; b++ {
		addrs = append(addrs, region.Block(b))
	}
	steps := make([][][]workload.Access, iters)
	for it := range steps {
		steps[it] = make([][]workload.Access, procs)
		for p := 0; p < procs; p++ {
			for a := 0; a < accessesPerIter; a++ {
				addr := addrs[r.Intn(len(addrs))]
				if r.Intn(2) == 0 {
					steps[it][p] = append(steps[it][p], workload.Read(addr))
				} else {
					steps[it][p] = append(steps[it][p], workload.Write(addr))
				}
			}
		}
	}
	return &workload.Script{ScriptName: "fuzz", NumProcs: procs, Steps: steps}, addrs
}

// TestCoherenceInvariantsFuzz runs many random high-conflict workloads
// through the machine with the runtime invariant monitor attached
// (cfg.Invariants), under both protocol variants, with bounded caches,
// forwarding, and the RMW oracle. The monitor checks SWMR, directory/
// cache agreement, message conservation, and transition legality both
// at a mid-run cadence and strictly at quiesce — strictly more than
// the ad-hoc end-of-run checks this test used before the monitor
// existed.
func TestCoherenceInvariantsFuzz(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 6
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(seed)))
			procs := 2 + r.Intn(15) // 2..16
			script, _ := randomScript(r, procs, 4+r.Intn(4), 1+r.Intn(6), 5+r.Intn(20))

			opts := stache.DefaultOptions()
			if seed%3 == 1 {
				opts.HalfMigratory = false
			}
			if seed%4 == 3 {
				// Tiny caches force heavy replacement traffic.
				opts.CacheBlocks = 2 + r.Intn(4)
				opts.CacheAssoc = 1 + r.Intn(2)
			} else if seed%5 == 0 {
				// Origin-style three-hop data forwarding.
				opts.Forwarding = true
			}
			cfg := sim.DefaultConfig()
			cfg.Nodes = procs
			cfg.Invariants = true
			cfg.InvariantEvery = 256 // sweep often: these runs are short
			m, err := New(cfg, opts, script)
			if err != nil {
				t.Fatal(err)
			}
			if seed%3 == 2 {
				// Exercise the speculative RMW grant path under fuzz:
				// a trivial oracle that always predicts an upgrade by
				// the last directory-side sender (aggressively wrong
				// much of the time — the protocol must stay coherent).
				for n := 0; n < procs; n++ {
					node := coherence.NodeID(n)
					m.Directory(node).AttachSpeculation(&eagerOracle{}, nil, stache.SpecActions{RMW: true})
				}
			}
			if err := m.Run(50_000_000); err != nil {
				t.Fatal(err)
			}
			if m.Monitor().Sweeps() == 0 {
				t.Error("monitor never swept")
			}
		})
	}
}

// eagerOracle predicts that whoever sent the last directory message
// for a block will upgrade next — deliberately trigger-happy, to stress
// the speculative grant path with wrong speculation. Its directory
// trains it on that directory's own stream.
type eagerOracle struct {
	last map[coherence.Addr]coherence.NodeID
}

func (o *eagerOracle) PredictNext(addr coherence.Addr) (coherence.Tuple, bool) {
	n, ok := o.last[addr]
	if !ok {
		return coherence.Tuple{}, false
	}
	return coherence.Tuple{Sender: n, Type: coherence.UpgradeReq}, true
}

func (o *eagerOracle) Train(addr coherence.Addr, t coherence.Tuple) {
	if o.last == nil {
		o.last = make(map[coherence.Addr]coherence.NodeID)
	}
	o.last[addr] = t.Sender
}

// TestCoherenceInvariantsOnBenchmarks runs all five paper workloads at
// small scale with the monitor attached: every invariant must hold at
// every sweep and at quiesce.
func TestCoherenceInvariantsOnBenchmarks(t *testing.T) {
	for _, app := range workload.Registry(16, workload.ScaleSmall) {
		app := app
		t.Run(app.Name(), func(t *testing.T) {
			cfg := smallConfig(16)
			cfg.Invariants = true
			m, err := New(cfg, stache.DefaultOptions(), app)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Run(50_000_000); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCoherenceInvariantsUnderFaults: the monitor must also hold on a
// lossy, duplicating, jittery wire with the reliable transport layered
// in — protocol-level conservation is exactly-once even when the wire
// is not.
func TestCoherenceInvariantsUnderFaults(t *testing.T) {
	cfg := smallConfig(8)
	cfg.Invariants = true
	cfg.Faults.Seed = 11
	cfg.Faults.DropProb = 0.05
	cfg.Faults.DupProb = 0.03
	cfg.Faults.JitterNs = 80
	r := rand.New(rand.NewSource(99))
	script, _ := randomScript(r, 8, 4, 4, 12)
	m, err := New(cfg, stache.DefaultOptions(), script)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
}

// quiesced builds a 4-node machine, runs a small conflict workload to
// completion under the monitor (which must pass), and returns the
// machine plus the first pool block — a known-coherent fixture the
// violation tests then corrupt.
func quiesced(t *testing.T) (*Machine, coherence.Addr) {
	t.Helper()
	geom := coherence.MustGeometry(64, 4096, 4)
	region := workload.NewArena(geom).Alloc(2)
	addr := region.Block(0)
	other := region.Block(1)
	script := &workload.Script{
		ScriptName: "corrupt-fixture",
		NumProcs:   4,
		Steps: [][][]workload.Access{{
			nil,
			{workload.Read(addr), workload.Write(other)},
			{workload.Write(other)},
			{workload.Write(other)},
		}},
	}
	cfg := smallConfig(4)
	cfg.Invariants = true
	m, err := New(cfg, stache.DefaultOptions(), script)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(1_000_000); err != nil {
		t.Fatalf("clean fixture run failed: %v", err)
	}
	return m, addr
}

// TestMonitorViolations corrupts a quiesced machine one invariant at a
// time and asserts the monitor fires the right rule with the right
// diagnostic. After the clean run, block addr is shared{P1} at its
// home directory (P0), so each corruption lands on known state.
func TestMonitorViolations(t *testing.T) {
	cases := []struct {
		name    string
		rule    string
		detail  string // must appear in the diagnostic
		corrupt func(m *Machine, addr coherence.Addr)
	}{
		{
			name:   "dir-owner-disagrees",
			rule:   invariant.RuleAgreement,
			detail: "the directory does not record",
			corrupt: func(m *Machine, addr coherence.Addr) {
				m.Directory(m.Geometry().Home(addr)).CorruptOwner(addr, 3)
			},
		},
		{
			name:   "dir-phantom-sharer",
			rule:   invariant.RuleAgreement,
			detail: "directory records sharer P2 but P2 holds no copy",
			corrupt: func(m *Machine, addr coherence.Addr) {
				m.Directory(m.Geometry().Home(addr)).CorruptAddSharer(addr, 2)
			},
		},
		{
			name:   "unrecorded-cache-copy",
			rule:   invariant.RuleAgreement,
			detail: "copy the directory does not record",
			corrupt: func(m *Machine, addr coherence.Addr) {
				m.Cache(2).CorruptState(addr, stache.CacheReadOnly)
			},
		},
		{
			name:   "two-writers",
			rule:   invariant.RuleSWMR,
			detail: "multiple writable copies held by [P2 P3]",
			corrupt: func(m *Machine, addr coherence.Addr) {
				m.Cache(2).CorruptState(addr, stache.CacheReadWrite)
				m.Cache(3).CorruptState(addr, stache.CacheReadWrite)
			},
		},
		{
			name:   "writer-beside-reader",
			rule:   invariant.RuleSWMR,
			detail: "coexists with readers",
			corrupt: func(m *Machine, addr coherence.Addr) {
				m.Cache(2).CorruptState(addr, stache.CacheReadWrite)
			},
		},
		{
			name:   "malformed-exclusive-entry",
			rule:   invariant.RuleLegality,
			detail: "retains sharer bits",
			corrupt: func(m *Machine, addr coherence.Addr) {
				d := m.Directory(m.Geometry().Home(addr))
				d.CorruptOwner(addr, 1)
				d.CorruptAddSharer(addr, 2)
			},
		},
		{
			name:   "unsent-delivery",
			rule:   invariant.RuleConservation,
			detail: "delivered without a matching send",
			corrupt: func(m *Machine, addr coherence.Addr) {
				m.Monitor().ObserveCache(2, coherence.Msg{
					Src: m.Geometry().Home(addr), Dst: 2,
					Type: coherence.InvalROReq, Addr: addr,
				})
			},
		},
		{
			name:   "illegal-transition",
			rule:   invariant.RuleTransition,
			detail: "no read fetch outstanding",
			corrupt: func(m *Machine, addr coherence.Addr) {
				msg := coherence.Msg{
					Src: m.Geometry().Home(addr), Dst: 2,
					Type: coherence.GetROResp, Addr: addr,
				}
				m.Monitor().ObserveSend(msg) // keep conservation balanced
				m.Monitor().ObserveCache(2, msg)
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			m, addr := quiesced(t)
			tc.corrupt(m, addr)
			err := m.Monitor().Check(m)
			if err == nil {
				t.Fatal("corruption went undetected")
			}
			var v *invariant.Violation
			if !errors.As(err, &v) {
				t.Fatalf("error is not a *invariant.Violation: %v", err)
			}
			if v.Rule != tc.rule {
				t.Errorf("rule = %q, want %q\n%v", v.Rule, tc.rule, err)
			}
			if !strings.Contains(err.Error(), tc.detail) {
				t.Errorf("diagnostic missing %q:\n%v", tc.detail, err)
			}
			if len(v.Nodes) != 4 {
				t.Errorf("diagnostic has %d node views, want 4", len(v.Nodes))
			}
		})
	}
}

// TestMonitorRunSurfacesViolation: corruption planted mid-run surfaces
// through Machine.Run as a wrapped *invariant.Violation with the full
// diagnostic attached.
func TestMonitorRunSurfacesViolation(t *testing.T) {
	cfg := smallConfig(8)
	cfg.Invariants = true
	cfg.InvariantEvery = 32
	app := workload.Registry(8, workload.ScaleSmall)[0]
	m, err := New(cfg, stache.DefaultOptions(), app)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := m.Engine().RegisterHandler(func(*sim.EventRec) {
		for _, e := range m.Directory(1).Entries() {
			m.Directory(1).CorruptOwner(e.Addr, 3)
			return
		}
	})
	m.Engine().PostAfter(5000, sim.EventRec{Kind: corrupt})
	err = m.Run(50_000_000)
	if err == nil {
		t.Fatal("corruption went undetected")
	}
	var v *invariant.Violation
	if !errors.As(err, &v) {
		t.Fatalf("Run error does not wrap a Violation: %v", err)
	}
	if !strings.Contains(err.Error(), "diagnostic at t=") {
		t.Errorf("Run error missing the machine diagnostic:\n%v", err)
	}
}

// TestSpeculationPreservesResults: with a real Cosmos oracle attached,
// a workload's access count and final coherence state remain legal,
// and speculative grants never break determinism.
func TestSpeculationDeterminism(t *testing.T) {
	run := func() (uint64, sim.Time) {
		cfg := sim.DefaultConfig()
		cfg.Nodes = 8
		app := workload.NewMoldyn(8, workload.ScaleSmall)
		m, err := New(cfg, stache.DefaultOptions(), app)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < 8; n++ {
			m.Directory(coherence.NodeID(n)).AttachSpeculation(&eagerOracle{}, nil, stache.SpecActions{RMW: true})
		}
		if err := m.Run(50_000_000); err != nil {
			t.Fatal(err)
		}
		return m.Accesses(), m.Engine().Now()
	}
	a1, t1 := run()
	a2, t2 := run()
	if a1 != a2 || t1 != t2 {
		t.Errorf("speculative runs diverged: (%d,%v) vs (%d,%v)", a1, t1, a2, t2)
	}
}
