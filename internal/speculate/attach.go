package speculate

import (
	"fmt"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/governor"
	"github.com/cosmos-coherence/cosmos/internal/machine"
	"github.com/cosmos-coherence/cosmos/internal/sim"
	"github.com/cosmos-coherence/cosmos/internal/stache"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

// Actions selects which Table 2 actions Attach wires into a machine.
type Actions struct {
	// RMW is the read-modify-write exclusive grant (NoRecovery).
	RMW bool
	// DSI is Cosmos-driven dynamic self-invalidation (NoRecovery).
	DSI bool
	// Downgrade is the speculative fetch-back of an exclusive block
	// ahead of a predicted third-party read (ProtocolRollback).
	Downgrade bool
	// Forward pushes blocks to predicted requestors before they ask
	// (ProtocolRollback).
	Forward bool
}

// AllActions enables all four implemented actions.
func AllActions() Actions {
	return Actions{RMW: true, DSI: true, Downgrade: true, Forward: true}
}

// String renders the action set as "rmw+dsi+downgrade+forward".
func (a Actions) String() string {
	s := ""
	add := func(on bool, name string) {
		if !on {
			return
		}
		if s != "" {
			s += "+"
		}
		s += name
	}
	add(a.RMW, "rmw")
	add(a.DSI, "dsi")
	add(a.Downgrade, "downgrade")
	add(a.Forward, "forward")
	if s == "" {
		return "none"
	}
	return s
}

// AttachConfig configures Attach: which actions run, the Cosmos
// predictor each directory and cache gets, and the governor thresholds
// shared by the whole machine. A nil Governor runs the actions ungated,
// which only the NoRecovery actions (RMW, DSI) may do.
type AttachConfig struct {
	Actions   Actions
	Predictor core.Config
	Governor  *governor.Config
}

// Attached bundles the machinery Attach wired into a machine, so
// callers can read its statistics after the run.
type Attached struct {
	// Governor is nil for an ungated run.
	Governor *governor.Governor
	// SelfInval is nil unless Actions.DSI.
	SelfInval *SelfInvalidator
}

// Attach wires the speculation stack into a machine: a Cosmos oracle
// beside every directory (unless the run is ungated and takes no
// directory action), the enabled subset of Table 2's actions, the
// shared governor that gates them when one is configured, and an
// end-of-run reconciler that discards whatever speculative state is
// still outstanding at the final barrier — barriers live outside the
// coherence protocol (Section 5.1), so the discard needs no protocol
// messages. Call before machine.Run.
func Attach(m *machine.Machine, cfg AttachConfig) (*Attached, error) {
	acts := cfg.Actions
	rollback := acts.Downgrade || acts.Forward
	if rollback && !m.ProtocolOptions().Speculation {
		return nil, fmt.Errorf("speculate: actions %v need stache.Options.Speculation", acts)
	}
	att := &Attached{}
	// gate stays a nil interface when ungated: a nil *Governor inside a
	// Gate would not compare equal to nil.
	var gate stache.Gate
	if cfg.Governor != nil {
		gov, err := governor.New(*cfg.Governor)
		if err != nil {
			return nil, err
		}
		att.Governor, gate = gov, gov
	} else if rollback {
		return nil, fmt.Errorf("speculate: actions %v need a governor", acts)
	}
	// The directory oracles drive the directory actions and, in a gated
	// run, score every arriving message for the governor's misprediction
	// breaker (gate.Observe). An ungated self-invalidation-only run reads
	// neither, so it trains none.
	if acts.RMW || rollback || gate != nil {
		for i := 0; i < m.Geometry().Nodes(); i++ {
			o, err := NewOracle(cfg.Predictor)
			if err != nil {
				return nil, err
			}
			node := coherence.NodeID(i)
			m.Directory(node).AttachSpeculation(o, gate, stache.SpecActions{
				RMW:       acts.RMW,
				Downgrade: acts.Downgrade,
				Forward:   acts.Forward,
			})
			m.Cache(node).AttachGate(gate)
		}
	}
	if acts.DSI {
		si, err := AttachSelfInvalidation(m, cfg.Predictor, gate)
		if err != nil {
			return nil, err
		}
		att.SelfInval = si
	}
	// The reconciler must observe EndIteration after the self-invalidator
	// (observers fire in attach order), so the final barrier's
	// self-invalidations happen before the drain begins.
	m.AddObserver(&controller{m: m})
	return att, nil
}

// controller is the end-of-run reconciler: at the final barrier it
// stops further speculation, then walks every directory's outstanding
// speculative bookkeeping and settles it against the caches — claimed
// pushes become ordinary sharers, unclaimed ones are discarded on both
// sides, and unresolved downgrade expectations are dropped. After it
// runs, a correct implementation has zero speculative state, which the
// invariant monitor's quiesce rules verify independently.
type controller struct {
	m *machine.Machine
}

func (c *controller) ObserveCache(coherence.NodeID, coherence.Msg)     {}
func (c *controller) ObserveDirectory(coherence.NodeID, coherence.Msg) {}

func (c *controller) EndIteration(iter int) {
	if iter != c.m.TotalIterations()-1 {
		return
	}
	nodes := c.m.Geometry().Nodes()
	for i := 0; i < nodes; i++ {
		node := coherence.NodeID(i)
		c.m.Directory(node).BeginDrain()
		c.m.Cache(node).BeginDrain()
	}
	for i := 0; i < nodes; i++ {
		d := c.m.Directory(coherence.NodeID(i))
		for _, r := range d.SpecOutstanding() {
			for _, n := range r.Pushed {
				cache := c.m.Cache(n)
				switch {
				case cache.Spec(r.Addr):
					// Unclaimed copy still sitting in the cache: discard
					// both sides as if the push never happened.
					cache.DiscardSpec(r.Addr)
					d.ResolveSpecPush(r.Addr, n, true)
				case cache.State(r.Addr) != stache.CacheInvalid:
					// The push was claimed by a real access; the node is
					// an ordinary sharer now.
					d.ResolveSpecPush(r.Addr, n, false)
				default:
					// The cache dropped the push — or it is still in
					// flight and the draining cache will drop it on
					// arrival.
					d.ResolveSpecPush(r.Addr, n, true)
				}
			}
			if r.Expect != coherence.NoNode {
				d.ResolveSpecExpect(r.Addr)
			}
		}
	}
}

// RunStats summarizes one machine run for the acceleration comparison.
type RunStats struct {
	// Messages is the total network message count.
	Messages uint64
	// UpgradeRequests counts upgrade_request messages — the round
	// trips the RMW action eliminates.
	UpgradeRequests uint64
	// Invalidations counts inval/downgrade requests sent by
	// directories — mis-speculation shows up here.
	Invalidations uint64
	// Speculations counts every action taken: the sum of the four
	// per-action counters below.
	Speculations uint64
	// FinalTime is the simulated completion time.
	FinalTime sim.Time
	// SpecRMW counts exclusive-for-shared grants; SpecDSI counts
	// self-invalidations; SpecFetches counts speculative downgrades
	// started; SpecPushes counts spec_push messages sent.
	SpecRMW     uint64
	SpecDSI     uint64
	SpecFetches uint64
	SpecPushes  uint64
	// SpecClaims / SpecDiscards split pushed copies by outcome.
	SpecClaims   uint64
	SpecDiscards uint64
	// GovTrips is how often the circuit breaker opened; GovState its
	// final state ("closed" when the run had no governor).
	GovTrips uint64
	GovState string
	// Digest is machine.StateDigest() after the run: byte-equivalent
	// end states hash identically.
	Digest string
}

// Comparison is the outcome of AccelerateActions: the same workload run
// with and without prediction-triggered actions.
type Comparison struct {
	Baseline    RunStats
	Accelerated RunStats
}

// MessageReduction returns the relative reduction in total messages.
func (c Comparison) MessageReduction() float64 {
	if c.Baseline.Messages == 0 {
		return 0
	}
	return 1 - float64(c.Accelerated.Messages)/float64(c.Baseline.Messages)
}

// TimeReduction returns the relative reduction in simulated runtime.
func (c Comparison) TimeReduction() float64 {
	if c.Baseline.FinalTime == 0 {
		return 0
	}
	return 1 - float64(c.Accelerated.FinalTime)/float64(c.Baseline.FinalTime)
}

// AccelerateActions runs app twice — plain, and with the configured
// action set attached (gated when cfg.Governor is set) — and reports
// both runs. Both runs use identical protocol options (the Speculation
// option changes nothing until Attach arms it), so the baseline digest
// is the true base-protocol end state.
func AccelerateActions(app func() workload.App, mcfg sim.Config, opts stache.Options, cfg AttachConfig) (*Comparison, error) {
	run := func(attach bool) (RunStats, error) {
		m, err := machine.New(mcfg, opts, app())
		if err != nil {
			return RunStats{}, err
		}
		att := &Attached{}
		if attach {
			if att, err = Attach(m, cfg); err != nil {
				return RunStats{}, err
			}
		}
		if err := m.Run(2_000_000_000); err != nil {
			return RunStats{}, err
		}
		ns := m.Network().Stats()
		st := RunStats{
			Messages:        ns.MessagesSent,
			UpgradeRequests: ns.MessagesByType[coherence.UpgradeReq],
			Invalidations: ns.MessagesByType[coherence.InvalROReq] +
				ns.MessagesByType[coherence.InvalRWReq] +
				ns.MessagesByType[coherence.DowngradeReq],
			FinalTime: m.Engine().Now(),
			GovState:  governor.Closed.String(),
			Digest:    m.StateDigest(),
		}
		for i := 0; i < mcfg.Nodes; i++ {
			node := coherence.NodeID(i)
			st.SpecRMW += m.Directory(node).Speculations()
			f, p := m.Directory(node).SpecStats()
			st.SpecFetches += f
			st.SpecPushes += p
			cl, di := m.Cache(node).SpecStats()
			st.SpecClaims += cl
			st.SpecDiscards += di
		}
		if att.SelfInval != nil {
			st.SpecDSI = att.SelfInval.SelfInvalidations()
		}
		if att.Governor != nil {
			st.GovTrips = att.Governor.Stats().Trips
			st.GovState = att.Governor.State().String()
		}
		st.Speculations = st.SpecRMW + st.SpecDSI + st.SpecFetches + st.SpecPushes
		return st, nil
	}
	base, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("speculate: baseline run: %w", err)
	}
	acc, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("speculate: %v run: %w", cfg.Actions, err)
	}
	return &Comparison{Baseline: base, Accelerated: acc}, nil
}
