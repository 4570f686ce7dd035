package experiments

import (
	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/machine"
	"github.com/cosmos-coherence/cosmos/internal/parallel"
	"github.com/cosmos-coherence/cosmos/internal/stats"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

// StateEquivalenceRow is one benchmark's footnote-1 test: the accuracy
// of predicting the next incoming *message* versus the next directory
// *state*, both with depth-1 per-block histories at the directories.
type StateEquivalenceRow struct {
	App string
	// MessageAccuracy is directory-side Cosmos depth-1 accuracy.
	MessageAccuracy float64
	// StateAccuracy is the analogous accuracy of a depth-1 per-block
	// state predictor over the directory-state stream.
	StateAccuracy float64
	// DistinctStates counts the distinct directory states observed: the
	// state space a state predictor must encode, where a message fits
	// in two bytes (footnote 1's reason to prefer messages).
	DistinctStates int
}

// statePredictor is a depth-1 per-block sequence predictor over opaque
// state strings — the state-space twin of a depth-1 Cosmos.
type statePredictor struct {
	last map[coherence.Addr]string
	pht  map[coherence.Addr]map[string]string
}

func newStatePredictor() *statePredictor {
	return &statePredictor{
		last: make(map[coherence.Addr]string),
		pht:  make(map[coherence.Addr]map[string]string),
	}
}

// observe predicts the state observed at this message arrival from the
// previous one, then trains. It mirrors core.Predictor.Observe.
func (s *statePredictor) observe(addr coherence.Addr, state string) (predicted, correct bool) {
	prev, seen := s.last[addr]
	if seen {
		tbl := s.pht[addr]
		if tbl == nil {
			tbl = make(map[string]string)
			s.pht[addr] = tbl
		}
		if pred, ok := tbl[prev]; ok {
			predicted = true
			correct = pred == state
		}
		tbl[prev] = state
	}
	s.last[addr] = state
	return predicted, correct
}

// stateObserver drives per-node state predictors from live directory
// receptions. The state observed at a message's arrival — before the
// directory processes it — is the state the *previous* message left
// behind, so the observed sequence is exactly the per-block state
// trajectory.
type stateObserver struct {
	m        *machine.Machine
	preds    []*statePredictor
	total    uint64
	hits     uint64
	distinct map[string]bool
}

func (o *stateObserver) ObserveCache(coherence.NodeID, coherence.Msg) {}
func (o *stateObserver) EndIteration(int)                             {}
func (o *stateObserver) ObserveDirectory(n coherence.NodeID, msg coherence.Msg) {
	state := o.m.Directory(n).EntryState(msg.Addr)
	o.distinct[state] = true
	_, correct := o.preds[n].observe(msg.Addr, state)
	o.total++
	if correct {
		o.hits++
	}
}

// StateEquivalence tests footnote 1's claim ("Cosmos could predict the
// next coherence protocol state, instead of the next incoming
// coherence message. We believe these two approaches are equivalent")
// by comparing depth-1 Cosmos over the directory message stream, read
// from the suite, with a depth-1 state predictor driven by the
// directory state trajectory of a fresh simulation of each benchmark.
func StateEquivalence(s *Suite) ([]StateEquivalenceRow, error) {
	apps := s.Apps()
	return parallel.Map(len(apps), s.workers, func(i int) (StateEquivalenceRow, error) {
		name := apps[i]
		res, err := s.Evaluate(name, core.Config{Depth: 1}, stats.Options{})
		if err != nil {
			return StateEquivalenceRow{}, err
		}
		app, err := workload.ByName(name, s.cfg.Machine.Nodes, s.cfg.Scale)
		if err != nil {
			return StateEquivalenceRow{}, err
		}
		so := &stateObserver{distinct: make(map[string]bool)}
		for i := 0; i < s.cfg.Machine.Nodes; i++ {
			so.preds = append(so.preds, newStatePredictor())
		}
		if _, err := simulate(app, s.cfg, func(m *machine.Machine) {
			so.m = m
			m.AddObserver(so)
		}); err != nil {
			return StateEquivalenceRow{}, err
		}
		row := StateEquivalenceRow{
			App:             name,
			MessageAccuracy: 100 * res.Dir.Accuracy(),
			DistinctStates:  len(so.distinct),
		}
		if so.total > 0 {
			row.StateAccuracy = 100 * float64(so.hits) / float64(so.total)
		}
		return row, nil
	})
}
