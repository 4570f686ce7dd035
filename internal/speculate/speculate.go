// Package speculate integrates the Cosmos predictor with the Stache
// protocol along the lines of Section 4: predictors sit beside each
// directory module, monitor its incoming message stream, and trigger
// protocol actions on predictions.
//
// The paper deliberately evaluates prediction in isolation and only
// sketches integration; this package implements the four Table 2
// actions it can wire into the running protocol:
//
//   - the read-modify-write / migratory grant ("directory returns the
//     block in exclusive state instead of shared"), taken by the
//     directory on its oracle's advice;
//   - dynamic self-invalidation driven by Cosmos instead of a directed
//     detector (see SelfInvalidator);
//   - speculative downgrade and producer push, which hold speculative
//     protocol state.
//
// Attach wires any subset into a machine and AccelerateActions compares
// a run with them against the base protocol. Whether an action runs
// behind the governor follows from Section 4.3's recovery classes: the
// first two move the protocol between two legal states, so
// mis-predictions need no recovery machinery and they may run ungated
// (a wrong exclusive grant costs an extra invalidation later; a wrong
// self-invalidation costs the former owner one extra miss); the
// rollback actions always run behind the governor. The package also
// catalogues the full Table 2 action list with each action's recovery
// class.
package speculate

import (
	"fmt"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/core"
)

// RecoveryClass is Section 4.3's taxonomy of mis-prediction recovery.
type RecoveryClass int

const (
	// NoRecovery: the action moves the protocol between two legal
	// states; a mis-prediction costs performance, never correctness.
	NoRecovery RecoveryClass = iota
	// ProtocolRollback: the protocol state moved to a future state not
	// yet exposed to the processor; discard it on mis-prediction.
	ProtocolRollback
	// FullCheckpoint: both processor and protocol speculated; both
	// must roll back to a checkpoint.
	FullCheckpoint
)

// String names the class.
func (r RecoveryClass) String() string {
	switch r {
	case NoRecovery:
		return "no recovery needed"
	case ProtocolRollback:
		return "discard protocol future state"
	case FullCheckpoint:
		return "checkpoint and roll back processor + protocol"
	}
	return fmt.Sprintf("RecoveryClass(%d)", int(r))
}

// ActionSpec is one prediction->action pair in the style of Table 2.
type ActionSpec struct {
	Name       string
	Prediction string
	Action     string
	Class      RecoveryClass
	// Implemented marks the actions this package wires into the
	// running protocol (the rest are catalogued for completeness).
	Implemented bool
}

// Table2 returns the paper's example prediction->action pairs.
func Table2() []ActionSpec {
	return []ActionSpec{
		{
			Name:        "read-modify-write",
			Prediction:  "after a get_ro_request from P, the next message is an upgrade_request from P",
			Action:      "answer the read with the block in exclusive state",
			Class:       NoRecovery,
			Implemented: true,
		},
		{
			Name:        "self-invalidation",
			Prediction:  "the cache's next incoming message is an inval_rw_request",
			Action:      "replace the block to the directory before the request arrives",
			Class:       NoRecovery,
			Implemented: true,
		},
		{
			Name:        "speculative downgrade",
			Prediction:  "an exclusive block's next message is a get_ro_request from a third party",
			Action:      "fetch the block back from the owner before the read arrives; the pending expectation is discarded on the next real message",
			Class:       ProtocolRollback,
			Implemented: true,
		},
		{
			Name:        "producer push",
			Prediction:  "after a producer's write-back, consumers' get_ro_requests follow",
			Action:      "forward the block to the predicted consumers speculatively; unclaimed copies are discarded on invalidation or at reconcile",
			Class:       ProtocolRollback,
			Implemented: true,
		},
		{
			Name:       "speculative protocol sequence",
			Prediction: "the block's whole message signature",
			Action:     "pre-execute protocol actions and buffer outgoing messages until the prediction commits",
			Class:      ProtocolRollback,
		},
		{
			Name:       "processor-coupled speculation",
			Prediction: "an incoming data response",
			Action:     "let a speculative processor consume predicted data before it arrives",
			Class:      FullCheckpoint,
		},
	}
}

// Oracle adapts a Cosmos predictor to the stache.Oracle hook for one
// directory module. The directory scores and then trains it on exactly
// the stream it receives.
type Oracle struct {
	p *core.Predictor
}

// NewOracle builds an oracle around a fresh Cosmos predictor.
func NewOracle(cfg core.Config) (*Oracle, error) {
	p, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Oracle{p: p}, nil
}

// PredictNext implements stache.Oracle.
func (o *Oracle) PredictNext(addr coherence.Addr) (coherence.Tuple, bool) {
	return o.p.Predict(addr)
}

// Train implements stache.Oracle: it feeds one received message into
// the predictor.
func (o *Oracle) Train(addr coherence.Addr, t coherence.Tuple) { o.p.Update(addr, t) }
