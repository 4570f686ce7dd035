package speculate

import (
	"sort"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/machine"
	"github.com/cosmos-coherence/cosmos/internal/stache"
)

// SelfInvalidator implements the second Table 2 action with a general
// predictor: dynamic self-invalidation (Lebeck & Wood) driven by
// Cosmos instead of a directed detector. A Cosmos predictor sits
// beside each cache; whenever a block's predicted next incoming
// message is an inval_rw_request — i.e. another node is about to pull
// this exclusive block away — the cache returns the block to the
// directory at the next synchronization point, before the request
// arrives. The consumer's subsequent miss is then served by the
// directory directly (two hops) instead of through a fetch-back (four
// hops).
//
// Like the read-modify-write grant, the action moves the protocol
// between two legal states (a replacement), so mis-predictions need no
// recovery; a wrong self-invalidation costs the former owner one extra
// miss (Section 4.3's replacement example).
type SelfInvalidator struct {
	m     *machine.Machine
	preds []*core.Predictor
	// gate, when non-nil, verifies standing predictions against arriving
	// messages and must allow each eviction.
	gate stache.Gate
	// candidates[n] holds the blocks node n should return at the next
	// barrier.
	candidates []map[coherence.Addr]bool
	evicted    uint64
}

// AttachSelfInvalidation wires a SelfInvalidator with one predictor
// per node into a machine. With a non-nil g every eviction goes through
// it: the cache-side predictors' hits and misses feed g's confidence
// machinery, and a barrier eviction happens only if g.Allow(SpecDSI,
// addr) grants it. Call before machine.Run.
func AttachSelfInvalidation(m *machine.Machine, cfg core.Config, g stache.Gate) (*SelfInvalidator, error) {
	s := &SelfInvalidator{m: m, gate: g}
	for i := 0; i < m.Geometry().Nodes(); i++ {
		p, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		s.preds = append(s.preds, p)
		s.candidates = append(s.candidates, make(map[coherence.Addr]bool))
	}
	m.AddObserver(s)
	return s, nil
}

// SelfInvalidations returns how many blocks were proactively returned.
func (s *SelfInvalidator) SelfInvalidations() uint64 { return s.evicted }

// ObserveCache implements machine.Observer: train the node's predictor
// and update the candidate set.
func (s *SelfInvalidator) ObserveCache(n coherence.NodeID, msg coherence.Msg) {
	p := s.preds[n]
	if s.gate != nil {
		if pred, ok := p.Predict(msg.Addr); ok {
			s.gate.Observe(msg.Addr, pred == msg.Tuple())
		}
	}
	p.Update(msg.Addr, msg.Tuple())
	if pred, ok := p.Predict(msg.Addr); ok && pred.Type == coherence.InvalRWReq {
		s.candidates[n][msg.Addr] = true
	} else {
		delete(s.candidates[n], msg.Addr)
	}
}

// ObserveDirectory implements machine.Observer (unused).
func (s *SelfInvalidator) ObserveDirectory(coherence.NodeID, coherence.Msg) {}

// EndIteration implements machine.Observer: at the barrier — the
// natural "right time" trigger of Section 4.2, when the block's
// producer has finished its phase — return every candidate block.
func (s *SelfInvalidator) EndIteration(int) {
	for n, cands := range s.candidates {
		node := coherence.NodeID(n)
		// Sorted order keeps the eviction (and gate-decision) sequence
		// independent of map iteration order.
		addrs := make([]coherence.Addr, 0, len(cands))
		for addr := range cands {
			addrs = append(addrs, addr)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, addr := range addrs {
			if s.m.Cache(node).State(addr) == stache.CacheReadWrite &&
				(s.gate == nil || s.gate.Allow(stache.SpecDSI, addr)) {
				s.m.Cache(node).Evict(addr)
				s.evicted++
			}
			delete(cands, addr)
		}
	}
}
