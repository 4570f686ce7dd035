package invariant

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/stache"
)

// nodeBlock keys the fixture's per-node cache maps.
type nodeBlock struct {
	node coherence.NodeID
	addr coherence.Addr
}

// fixture is a map-backed View: a machine state written down by hand,
// with no simulator behind it.
type fixture struct {
	geom     coherence.Geometry
	opts     stache.Options
	caches   map[nodeBlock]stache.CacheState
	spec     map[nodeBlock]bool
	entries  map[coherence.Addr]stache.EntryInfo
	inFlight int
}

func (f *fixture) Geometry() coherence.Geometry    { return f.geom }
func (f *fixture) ProtocolOptions() stache.Options { return f.opts }
func (f *fixture) CacheState(n coherence.NodeID, addr coherence.Addr) stache.CacheState {
	return f.caches[nodeBlock{n, addr}] // absent = CacheInvalid
}
func (f *fixture) CachePending(coherence.NodeID, coherence.Addr) (string, bool) { return "", false }
func (f *fixture) CacheSpec(n coherence.NodeID, addr coherence.Addr) bool {
	return f.spec[nodeBlock{n, addr}]
}
func (f *fixture) HomeEntry(addr coherence.Addr) (stache.EntryInfo, bool) {
	e, ok := f.entries[addr]
	return e, ok
}
func (f *fixture) DirectoryBlocks() []coherence.Addr {
	out := make([]coherence.Addr, 0, len(f.entries))
	for addr := range f.entries {
		out = append(out, addr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
func (f *fixture) NetworkInFlight() int      { return f.inFlight }
func (f *fixture) TransportUndelivered() int { return -1 }

// Three blocks on a four-node machine with 64-byte blocks and pages,
// so block i's home is node i: a shared block read by nodes 2 and 3,
// an exclusive block written by node 0, and an idle block.
const (
	sharedBlock    = coherence.Addr(1 * 64)
	exclusiveBlock = coherence.Addr(2 * 64)
	idleBlock      = coherence.Addr(3 * 64)
)

// cleanFixture is a quiescent machine every rule accepts.
func cleanFixture(t *testing.T) *fixture {
	t.Helper()
	geom, err := coherence.NewGeometry(64, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		geom: geom,
		opts: stache.DefaultOptions(),
		caches: map[nodeBlock]stache.CacheState{
			{2, sharedBlock}:    stache.CacheReadOnly,
			{3, sharedBlock}:    stache.CacheReadOnly,
			{0, exclusiveBlock}: stache.CacheReadWrite,
		},
		spec: map[nodeBlock]bool{},
		entries: map[coherence.Addr]stache.EntryInfo{
			sharedBlock: {Addr: sharedBlock, State: stache.EntryShared,
				Sharers: []coherence.NodeID{2, 3}, Owner: coherence.NoNode, SpecExpect: coherence.NoNode},
			exclusiveBlock: {Addr: exclusiveBlock, State: stache.EntryExclusive,
				Owner: 0, SpecExpect: coherence.NoNode},
			idleBlock: {Addr: idleBlock, State: stache.EntryIdle,
				Owner: coherence.NoNode, SpecExpect: coherence.NoNode},
		},
	}
}

// quiesce checks a fixture the way the machine does at the end of a run.
func quiesce(f *fixture) error {
	m := New(Config{})
	m.Bind(nil, f.geom, f.opts)
	return m.CheckQuiesce(f)
}

func TestCleanFixturePasses(t *testing.T) {
	if err := quiesce(cleanFixture(t)); err != nil {
		t.Fatalf("clean quiescent fixture failed: %v", err)
	}
}

// TestEachRuleFails breaks the clean fixture in one place per rule; the
// quiesce check must report that rule with the defect's own diagnosis.
func TestEachRuleFails(t *testing.T) {
	for _, tc := range []struct {
		rule   string
		detail string
		mutate func(f *fixture)
	}{
		{RuleSWMR, "multiple writable copies", func(f *fixture) {
			f.caches[nodeBlock{1, exclusiveBlock}] = stache.CacheReadWrite
		}},
		{RuleLegality, "exclusive entry has no owner", func(f *fixture) {
			delete(f.caches, nodeBlock{0, exclusiveBlock})
			e := f.entries[exclusiveBlock]
			e.Owner = coherence.NoNode
			f.entries[exclusiveBlock] = e
		}},
		{RuleAgreement, "the directory does not record", func(f *fixture) {
			f.caches[nodeBlock{0, idleBlock}] = stache.CacheReadOnly
		}},
		{RuleConservation, "still on the wire", func(f *fixture) {
			f.inFlight = 1
		}},
		{RuleSpeculation, "Options.Speculation is off", func(f *fixture) {
			f.spec[nodeBlock{2, sharedBlock}] = true
			e := f.entries[sharedBlock]
			e.SpecPushed = []coherence.NodeID{2}
			f.entries[sharedBlock] = e
		}},
	} {
		t.Run(tc.rule, func(t *testing.T) {
			f := cleanFixture(t)
			tc.mutate(f)
			wantViolation(t, quiesce(f), tc.rule, tc.detail)
		})
	}
}

// wantViolation fails unless err is a *Violation of rule whose detail
// names detail.
func wantViolation(t *testing.T, err error, rule, detail string) {
	t.Helper()
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("got %v, want a *Violation", err)
	}
	if v.Rule != rule || !strings.Contains(v.Detail, detail) {
		t.Errorf("got [%s] %q, want [%s] naming %q", v.Rule, v.Detail, rule, detail)
	}
}

// TestTransitionRuleFails: a read response delivered to a cache that
// never asked for one is illegal for the cache's shadow state machine,
// whatever the machine state looks like afterwards.
func TestTransitionRuleFails(t *testing.T) {
	f := cleanFixture(t)
	m := New(Config{})
	m.Bind(nil, f.geom, f.opts)
	resp := coherence.Msg{Src: f.geom.Home(sharedBlock), Dst: 2, Type: coherence.GetROResp, Addr: sharedBlock}
	m.ObserveSend(resp)
	m.ObserveCache(2, resp)
	wantViolation(t, m.Check(f), RuleTransition, "no read fetch outstanding")
}

// TestTickCadence: with Every 3, Tick sweeps the state on the third
// tick and not on the first two, so a defect present from the start
// surfaces only then.
func TestTickCadence(t *testing.T) {
	f := cleanFixture(t)
	f.caches[nodeBlock{1, exclusiveBlock}] = stache.CacheReadWrite
	m := New(Config{Every: 3})
	m.Bind(nil, f.geom, f.opts)
	for tick := 1; tick <= 2; tick++ {
		if err := m.Tick(f); err != nil || m.Sweeps() != 0 {
			t.Fatalf("tick %d: %v after %d sweeps, want no sweep yet", tick, err, m.Sweeps())
		}
	}
	wantViolation(t, m.Tick(f), RuleSWMR, "multiple writable copies")
	if m.Sweeps() != 1 {
		t.Errorf("%d sweeps after three ticks, want 1", m.Sweeps())
	}
}
