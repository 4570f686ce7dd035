package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/directed"
	"github.com/cosmos-coherence/cosmos/internal/stats"
	"github.com/cosmos-coherence/cosmos/internal/trace"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

// TestShardedEvaluateEquivalence is the slot-sharding regression test:
// for every workload and every predictor family the evaluators drive,
// the sharded path at 1, 2 and 8 workers must equal the serial
// arrival-order walk (for the stats bank, the streamed walk of
// stats.EvaluateStream; for scoreSlots, serialScore). This is the exactness claim slot sharding
// rests on — predictor state never crosses a (node, side) slot
// boundary, so sharding may never change a single counter.
func TestShardedEvaluateEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates every workload under many configurations")
	}
	cfg := DefaultConfig()
	cfg.Scale = workload.ScaleSmall
	s := NewSuite(cfg)

	var seen slotScore
	for _, app := range s.Apps() {
		tr, err := s.Trace(app)
		if err != nil {
			t.Fatal(err)
		}

		// stats.Evaluate: Cosmos depths 1-3, arcs and iteration caps on.
		var enc bytes.Buffer
		if err := trace.Write(&enc, tr); err != nil {
			t.Fatal(err)
		}
		for depth := 1; depth <= 3; depth++ {
			pcfg := core.Config{Depth: depth}
			opts := stats.Options{TrackArcs: true, MaxIterations: 3}
			sr, err := trace.NewStreamReader(bytes.NewReader(enc.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			serial, err := stats.EvaluateStream(sr, sr.App(), sr.Nodes(), pcfg, stats.StreamOptions{Options: opts})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 8} {
				o := opts
				o.Workers = workers
				sharded, err := stats.Evaluate(tr, pcfg, o)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(serial, sharded) {
					t.Errorf("%s depth %d workers %d: sharded result differs from serial:\n%+v\n%+v",
						app, depth, workers, serial, sharded)
				}
			}
		}

		// The per-slot scorer, for every predictor family it runs, on
		// each side and on both.
		for _, f := range scoredFamilies() {
			for _, sides := range [][]trace.Side{bothSides, {trace.CacheSide}, {trace.DirectorySide}} {
				want := serialScore(t, tr, sides, f.mk)
				seen.total += want.total
				seen.ventured += want.ventured
				seen.mhr += want.mhr
				seen.pht += want.pht
				seen.classified += want.classified
				for _, workers := range []int{1, 2, 8} {
					got, err := scoreSlots(tr, workers, sides, f.mk)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("%s %s on %v, workers %d: scorer %+v != serial %+v",
							app, f.name, sides, workers, got, want)
					}
				}
			}
		}
	}
	// Every count the comparison covers must have been exercised.
	if seen.total == 0 || seen.ventured == 0 || seen.mhr == 0 || seen.pht == 0 || seen.classified == 0 {
		t.Errorf("the scorer comparison left a count at zero everywhere: %+v", seen)
	}

	// PAg (shared-PHT-within-a-predictor) through the full driver.
	var pagRuns [][]PApVsPAgRow
	for _, workers := range []int{1, 2, 8} {
		c := cfg
		c.Workers = workers
		rows, err := PApVsPAg(NewSuite(c), 1)
		if err != nil {
			t.Fatal(err)
		}
		pagRuns = append(pagRuns, rows)
	}
	for i := 1; i < len(pagRuns); i++ {
		if !reflect.DeepEqual(pagRuns[0], pagRuns[i]) {
			t.Errorf("PApVsPAg differs between worker widths:\n%+v\n%+v", pagRuns[0], pagRuns[i])
		}
	}
}

// scoredFamily is one predictor family scoreSlots runs.
type scoredFamily struct {
	name string
	mk   func() (directed.MessagePredictor, error)
}

// scoredFamilies lists every predictor family the experiment drivers
// hand to scoreSlots.
func scoredFamilies() []scoredFamily {
	macro := func(cfg core.MacroConfig) func() (directed.MessagePredictor, error) {
		return func() (directed.MessagePredictor, error) { return core.NewMacro(cfg) }
	}
	return []scoredFamily{
		{"macro g1", macro(core.MacroConfig{Base: core.Config{Depth: 1}, BlockGroup: 1, BlockBytes: 64})},
		{"macro g4", macro(core.MacroConfig{Base: core.Config{Depth: 1}, BlockGroup: 4, BlockBytes: 64})},
		{"macro sender-agnostic", macro(core.MacroConfig{Base: core.Config{Depth: 1}, BlockGroup: 1, BlockBytes: 64, SenderAgnosticHistory: true})},
		{"pag d2", func() (directed.MessagePredictor, error) { return core.NewPAg(core.Config{Depth: 2}) }},
		{"last-tuple", func() (directed.MessagePredictor, error) { return directed.NewLastTuple(), nil }},
		{"most-common", func() (directed.MessagePredictor, error) { return directed.NewMostCommon(), nil }},
		{"migratory", func() (directed.MessagePredictor, error) { return directed.NewMigratory(), nil }},
		{"self-invalidation", func() (directed.MessagePredictor, error) { return directed.NewSelfInvalidation(), nil }},
		{"cosmos d3", func() (directed.MessagePredictor, error) { return core.New(core.Config{Depth: 3}) }},
	}
}

// serialScore is the arrival-order reference for scoreSlots: one
// predictor per (node, side) of the requested sides, driven straight
// off tr.Records, with each family's counts read from its concrete
// type.
func serialScore(t *testing.T, tr *trace.Trace, sides []trace.Side, mk func() (directed.MessagePredictor, error)) slotScore {
	t.Helper()
	preds := make([]directed.MessagePredictor, 2*tr.Nodes)
	for i := range preds {
		p, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		preds[i] = p
	}
	var sc slotScore
	for _, rec := range tr.Records {
		if !slices.Contains(sides, rec.Side) {
			continue
		}
		_, predicted, correct := preds[int(rec.Node)*2+int(rec.Side)].Observe(rec.Addr, rec.Tuple())
		sc.total++
		if predicted {
			sc.ventured++
		}
		if correct {
			sc.hits++
		}
	}
	for _, p := range preds {
		switch p := p.(type) {
		case *core.MacroPredictor:
			sc.mhr += p.MHREntries()
			sc.pht += p.PHTEntries()
		case *core.PAg:
			sc.mhr += p.MHREntries()
			sc.pht += p.PHTEntries()
		case *core.Predictor:
			sc.mhr += p.MHREntries()
			sc.pht += p.PHTEntries()
		case *directed.Migratory:
			sc.classified += p.ClassifiedBlocks()
		case *directed.SelfInvalidation:
			sc.classified += p.ClassifiedBlocks()
		}
	}
	return sc
}

// TestTraceCacheRoundTrip pins the cache's byte-identity guarantee: a
// cold run stores the trace, a warm run loads it, the cached file's
// bytes equal a fresh encoding of the simulated trace, and evaluation
// results are DeepEqual across cold and warm.
func TestTraceCacheRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a workload")
	}
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.Scale = workload.ScaleSmall
	cfg.TraceCache = dir
	const app = "dsmc"
	pcfg := core.Config{Depth: 1}

	cold := NewSuite(cfg)
	coldTr, err := cold.Trace(app)
	if err != nil {
		t.Fatal(err)
	}
	coldRes, err := cold.Evaluate(app, pcfg, stats.Options{TrackArcs: true})
	if err != nil {
		t.Fatal(err)
	}

	// The stored file must be exactly what encoding the fresh trace
	// yields.
	key := cfg.traceKey(app)
	stored, err := os.ReadFile(filepath.Join(dir, key+".ctrc"))
	if err != nil {
		t.Fatalf("cold run left no cache entry: %v", err)
	}
	var fresh bytes.Buffer
	if err := trace.Write(&fresh, coldTr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored, fresh.Bytes()) {
		t.Fatal("cached bytes differ from a fresh encoding of the simulated trace")
	}

	warm := NewSuite(cfg)
	warmTr, err := warm.Trace(app)
	if err != nil {
		t.Fatal(err)
	}
	if warmTr.App != coldTr.App || warmTr.Nodes != coldTr.Nodes ||
		warmTr.Iterations != coldTr.Iterations ||
		!reflect.DeepEqual(warmTr.Records, coldTr.Records) {
		t.Fatal("cache-hit trace differs from the simulated trace")
	}
	warmRes, err := warm.Evaluate(app, pcfg, stats.Options{TrackArcs: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(coldRes, warmRes) {
		t.Fatalf("cold and warm evaluations differ:\n%+v\n%+v", coldRes, warmRes)
	}
}

// TestTraceCacheKeySensitivity: anything that changes the trace
// changes the key; the pool width does not.
func TestTraceCacheKeySensitivity(t *testing.T) {
	base := DefaultConfig()
	k := base.traceKey("dsmc")
	if k2 := base.traceKey("moldyn"); k2 == k {
		t.Error("key ignores the app")
	}
	scaled := base
	scaled.Scale = workload.ScaleSmall
	if scaled.traceKey("dsmc") == k {
		t.Error("key ignores the scale")
	}
	machine := base
	machine.Machine.Nodes = 4
	if machine.traceKey("dsmc") == k {
		t.Error("key ignores the machine configuration")
	}
	pooled := base
	pooled.Workers = 8
	if pooled.traceKey("dsmc") != k {
		t.Error("key depends on Workers, but pool width never changes the trace")
	}
	cached := base
	cached.TraceCache = "/elsewhere"
	if cached.traceKey("dsmc") != k {
		t.Error("key depends on the cache location itself")
	}
}

// TestTraceCacheCorruptionFailsRun: a damaged cache entry must fail
// the suite loudly, not silently re-simulate.
func TestTraceCacheCorruptionFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a workload")
	}
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.Scale = workload.ScaleSmall
	cfg.TraceCache = dir
	const app = "dsmc"
	if _, err := NewSuite(cfg).Trace(app); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, cfg.traceKey(app)+".ctrc")
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSuite(cfg).Trace(app); err == nil {
		t.Fatal("suite silently re-simulated over a corrupted cache entry")
	}
}
