package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/stats"
	"github.com/cosmos-coherence/cosmos/internal/trace"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

// TestShardedEvaluateEquivalence is the slot-sharding regression test:
// for every workload and every predictor variant the evaluators drive,
// the sharded path at 1, 2 and 8 workers must DeepEqual the serial
// arrival-order walk (for Cosmos, the streamed walk of
// stats.EvaluateStream). This is the exactness claim slot sharding
// rests on — predictor state never crosses a (node, side) slot
// boundary, so sharding may never change a single counter.
func TestShardedEvaluateEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates every workload under many configurations")
	}
	cfg := DefaultConfig()
	cfg.Scale = workload.ScaleSmall
	s := NewSuite(cfg)

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

		// MacroPredictor variants (PAp with grouping / sender-agnostic
		// history) through the slotShard helper vs a serial reference.
		for _, mc := range []core.MacroConfig{
			{Base: core.Config{Depth: 1}, BlockGroup: 1, BlockBytes: 64},
			{Base: core.Config{Depth: 1}, BlockGroup: 4, BlockBytes: 64},
			{Base: core.Config{Depth: 1}, BlockGroup: 1, BlockBytes: 64, SenderAgnosticHistory: true},
		} {
			serial := serialVariantRow(t, tr, app, mc)
			for _, workers := range []int{1, 2, 8} {
				got, err := evalVariant(tr, app, mc, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(serial, got) {
					t.Errorf("%s variant %+v workers %d: sharded row %+v != serial %+v",
						app, mc, workers, got, serial)
				}
			}
		}
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

// serialVariantRow is the arrival-order reference for evalVariant: one
// MacroPredictor per (node, side), driven straight off tr.Records.
func serialVariantRow(t *testing.T, tr *trace.Trace, app string, cfg core.MacroConfig) VariantRow {
	t.Helper()
	preds := make([]*core.MacroPredictor, 2*tr.Nodes)
	for i := range preds {
		p, err := core.NewMacro(cfg)
		if err != nil {
			t.Fatal(err)
		}
		preds[i] = p
	}
	var total, hits uint64
	for _, rec := range tr.Records {
		slot := int(rec.Node)*2 + int(rec.Side)
		_, _, correct := preds[slot].Observe(rec.Addr, rec.Tuple())
		total++
		if correct {
			hits++
		}
	}
	row := VariantRow{App: app, Group: cfg.BlockGroup, SenderAgnostic: cfg.SenderAgnosticHistory}
	if total > 0 {
		row.Overall = 100 * float64(hits) / float64(total)
	}
	for _, p := range preds {
		row.MHREntries += p.MHREntries()
		row.PHTEntries += p.PHTEntries()
	}
	return row
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
