package experiments

import (
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/stats"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

// smallSuite shares one small-scale suite across the package's tests:
// simulation results are memoized per suite, so the five sims run once.
var smallSuite = NewSuite(smallConfig())

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Scale = workload.ScaleSmall
	return cfg
}

func TestSuiteTraceMemoization(t *testing.T) {
	t1, err := smallSuite.Trace("appbt")
	if err != nil {
		t.Fatal(err)
	}
	t2, err := smallSuite.Trace("appbt")
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Error("Trace not memoized")
	}
	if len(t1.Records) == 0 {
		t.Error("empty trace")
	}
	if _, err := smallSuite.Trace("bogus"); err == nil {
		t.Error("Trace accepted unknown app")
	}
}

func TestTable5SmallScale(t *testing.T) {
	rows, err := Table5(smallSuite)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4*5 {
		t.Fatalf("Table5 returned %d rows, want 20", len(rows))
	}
	for _, r := range rows {
		if r.Overall < 0 || r.Overall > 100 || r.Cache < 0 || r.Dir < 0 {
			t.Errorf("row out of range: %+v", r)
		}
		// Overall must lie between the two side accuracies.
		lo, hi := r.Cache, r.Dir
		if lo > hi {
			lo, hi = hi, lo
		}
		if r.Overall < lo-0.01 || r.Overall > hi+0.01 {
			t.Errorf("overall %v outside [%v, %v] for %+v", r.Overall, lo, hi, r)
		}
	}
}

func TestTable6FiltersOnlyHelpShallowDepths(t *testing.T) {
	rows, err := Table6(smallSuite)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*5*3 {
		t.Fatalf("Table6 returned %d rows, want 30", len(rows))
	}
	for _, r := range rows {
		if r.FilterMax < 0 || r.FilterMax > 2 || r.Depth < 1 || r.Depth > 2 {
			t.Errorf("bad row %+v", r)
		}
	}
}

func TestTable7MemoryShape(t *testing.T) {
	rows, err := Table7(smallSuite)
	if err != nil {
		t.Fatal(err)
	}
	byApp := make(map[string][]Table7Row)
	for _, r := range rows {
		if r.Ratio < 0 {
			t.Errorf("negative ratio: %+v", r)
		}
		if r.Overhead < 0 {
			t.Errorf("negative overhead: %+v", r)
		}
		byApp[r.App] = append(byApp[r.App], r)
	}
	// Overhead grows with depth for every app (more history, more
	// contexts).
	for app, rs := range byApp {
		for i := 1; i < len(rs); i++ {
			if rs[i].Overhead < rs[i-1].Overhead-0.5 {
				t.Errorf("%s: overhead shrank sharply with depth: %+v", app, rs)
			}
		}
	}
}

func TestTable8Shape(t *testing.T) {
	cells, err := Table8(smallSuite)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(Table8Transitions)*len(Table8Iterations) {
		t.Fatalf("Table8 returned %d cells", len(cells))
	}
	for _, c := range cells {
		if c.HitPct < 0 || c.HitPct > 100 || c.RefPct < 0 || c.RefPct > 100 {
			t.Errorf("cell out of range: %+v", c)
		}
	}
}

func TestRunFigure5(t *testing.T) {
	fig, err := RunFigure5()
	if err != nil {
		t.Fatal(err)
	}
	if fig.P != 0.8 {
		t.Errorf("P = %v", fig.P)
	}
	if len(fig.FSweeps) == 0 || len(fig.RSweeps) == 0 {
		t.Fatal("missing sweeps")
	}
	// Paper's headline point: at r=1 (not in default set) speedup with
	// f=0.3 is 1.56; our sweep at f=0.25..0.5 must bracket ~1.5.
	found := false
	for _, c := range fig.FSweeps {
		for _, p := range c.Points {
			if p.Speedup > 1.3 && p.Speedup < 5 {
				found = true
			}
		}
	}
	if !found {
		t.Error("no curve shows a substantial speedup")
	}
}

func TestFigures6and7(t *testing.T) {
	rows, err := Figures6and7(smallSuite, "moldyn", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no signature rows")
	}
	var share float64
	for _, r := range rows {
		if r.Stat.RefShare < 0 || r.Stat.RefShare > 1 {
			t.Errorf("bad ref share %+v", r)
		}
		share += r.Stat.RefShare
	}
	// Top-5 arcs per side must cover a dominant fraction of traffic
	// (the paper's figures show dominant signatures).
	if share < 0.5 {
		t.Errorf("dominant arcs cover only %.2f of traffic", share)
	}
}

func TestRunFigure8(t *testing.T) {
	res, err := RunFigure8(smallSuite)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migratory.Classified == 0 {
		t.Error("migratory signature not detected")
	}
	if res.Migratory.AccuracyWhenPredicting < 0.8 {
		t.Errorf("migratory implied accuracy %.2f", res.Migratory.AccuracyWhenPredicting)
	}
	if res.DSI.Classified == 0 {
		t.Error("self-invalidation signature not detected")
	}
	if res.DSI.AccuracyWhenPredicting < 0.8 {
		t.Errorf("DSI implied accuracy %.2f", res.DSI.AccuracyWhenPredicting)
	}
}

func TestDirectedComparison(t *testing.T) {
	rows, err := DirectedComparison(smallSuite)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 { // 5 apps x 2 sides
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if len(row.Evals) != 5 {
			t.Fatalf("%s/%s: %d evals", row.App, row.Side, len(row.Evals))
		}
		cosmos := row.Evals[0]
		for _, e := range row.Evals {
			if e.Accuracy < 0 || e.Accuracy > 1 || e.Coverage < 0 || e.Coverage > 1 {
				t.Errorf("%s/%s/%s out of range: %+v", row.App, row.Side, e.Name, e)
			}
			// Directed detectors never cover more than everything and
			// must venture at most as many predictions as messages.
			if e.Accuracy > e.Coverage+1e-9 {
				t.Errorf("%s/%s/%s: accuracy %v exceeds coverage %v", row.App, row.Side, e.Name, e.Accuracy, e.Coverage)
			}
		}
		// Cosmos must beat the directed detector's whole-stream
		// accuracy (the Section 7 claim: general beats directed on
		// coverage).
		directedEval := row.Evals[4]
		if cosmos.Accuracy < directedEval.Accuracy-0.05 {
			t.Errorf("%s/%s: cosmos %.2f below directed %.2f", row.App, row.Side, cosmos.Accuracy, directedEval.Accuracy)
		}
	}
}

func TestLatencySweepInsensitivity(t *testing.T) {
	rows, err := LatencySweep(smallSuite, []uint64{40, 1000})
	if err != nil {
		t.Fatal(err)
	}
	// Per app: accuracy at 40ns and 1000ns within a few points
	// (Section 5's claim).
	byApp := make(map[string][]float64)
	for _, r := range rows {
		byApp[r.App] = append(byApp[r.App], r.Overall)
	}
	for app, vals := range byApp {
		if len(vals) != 2 {
			t.Fatalf("%s: %d values", app, len(vals))
		}
		diff := vals[0] - vals[1]
		if diff < 0 {
			diff = -diff
		}
		if diff > 6 {
			t.Errorf("%s: accuracy changed by %.1f points across latency sweep", app, diff)
		}
	}
}

func TestHalfMigratoryAblation(t *testing.T) {
	rows, err := HalfMigratoryAblation(smallSuite)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.DirMessages == 0 {
			t.Errorf("%s (hm=%v): no directory messages", r.App, r.HalfMigratory)
		}
	}
}

func TestTimeToAdapt(t *testing.T) {
	rows, err := TimeToAdapt(smallSuite, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.SteadyIteration < 0 || r.SteadyIteration >= r.Iterations {
			t.Errorf("%s: steady at %d of %d", r.App, r.SteadyIteration, r.Iterations)
		}
	}
}

func TestFilterDepthGrid(t *testing.T) {
	cells, err := FilterDepth(smallSuite)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4*3*5 {
		t.Fatalf("cells = %d", len(cells))
	}
}

func TestEvaluateDelegates(t *testing.T) {
	res, err := smallSuite.Evaluate("dsmc", core.Config{Depth: 1}, stats.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overall.Total == 0 {
		t.Error("no predictions evaluated")
	}
	if _, err := smallSuite.Evaluate("dsmc", core.Config{Depth: 0}, stats.Options{}); err == nil {
		t.Error("bad predictor config accepted")
	}
}

func TestScaleFor(t *testing.T) {
	for name, want := range map[string]workload.Scale{
		"small": workload.ScaleSmall, "medium": workload.ScaleMedium, "full": workload.ScaleFull,
	} {
		got, ok := ScaleFor(name)
		if !ok || got != want {
			t.Errorf("ScaleFor(%q) = %v, %v", name, got, ok)
		}
	}
	if _, ok := ScaleFor("giant"); ok {
		t.Error("ScaleFor accepted unknown scale")
	}
}

func TestReplacementStudy(t *testing.T) {
	rows, err := Replacement(smallSuite, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 5 unbounded + 5 apps x 2 variants bounded.
	if len(rows) != 15 {
		t.Fatalf("rows = %d, want 15", len(rows))
	}
	var sawWriteback bool
	for _, r := range rows {
		if r.Overall < 0 || r.Overall > 100 {
			t.Errorf("bad row %+v", r)
		}
		if r.CacheBlocks == 0 && r.Writebacks != 0 {
			t.Errorf("unbounded run wrote back: %+v", r)
		}
		if r.Writebacks > 0 {
			sawWriteback = true
		}
	}
	if !sawWriteback {
		t.Error("tiny caches produced no writebacks")
	}
}

func TestAccelerateBenchmarks(t *testing.T) {
	rows, err := AccelerateBenchmarks(smallSuite, core.Config{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.BaselineMsgs == 0 {
			t.Errorf("%s: no baseline messages", r.App)
		}
		// The action must never increase traffic (mis-speculation only
		// costs latency on these workloads, not protocol messages, and
		// correct speculation removes upgrade pairs).
		if r.MessageReduction < -0.02 {
			t.Errorf("%s: message reduction %.3f strongly negative", r.App, r.MessageReduction)
		}
	}
}

func TestPApVsPAg(t *testing.T) {
	rows, err := PApVsPAg(smallSuite, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.PApPHT == 0 || r.PAgPHT == 0 {
			t.Errorf("%s: empty PHTs %+v", r.App, r)
		}
		// The shared table is never larger than the per-block sum (at
		// full scale it is 10-30x smaller; small-scale traces have too
		// few blocks for a dramatic gap).
		if r.PAgPHT > r.PApPHT {
			t.Errorf("%s: PAg PHT %d exceeds PAp %d", r.App, r.PAgPHT, r.PApPHT)
		}
	}
}

func TestStateEquivalence(t *testing.T) {
	rows, err := StateEquivalence(smallSuite)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MessageAccuracy <= 0 || r.StateAccuracy <= 0 {
			t.Errorf("%s: degenerate accuracies %+v", r.App, r)
		}
		if r.DistinctStates < 3 {
			t.Errorf("%s: only %d distinct states", r.App, r.DistinctStates)
		}
	}
}

func TestVariants(t *testing.T) {
	rows, err := Variants(smallSuite)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5*5 { // 5 apps x (groups 1,2,4,8 + sender-agnostic)
		t.Fatalf("rows = %d, want 25", len(rows))
	}
	byApp := map[string][]VariantRow{}
	for _, r := range rows {
		if r.Overall < 0 || r.Overall > 100 {
			t.Errorf("bad row %+v", r)
		}
		byApp[r.App] = append(byApp[r.App], r)
	}
	for app, rs := range byApp {
		// Grouping must shrink MHR entries monotonically.
		var prev uint64 = 1 << 62
		for _, r := range rs {
			if r.SenderAgnostic {
				continue
			}
			if r.MHREntries > prev {
				t.Errorf("%s: MHR entries grew with group size: %+v", app, rs)
			}
			prev = r.MHREntries
		}
	}
}

func TestPrefetchMatchesLazy(t *testing.T) {
	pre := NewSuite(smallConfig())
	if err := pre.Prefetch(); err != nil {
		t.Fatal(err)
	}
	for _, app := range pre.Apps() {
		got, err := pre.Trace(app)
		if err != nil {
			t.Fatal(err)
		}
		want, err := smallSuite.Trace(app)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Records) != len(want.Records) {
			t.Fatalf("%s: prefetched %d records, lazy %d", app, len(got.Records), len(want.Records))
		}
		for i := range got.Records {
			if got.Records[i] != want.Records[i] {
				t.Fatalf("%s: record %d differs (prefetch nondeterminism)", app, i)
			}
		}
	}
	// Idempotent: a second Prefetch does nothing.
	if err := pre.Prefetch(); err != nil {
		t.Fatal(err)
	}
}

func TestForwardingComparison(t *testing.T) {
	rows, err := ForwardingComparison(smallSuite)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The paper's claim: no first-order effect. Small-scale runs are
	// noisy, so just require the same broad band (within 20 points).
	byApp := map[string][]float64{}
	for _, r := range rows {
		byApp[r.App] = append(byApp[r.App], r.Overall)
	}
	for app, v := range byApp {
		if len(v) != 2 {
			t.Fatalf("%s: %d variants", app, len(v))
		}
		diff := v[0] - v[1]
		if diff < 0 {
			diff = -diff
		}
		if diff > 20 {
			t.Errorf("%s: forwarding changed accuracy by %.1f points", app, diff)
		}
	}
}
