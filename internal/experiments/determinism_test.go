package experiments

import (
	"reflect"
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/faults"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

// runHashes simulates one benchmark and returns its per-node trace
// hashes.
func runHashes(t *testing.T, cfg Config, name string) []uint64 {
	t.Helper()
	app, err := workload.ByName(name, cfg.Machine.Nodes, cfg.Scale)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Run(app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr.NodeHashes()
}

// TestDeterminism is the repeatability regression test: every workload
// simulated twice under the same configuration and seed must yield
// byte-identical per-node traces — both on the pristine wire and on a
// faulty wire where every drop, duplicate, jitter draw, and
// retransmission is derived from the seed.
func TestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates all five workloads four times")
	}
	plans := []struct {
		name string
		plan faults.Plan
	}{
		{"fault-free", faults.Plan{}},
		{"faulty", faults.Plan{Seed: 17, DropProb: 0.02, DupProb: 0.01, JitterNs: 25}},
	}
	for _, p := range plans {
		t.Run(p.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Scale = workload.ScaleSmall
			cfg.Machine.Faults = p.plan
			for _, app := range NewSuite(cfg).Apps() {
				first := runHashes(t, cfg, app)
				second := runHashes(t, cfg, app)
				for node := range first {
					if first[node] != second[node] {
						t.Errorf("%s: node %d trace diverged between identical runs: %#x vs %#x",
							app, node, first[node], second[node])
					}
				}
			}
		})
	}
}

// TestWorkerInvariance is the parallel-engine regression test: every
// experiment driver must return identical rows whether its cells run
// serially, on an 8-worker pool, or on a second 8-worker pool (so the
// parallel path is also self-consistent, not just serial-equivalent).
// The worker pool shards work and reassembles results by index; any
// scheduling dependence — shared predictor state, map iteration
// leaking into row order, worker-count-dependent seeding — breaks this
// equality.
func TestWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the experiment drivers three times each")
	}
	base := DefaultConfig()
	base.Scale = workload.ScaleSmall

	drivers := []struct {
		name string
		run  func(s *Suite) (any, error)
	}{
		{"Table5", func(s *Suite) (any, error) { return Table5(s) }},
		{"Table6", func(s *Suite) (any, error) { return Table6(s) }},
		{"Table8", func(s *Suite) (any, error) { return Table8(s) }},
		{"SignaturePanels", func(s *Suite) (any, error) { return SignaturePanels(s, s.Apps(), 8) }},
		{"DirectedComparison", func(s *Suite) (any, error) { return DirectedComparison(s) }},
		{"Variants", func(s *Suite) (any, error) { return Variants(s) }},
		{"PApVsPAg", func(s *Suite) (any, error) { return PApVsPAg(s, 1) }},
		{"LatencySweep", func(s *Suite) (any, error) { return LatencySweep(s, []uint64{40, 1000}) }},
		{"FilterDepth", func(s *Suite) (any, error) { return FilterDepth(s) }},
		{"StateEquivalence", func(s *Suite) (any, error) { return StateEquivalence(s) }},
		{"FaultSweep", func(s *Suite) (any, error) { return FaultSweep(s, []float64{0, 0.02}, 42) }},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			results := make([]any, 3)
			for i, workers := range []int{1, 8, 8} {
				cfg := base
				cfg.Workers = workers
				got, err := d.run(NewSuite(cfg))
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				results[i] = got
			}
			if !reflect.DeepEqual(results[0], results[1]) {
				t.Errorf("serial and 8-worker results differ:\n%+v\n%+v", results[0], results[1])
			}
			if !reflect.DeepEqual(results[1], results[2]) {
				t.Errorf("two 8-worker runs differ:\n%+v\n%+v", results[1], results[2])
			}
		})
	}
}

// TestFaultSweepSmall exercises the sweep driver end to end at small
// scale: all workloads must complete at every drop rate, the zero-drop
// row must be fault-free, and faulty rows must show repair work.
func TestFaultSweepSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates all five workloads at three drop rates")
	}
	rows, err := FaultSweep(smallSuite, []float64{0, 0.01, 0.05}, 42)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * len(smallSuite.Apps()); len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r.Overall <= 0 || r.Overall > 100 {
			t.Errorf("%s at drop %.2f: accuracy %.1f%% out of range", r.App, r.DropProb, r.Overall)
		}
		if r.DropProb == 0 && (r.Dropped != 0 || r.Retransmits != 0) {
			t.Errorf("%s at drop 0: dropped=%d retransmits=%d, want none", r.App, r.Dropped, r.Retransmits)
		}
		if r.DropProb >= 0.05 && r.Retransmits == 0 {
			t.Errorf("%s at drop %.2f: no retransmits despite losses", r.App, r.DropProb)
		}
	}
}
