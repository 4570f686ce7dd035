package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"slices"
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/workload"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricDefinitions(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]def{endToEnd, perLayer} {
		for _, d := range list {
			if !nameRE.MatchString(d.name) {
				t.Errorf("metric name %q: want letters, digits, _, . and - only", d.name)
			}
			if seen[d.name] {
				t.Errorf("metric %q defined twice", d.name)
			}
			seen[d.name] = true
			if !unitRE.MatchString(d.unit) {
				t.Errorf("%s: unit %q", d.name, d.unit)
			}
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("%s: direction %q", d.name, d.better)
			}
			if d.doc == "" {
				t.Errorf("%s: no description", d.name)
			}
		}
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	for _, d := range perLayer {
		if d.moves == "" || d.on == "" {
			t.Errorf("%s: no end-to-end metric or workload it moves", d.name)
		}
	}
	if unitOf("setup_s") != "s" {
		t.Error("setup_s must be an end-to-end metric in seconds")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric
// definitions and the workload list.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
		Why    string   `json:"why"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if w.Why == "" {
			t.Errorf("workload %s has no why", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	check := func(kind string, got []entry, want []def) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, metrics.go %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, metrics.go %s/%s/%s", kind, i, g, d.name, d.unit, d.better)
			}
			if (g.Bound != nil) != (kind == "end_to_end") || (g.Bound != nil && *g.Bound != d.bound) {
				t.Errorf("%s: bound %v, metrics.go %v", d.name, g.Bound, d.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

// TestShortRun runs every workload at small scale, untraced and traced,
// and checks the result line parses, passes its output checks and holds
// exactly the metrics BENCHMARK.json promises.
func TestShortRun(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				m, err := measure(name, 1, 0, traced, smallScale, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(m.result)
				if err != nil {
					t.Fatal(err)
				}
				res, err := lastResult(append([]byte("detail line\n"), b...))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("traced=%v: correct=%v failed %d of %d: %v", traced, res.Correct, res.Failed, res.Attempted, m.detail.Failures)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(want))
				}
				for _, d := range want {
					v, ok := res.Metrics[d.name]
					if !ok || v.Unit != d.unit {
						t.Errorf("traced=%v: metric %s missing or unit %q", traced, d.name, v.Unit)
					}
					if !traced && !(v.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, v.Value)
					}
				}
			}
		})
	}
}

// TestSeeds checks that a seed fixes the inputs: the same seed repeats
// every deterministic metric exactly, another seed changes messages.
func TestSeeds(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			run := func(seed int64) map[string]metric {
				m, err := measure(name, seed, 0, false, smallScale, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				return m.result.Metrics
			}
			a, b, c := run(1), run(1), run(2)
			for _, k := range []string{"sim_ns", "messages"} {
				if a[k] != b[k] {
					t.Errorf("seed 1 gave %s %v then %v", k, a[k].Value, b[k].Value)
				}
			}
			if a["messages"] == c["messages"] {
				t.Errorf("seeds 1 and 2 both gave %v messages", a["messages"].Value)
			}
		})
	}
}

// TestSeedZeroIsIdentity checks the seeded wrapper leaves the app alone
// at seed 0 and keeps the buffer-reusing generator path at every seed.
func TestSeedZeroIsIdentity(t *testing.T) {
	for i, app := range workload.Registry(16, workload.ScaleSmall) {
		for _, seed := range []int64{0, 5} {
			a := newSeededApp(app, seed, i)
			var _ workload.Appender = a
			moved := 0
			for p := 0; p < app.Procs(); p++ {
				if a.proc(p) != p {
					moved++
				}
				got := a.AppendAccesses(nil, p, 0)
				if want := app.Accesses(a.proc(p), 0); !slices.Equal(got, want) {
					t.Fatalf("%s seed %d proc %d: wrapper generated a different stream", app.Name(), seed, p)
				}
			}
			if (seed == 0) != (moved == 0) {
				t.Errorf("%s seed %d: %d processors moved", app.Name(), seed, moved)
			}
		}
	}
}

// TestSpreadMatchesPython pins spreadOf to statistics.quantiles(n=4):
// the expected values were computed with Python 3.
func TestSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		med, spread float64
	}{
		{[]float64{3.1, 2.9, 3.5, 3.0, 3.3, 2.8, 3.2, 3.4, 3.6, 2.7}, 3.15, 0.17460317460317454},
		{[]float64{1, 2, 3, 4, 5}, 3, 1.0},
	} {
		med, spread := spreadOf(c.xs)
		if math.Abs(med-c.med) > 1e-12 || math.Abs(spread-c.spread) > 1e-12 {
			t.Errorf("spreadOf(%v) = %v, %v; want %v, %v", c.xs, med, spread, c.med, c.spread)
		}
	}
}
