package experiments

import (
	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/stats"
)

// paperConfigs is every Cosmos configuration Tables 5, 6 and 7
// evaluate: depths 1-4 unfiltered, plus filters 1 and 2 at depths 1
// and 2. Each table requests the whole set, so whichever runs first
// evaluates it in one bank walk per benchmark and the others read the
// suite's memo.
var paperConfigs = []core.Config{
	{Depth: 1}, {Depth: 2}, {Depth: 3}, {Depth: 4},
	{Depth: 1, FilterMax: 1}, {Depth: 1, FilterMax: 2},
	{Depth: 2, FilterMax: 1}, {Depth: 2, FilterMax: 2},
}

// evaluateGrid evaluates cfgs over every benchmark and returns the
// results by benchmark name, then by configuration. The benchmarks run
// one after another, each slot-sharded over the suite's worker pool,
// so one free list of pool-width banks serves them all.
func evaluateGrid(s *Suite, cfgs []core.Config) (map[string]map[core.Config]*stats.Result, error) {
	out := make(map[string]map[core.Config]*stats.Result)
	for _, app := range s.Apps() {
		res, err := s.EvaluateAll(app, cfgs, stats.Options{})
		if err != nil {
			return nil, err
		}
		byCfg := make(map[core.Config]*stats.Result, len(cfgs))
		for i, c := range cfgs {
			byCfg[c] = res[i]
		}
		out[app] = byCfg
	}
	return out, nil
}

// Table5Row is one (depth, app) cell group of Table 5: prediction
// rates at the caches, at the directories, and overall, in percent.
type Table5Row struct {
	App     string
	Depth   int
	Cache   float64
	Dir     float64
	Overall float64
}

// Table5 reproduces Table 5: Cosmos prediction rates (no filter) for
// MHR depths 1-4 across the five benchmarks, in the table's fixed
// (depth, app) order.
func Table5(s *Suite) ([]Table5Row, error) {
	grid, err := evaluateGrid(s, paperConfigs)
	if err != nil {
		return nil, err
	}
	var rows []Table5Row
	for depth := 1; depth <= 4; depth++ {
		for _, app := range s.Apps() {
			res := grid[app][core.Config{Depth: depth}]
			rows = append(rows, Table5Row{
				App:     app,
				Depth:   depth,
				Cache:   100 * res.Cache.Accuracy(),
				Dir:     100 * res.Dir.Accuracy(),
				Overall: 100 * res.Overall.Accuracy(),
			})
		}
	}
	return rows, nil
}

// Table6Row is one (depth, app, filter) cell of Table 6: overall
// prediction rate with a saturating-counter noise filter of the given
// maximum count.
type Table6Row struct {
	App       string
	Depth     int
	FilterMax int
	Overall   float64
}

// Table6 reproduces Table 6: the effect of noise filters (maximum
// count 0, 1, 2) on overall accuracy for MHR depths 1 and 2, in
// (depth, app, filter) order.
func Table6(s *Suite) ([]Table6Row, error) {
	grid, err := evaluateGrid(s, paperConfigs)
	if err != nil {
		return nil, err
	}
	var rows []Table6Row
	for depth := 1; depth <= 2; depth++ {
		for _, app := range s.Apps() {
			for _, fmax := range []int{0, 1, 2} {
				res := grid[app][core.Config{Depth: depth, FilterMax: fmax}]
				rows = append(rows, Table6Row{
					App:       app,
					Depth:     depth,
					FilterMax: fmax,
					Overall:   100 * res.Overall.Accuracy(),
				})
			}
		}
	}
	return rows, nil
}

// Table7Row is one (depth, app) cell pair of Table 7: the PHT/MHR
// entry ratio and the average per-block memory overhead percentage.
type Table7Row struct {
	App      string
	Depth    int
	Ratio    float64
	Overhead float64
}

// Table7BlockBytes is the cache block size Table 7 normalizes against.
const Table7BlockBytes = 128

// Table7 reproduces Table 7: memory overhead of filterless Cosmos
// predictors for MHR depths 1-4, in (depth, app) order.
func Table7(s *Suite) ([]Table7Row, error) {
	grid, err := evaluateGrid(s, paperConfigs)
	if err != nil {
		return nil, err
	}
	var rows []Table7Row
	for depth := 1; depth <= 4; depth++ {
		for _, app := range s.Apps() {
			res := grid[app][core.Config{Depth: depth}]
			rows = append(rows, Table7Row{
				App:      app,
				Depth:    depth,
				Ratio:    res.Memory.Ratio(),
				Overhead: res.Memory.Overhead(depth, Table7BlockBytes),
			})
		}
	}
	return rows, nil
}
