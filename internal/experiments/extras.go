package experiments

import (
	"slices"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/sim"
	"github.com/cosmos-coherence/cosmos/internal/stats"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

// LatencyRow is one cell of the Section 5 latency-insensitivity check.
type LatencyRow struct {
	App       string
	LatencyNs uint64
	Overall   float64
}

// LatencySweep reproduces the Section 5 claim that Cosmos' accuracy is
// largely insensitive to network latency: "changing the network
// latency from 40 nanoseconds to one microsecond hardly changes
// Cosmos' prediction rates". Each benchmark is simulated at each
// latency (traces cannot be shared across timing configurations; the
// suite's own latency reuses its traces) and evaluated with a depth-1
// filterless Cosmos.
func LatencySweep(s *Suite, latenciesNs []uint64) ([]LatencyRow, error) {
	return sweep(s, latenciesNs, func(c *Config, lat uint64) { c.Machine.NetworkLatencyNs = sim.Time(lat) },
		func(v *Suite, lat uint64, app string) (LatencyRow, error) {
			res, err := v.Evaluate(app, core.Config{Depth: 1}, stats.Options{})
			if err != nil {
				return LatencyRow{}, err
			}
			return LatencyRow{App: app, LatencyNs: lat, Overall: 100 * res.Overall.Accuracy()}, nil
		})
}

// AblationRow is one cell of the half-migratory ablation.
type AblationRow struct {
	App           string
	HalfMigratory bool
	Overall       float64
	// DirMessages counts directory-bound messages: the protocol-level
	// cost the optimization trades against (Section 6.1 argues it
	// helps dsmc and moldyn but hurts appbt).
	DirMessages uint64
}

// HalfMigratoryAblation simulates every benchmark with the
// half-migratory optimization on and off, reporting traffic and
// depth-1 accuracy under both protocols. This is the DESIGN.md ablation
// for the paper's Section 5.1 protocol choice.
func HalfMigratoryAblation(s *Suite) ([]AblationRow, error) {
	return sweep(s, []bool{true, false}, func(c *Config, hm bool) { c.Stache.HalfMigratory = hm },
		func(v *Suite, hm bool, app string) (AblationRow, error) {
			tr, err := v.Trace(app)
			if err != nil {
				return AblationRow{}, err
			}
			res, err := v.Evaluate(app, core.Config{Depth: 1}, stats.Options{})
			if err != nil {
				return AblationRow{}, err
			}
			_, dir := tr.CountBySide()
			return AblationRow{
				App:           app,
				HalfMigratory: hm,
				Overall:       100 * res.Overall.Accuracy(),
				DirMessages:   dir,
			}, nil
		})
}

// FilterDepthCell is one cell of the DESIGN.md ablation for Section
// 3.6's claim that filters and history are substitutes: Table 6
// extended to depths 1-4, so the vanishing filter benefit is visible.
type FilterDepthCell struct {
	App       string
	Depth     int
	FilterMax int
	Overall   float64
}

// FilterDepth computes the extended filter-by-depth grid: one bank
// walk per benchmark evaluates all twelve (depth, filter) cells.
func FilterDepth(s *Suite) ([]FilterDepthCell, error) {
	var cfgs []core.Config
	for depth := 1; depth <= 4; depth++ {
		for _, fmax := range []int{0, 1, 2} {
			cfgs = append(cfgs, core.Config{Depth: depth, FilterMax: fmax})
		}
	}
	grid, err := evaluateGrid(s, cfgs)
	if err != nil {
		return nil, err
	}
	var cells []FilterDepthCell
	for _, c := range cfgs {
		for _, app := range s.Apps() {
			cells = append(cells, FilterDepthCell{
				App: app, Depth: c.Depth, FilterMax: c.FilterMax,
				Overall: 100 * grid[app][c].Overall.Accuracy(),
			})
		}
	}
	return cells, nil
}

// ScaleFor maps a command-line scale name to workload.Scale.
func ScaleFor(name string) (workload.Scale, bool) {
	switch name {
	case "small":
		return workload.ScaleSmall, true
	case "medium":
		return workload.ScaleMedium, true
	case "full":
		return workload.ScaleFull, true
	}
	return 0, false
}

// ReplacementRow is one cell of the Section 3.7 replacement study.
type ReplacementRow struct {
	App string
	// CacheBlocks is the per-node cache capacity in blocks (0 =
	// unbounded, the Stache configuration).
	CacheBlocks int
	// ForgetOnWriteback marks the merged-table predictor variant that
	// loses a block's history when the line is replaced.
	ForgetOnWriteback bool
	Overall           float64
	// Writebacks counts replacement writebacks observed in the trace.
	Writebacks uint64
	// Messages is the total observed message count (replacement adds
	// refetch traffic).
	Messages uint64
}

// Replacement quantifies the two costs of cache replacement the paper
// discusses (Sections 3.7 and 5.1): the extra protocol traffic, and —
// if the predictor's first-level table is merged with cache state —
// the accuracy lost when replacement discards block history. Each
// benchmark is simulated unbounded and with a cacheBlocks-entry
// bounded cache; bounded traces are evaluated both with persistent
// predictor tables and with ForgetOnWriteback.
func Replacement(s *Suite, cacheBlocks, assoc int) ([]ReplacementRow, error) {
	edit := func(c *Config, bounded bool) {
		if bounded {
			c.Stache.CacheBlocks = cacheBlocks
			c.Stache.CacheAssoc = assoc
		}
	}
	// One cell per (bounded, app); a bounded cell yields the persistent
	// row and then the forgetting row over the same trace.
	cells, err := sweep(s, []bool{false, true}, edit, func(v *Suite, bounded bool, app string) ([]ReplacementRow, error) {
		tr, err := v.Trace(app)
		if err != nil {
			return nil, err
		}
		var writebacks uint64
		for _, rec := range tr.Records {
			if rec.Type == coherence.WritebackReq {
				writebacks++
			}
		}
		forgets, blocks := []bool{false}, 0
		if bounded {
			forgets, blocks = []bool{false, true}, cacheBlocks
		}
		var rows []ReplacementRow
		for _, forget := range forgets {
			res, err := v.Evaluate(app, core.Config{Depth: 1}, stats.Options{ForgetOnWriteback: forget})
			if err != nil {
				return nil, err
			}
			rows = append(rows, ReplacementRow{
				App:               app,
				CacheBlocks:       blocks,
				ForgetOnWriteback: forget,
				Overall:           100 * res.Overall.Accuracy(),
				Writebacks:        writebacks,
				Messages:          uint64(len(tr.Records)),
			})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	return slices.Concat(cells...), nil
}

// ForwardingRow is one cell of the Section 2.1 protocol-variant check.
type ForwardingRow struct {
	App        string
	Forwarding bool
	Cache      float64
	Dir        float64
	Overall    float64
	Messages   uint64
}

// ForwardingComparison tests the paper's Section 2.1 claim that moving
// from a Stache-style four-hop flow to an SGI Origin-style three-hop
// forwarding flow "should have no first-order effect on coherence
// prediction's usability". Each benchmark is simulated under both
// protocol variants and evaluated with a depth-1 Cosmos. Forwarding
// changes *who* sends data to a cache (previous owners instead of the
// fixed home directory), so cache-side senders diversify; the claim is
// that accuracy stays in the same band.
func ForwardingComparison(s *Suite) ([]ForwardingRow, error) {
	return sweep(s, []bool{false, true}, func(c *Config, fwd bool) { c.Stache.Forwarding = fwd },
		func(v *Suite, fwd bool, app string) (ForwardingRow, error) {
			tr, err := v.Trace(app)
			if err != nil {
				return ForwardingRow{}, err
			}
			res, err := v.Evaluate(app, core.Config{Depth: 1}, stats.Options{})
			if err != nil {
				return ForwardingRow{}, err
			}
			return ForwardingRow{
				App:        app,
				Forwarding: fwd,
				Cache:      100 * res.Cache.Accuracy(),
				Dir:        100 * res.Dir.Accuracy(),
				Overall:    100 * res.Overall.Accuracy(),
				Messages:   uint64(len(tr.Records)),
			}, nil
		})
}
