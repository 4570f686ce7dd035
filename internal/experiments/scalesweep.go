package experiments

import (
	"fmt"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/stache"
	"github.com/cosmos-coherence/cosmos/internal/stats"
)

// ScaleSweepNodes is the default node-count axis: the paper's 64-node
// machine bracketed by a small point below it and the two
// scalable-directory points above it.
var ScaleSweepNodes = []int{16, 64, 256, 1024}

// ScaleSweepRow is one cell of the node-count scaling sweep: one
// benchmark at one machine size under one directory format.
type ScaleSweepRow struct {
	App    string
	Nodes  int
	Format stache.DirectoryFormat
	// Overall is the depth-1 Cosmos accuracy in percent. Below the
	// formats' overflow thresholds the three formats produce identical
	// traces, so identical accuracy; divergence at a given size shows
	// the predictor tax of that format's imprecision.
	Overall float64
	// Messages is the total observed coherence message count — the
	// traffic curve. Imprecise formats pay here first: an overflowed
	// limited-pointer entry broadcasts, a coarse bit invalidates its
	// whole region.
	Messages uint64
	// Invals counts invalidation requests (read-only plus read-write),
	// the message class the directory format directly amplifies.
	Invals uint64
}

// ScaleSweep measures how prediction accuracy and protocol traffic
// scale with machine size under each directory format: every benchmark
// is simulated at each node count in nodes under each format in
// formats, and a depth-1 Cosmos is evaluated over the captured stream.
// The full-map format is skipped above stache's 64-node bound rather
// than erroring, so one sweep spans both sides of the scalability
// cliff.
//
// Cells run on the streaming path (EvaluateStreamed) end to end: a
// 1024-node cell never materializes its trace, so the sweep's memory
// stays flat in the node axis — the property the scale acceptance test
// pins.
func ScaleSweep(s *Suite, nodes []int, formats []stache.DirectoryFormat) ([]ScaleSweepRow, error) {
	if len(nodes) == 0 {
		nodes = ScaleSweepNodes
	}
	if len(formats) == 0 {
		formats = []stache.DirectoryFormat{stache.DirFullMap, stache.DirLimitedPtr, stache.DirCoarseVector}
	}
	for _, n := range nodes {
		if n < 2 || n > stache.MaxNodes {
			return nil, fmt.Errorf("experiments: scalesweep node count %d out of range [2, %d]", n, stache.MaxNodes)
		}
	}
	// One variant per (nodes, format) machine shape, each holding one
	// streamed cell per app that shares only the on-disk trace cache.
	type shape struct {
		nodes  int
		format stache.DirectoryFormat
	}
	var shapes []shape
	for _, n := range nodes {
		for _, f := range formats {
			if f == stache.DirFullMap && n > 64 {
				continue
			}
			shapes = append(shapes, shape{n, f})
		}
	}
	edit := func(c *Config, sh shape) {
		c.Machine.Nodes = sh.nodes
		c.Stache.DirFormat = sh.format
	}
	return sweep(s, shapes, edit, func(v *Suite, sh shape, app string) (ScaleSweepRow, error) {
		res, err := v.EvaluateStreamed(app, core.Config{Depth: 1}, stats.StreamOptions{})
		if err != nil {
			return ScaleSweepRow{}, fmt.Errorf("experiments: scalesweep %s/%d/%s: %w",
				app, sh.nodes, sh.format, err)
		}
		return ScaleSweepRow{
			App:      app,
			Nodes:    sh.nodes,
			Format:   sh.format,
			Overall:  100 * res.Overall.Accuracy(),
			Messages: res.Overall.Total,
			Invals:   res.Types[coherence.InvalROReq].Total + res.Types[coherence.InvalRWReq].Total,
		}, nil
	})
}
