// Package report renders experiment results as fixed-width text
// tables laid out like the paper's tables, so a reproduction run can
// be eyeballed against the original side by side.
package report

import (
	"fmt"
	"io"
	"strings"

	"github.com/cosmos-coherence/cosmos/internal/experiments"
	"github.com/cosmos-coherence/cosmos/internal/model"
	"github.com/cosmos-coherence/cosmos/internal/trace"
)

// apps is the canonical column order of the paper's tables.
var apps = []string{"appbt", "barnes", "dsmc", "moldyn", "unstructured"}

// Table5 renders Table 5: rows are MHR depths, columns are C/D/O per
// benchmark.
func Table5(w io.Writer, rows []experiments.Table5Row) {
	fmt.Fprintln(w, "TABLE 5. Prediction rates (% hits). C = cache, D = directory, O = overall.")
	fmt.Fprintf(w, "%-6s", "depth")
	for _, a := range apps {
		fmt.Fprintf(w, " | %-17s", a)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-6s", "")
	for range apps {
		fmt.Fprintf(w, " | %5s %5s %5s", "C", "D", "O")
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", 6+len(apps)*20))
	byKey := make(map[string]experiments.Table5Row)
	maxDepth := 0
	for _, r := range rows {
		byKey[fmt.Sprintf("%s/%d", r.App, r.Depth)] = r
		if r.Depth > maxDepth {
			maxDepth = r.Depth
		}
	}
	for d := 1; d <= maxDepth; d++ {
		fmt.Fprintf(w, "%-6d", d)
		for _, a := range apps {
			r := byKey[fmt.Sprintf("%s/%d", a, d)]
			fmt.Fprintf(w, " | %5.0f %5.0f %5.0f", r.Cache, r.Dir, r.Overall)
		}
		fmt.Fprintln(w)
	}
}

// Table6 renders Table 6: rows are depths, columns are filter maxima
// 0/1/2 per benchmark (overall accuracy).
func Table6(w io.Writer, rows []experiments.Table6Row) {
	fmt.Fprintln(w, "TABLE 6. Overall prediction rate (%) with noise filters (saturating counter max 0/1/2).")
	fmt.Fprintf(w, "%-6s", "depth")
	for _, a := range apps {
		fmt.Fprintf(w, " | %-17s", a)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-6s", "")
	for range apps {
		fmt.Fprintf(w, " | %5s %5s %5s", "0", "1", "2")
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", 6+len(apps)*20))
	byKey := make(map[string]experiments.Table6Row)
	maxDepth := 0
	for _, r := range rows {
		byKey[fmt.Sprintf("%s/%d/%d", r.App, r.Depth, r.FilterMax)] = r
		if r.Depth > maxDepth {
			maxDepth = r.Depth
		}
	}
	for d := 1; d <= maxDepth; d++ {
		fmt.Fprintf(w, "%-6d", d)
		for _, a := range apps {
			fmt.Fprint(w, " |")
			for f := 0; f <= 2; f++ {
				r := byKey[fmt.Sprintf("%s/%d/%d", a, d, f)]
				fmt.Fprintf(w, " %5.0f", r.Overall)
			}
		}
		fmt.Fprintln(w)
	}
}

// Table7 renders Table 7: PHT/MHR ratio and memory overhead per depth
// and benchmark.
func Table7(w io.Writer, rows []experiments.Table7Row) {
	fmt.Fprintf(w, "TABLE 7. Memory overhead of Cosmos predictors (no filter), per %d-byte block.\n",
		experiments.Table7BlockBytes)
	fmt.Fprintf(w, "%-6s", "depth")
	for _, a := range apps {
		fmt.Fprintf(w, " | %-15s", a)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-6s", "")
	for range apps {
		fmt.Fprintf(w, " | %6s %7s", "Ratio", "Ovhd")
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", 6+len(apps)*18))
	byKey := make(map[string]experiments.Table7Row)
	maxDepth := 0
	for _, r := range rows {
		byKey[fmt.Sprintf("%s/%d", r.App, r.Depth)] = r
		if r.Depth > maxDepth {
			maxDepth = r.Depth
		}
	}
	for d := 1; d <= maxDepth; d++ {
		fmt.Fprintf(w, "%-6d", d)
		for _, a := range apps {
			r := byKey[fmt.Sprintf("%s/%d", a, d)]
			fmt.Fprintf(w, " | %6.1f %6.1f%%", r.Ratio, r.Overhead)
		}
		fmt.Fprintln(w)
	}
}

// Table8 renders Table 8: dsmc's per-transition hits/refs at the
// sampled run lengths.
func Table8(w io.Writer, cells []experiments.Table8Cell) {
	fmt.Fprintln(w, "TABLE 8. dsmc prediction accuracy for specific transitions (depth 1, no filter).")
	fmt.Fprintf(w, "%-52s", "transition")
	for _, n := range experiments.Table8Iterations {
		fmt.Fprintf(w, " | %4d iterations", n)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-52s", "")
	for range experiments.Table8Iterations {
		fmt.Fprintf(w, " | %6s %8s", "hits", "refs")
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", 52+len(experiments.Table8Iterations)*18))
	for _, arc := range experiments.Table8Transitions {
		fmt.Fprintf(w, "%-52s", fmt.Sprintf("<%s, %s> @%s", arc.From, arc.To, arc.Side))
		for _, n := range experiments.Table8Iterations {
			for _, c := range cells {
				if c.Arc == arc && c.Iterations == n {
					fmt.Fprintf(w, " | %5.0f%% %7.1f%%", c.HitPct, c.RefPct)
				}
			}
		}
		fmt.Fprintln(w)
	}
}

// Figure5 renders the model curves as aligned numeric series.
func Figure5(w io.Writer, fig *experiments.Figure5) {
	fmt.Fprintf(w, "FIGURE 5. Speedup from the Section 4.4 model at p=%.1f.\n", fig.P)
	renderCurves(w, "speedup vs f (fraction of delay on correct predictions)", "f", fig.FSweeps)
	fmt.Fprintln(w)
	renderCurves(w, "speedup vs r (mis-prediction penalty)", "r", fig.RSweeps)
}

func renderCurves(w io.Writer, title, xLabel string, curves []model.Curve) {
	fmt.Fprintf(w, "-- %s\n", title)
	if len(curves) == 0 {
		return
	}
	fmt.Fprintf(w, "%-6s", xLabel)
	for _, c := range curves {
		fmt.Fprintf(w, " %8s", c.Label)
	}
	fmt.Fprintln(w)
	for i := range curves[0].Points {
		fmt.Fprintf(w, "%-6.2f", curves[0].Points[i].X)
		for _, c := range curves {
			fmt.Fprintf(w, " %8.3f", c.Points[i].Speedup)
		}
		fmt.Fprintln(w)
	}
}

// Signatures renders a Figure 6/7 panel: the dominant arcs of one
// benchmark with their X/Y (accuracy/refshare) labels.
func Signatures(w io.Writer, app string, rows []experiments.SignatureRow) {
	fmt.Fprintf(w, "FIGURES 6-7. Dominant incoming-message signatures for %s (depth 1, no filter).\n", app)
	fmt.Fprintln(w, "Arcs are labelled X/Y as in the paper: X = % correct predictions, Y = % of side references.")
	last := trace.Side(255)
	for _, r := range rows {
		if r.Side != last {
			fmt.Fprintf(w, "-- at the %s\n", r.Side)
			last = r.Side
		}
		fmt.Fprintf(w, "   %-22s -> %-22s  %3.0f/%-3.0f (n=%d)\n",
			r.Stat.Arc.From, r.Stat.Arc.To, 100*r.Stat.Accuracy(), 100*r.Stat.RefShare, r.Stat.Total)
	}
}

// Figure8 renders the directed-signature detection results.
func Figure8(w io.Writer, res *experiments.Figure8Result) {
	fmt.Fprintln(w, "FIGURE 8. Directed-optimization signatures detected by signature predictors.")
	fmt.Fprintf(w, "  migratory protocol trigger: %d blocks classified, implied-prediction accuracy %.0f%% (coverage %.0f%%)\n",
		res.Migratory.Classified, 100*res.Migratory.AccuracyWhenPredicting, 100*res.Migratory.Coverage)
	fmt.Fprintf(w, "  dynamic self-invalidation trigger: %d blocks classified, implied-prediction accuracy %.0f%% (coverage %.0f%%)\n",
		res.DSI.Classified, 100*res.DSI.AccuracyWhenPredicting, 100*res.DSI.Coverage)
}

// DirectedComparison renders the Section 7 comparison rows.
func DirectedComparison(w io.Writer, rows []experiments.DirectedComparisonRow) {
	fmt.Fprintln(w, "SECTION 7. Cosmos vs directed predictors and naive baselines.")
	fmt.Fprintln(w, "accuracy = hits/all messages; coverage = messages with a prediction; acc@pred = hits/covered.")
	for _, row := range rows {
		fmt.Fprintf(w, "-- %s @ %s\n", row.App, row.Side)
		for _, e := range row.Evals {
			fmt.Fprintf(w, "   %-18s accuracy %5.1f%%  coverage %5.1f%%  acc@pred %5.1f%%",
				e.Name, 100*e.Accuracy, 100*e.Coverage, 100*e.AccuracyWhenPredicting)
			if e.Classified > 0 {
				fmt.Fprintf(w, "  blocks classified %d", e.Classified)
			}
			fmt.Fprintln(w)
		}
	}
}

// Latency renders the latency-insensitivity sweep.
func Latency(w io.Writer, rows []experiments.LatencyRow) {
	fmt.Fprintln(w, "SECTION 5. Latency insensitivity: overall depth-1 accuracy vs network latency.")
	byApp := make(map[string][]experiments.LatencyRow)
	var order []string
	for _, r := range rows {
		if _, ok := byApp[r.App]; !ok {
			order = append(order, r.App)
		}
		byApp[r.App] = append(byApp[r.App], r)
	}
	for _, app := range order {
		fmt.Fprintf(w, "  %-14s", app)
		for _, r := range byApp[app] {
			fmt.Fprintf(w, "  %4dns: %5.1f%%", r.LatencyNs, r.Overall)
		}
		fmt.Fprintln(w)
	}
}

// FaultSweep renders the lossy-interconnect robustness sweep.
func FaultSweep(w io.Writer, rows []experiments.FaultRow) {
	fmt.Fprintln(w, "FAULT SWEEP. Depth-1 accuracy on a lossy wire repaired by the reliable transport.")
	fmt.Fprintf(w, "  %-14s %6s %9s %10s %9s %9s %12s\n",
		"app", "drop", "accuracy", "messages", "dropped", "dup'd", "retransmits")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-14s %5.1f%% %8.1f%% %10d %9d %9d %12d\n",
			r.App, 100*r.DropProb, r.Overall, r.Messages, r.Dropped, r.Duplicated, r.Retransmits)
	}
}

// Adapt renders the time-to-adapt analysis.
func Adapt(w io.Writer, rows []experiments.AdaptRow) {
	fmt.Fprintln(w, "SECTION 6.2. Time to adapt (iterations until steady-state accuracy).")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-14s steady after %4d of %4d iterations (final accuracy %.1f%%)\n",
			r.App, r.SteadyIteration, r.Iterations, r.FinalAccuracy)
	}
}

// Ablation renders the half-migratory ablation.
func Ablation(w io.Writer, rows []experiments.AblationRow) {
	fmt.Fprintln(w, "ABLATION. Half-migratory optimization on/off (depth-1 accuracy, directory-bound messages).")
	byApp := make(map[string][]experiments.AblationRow)
	var order []string
	for _, r := range rows {
		if _, ok := byApp[r.App]; !ok {
			order = append(order, r.App)
		}
		byApp[r.App] = append(byApp[r.App], r)
	}
	for _, app := range order {
		fmt.Fprintf(w, "  %-14s", app)
		for _, r := range byApp[app] {
			mode := "half-migratory"
			if !r.HalfMigratory {
				mode = "downgrade    "
			}
			fmt.Fprintf(w, "  %s: %5.1f%% (%8d dir msgs)", mode, r.Overall, r.DirMessages)
		}
		fmt.Fprintln(w)
	}
}

// FilterDepth renders the extended filter-by-depth ablation grid.
func FilterDepth(w io.Writer, cells []experiments.FilterDepthCell) {
	fmt.Fprintln(w, "ABLATION. Filters vs history depth (overall accuracy %; columns are filter max 0/1/2).")
	fmt.Fprintf(w, "%-6s", "depth")
	for _, a := range apps {
		fmt.Fprintf(w, " | %-17s", a)
	}
	fmt.Fprintln(w)
	byKey := make(map[string]float64)
	maxDepth := 0
	for _, c := range cells {
		byKey[fmt.Sprintf("%s/%d/%d", c.App, c.Depth, c.FilterMax)] = c.Overall
		if c.Depth > maxDepth {
			maxDepth = c.Depth
		}
	}
	for d := 1; d <= maxDepth; d++ {
		fmt.Fprintf(w, "%-6d", d)
		for _, a := range apps {
			fmt.Fprint(w, " |")
			for f := 0; f <= 2; f++ {
				fmt.Fprintf(w, " %5.1f", byKey[fmt.Sprintf("%s/%d/%d", a, d, f)])
			}
		}
		fmt.Fprintln(w)
	}
}

// Table 3 parameters the model does not simulate, so Table3 prints the
// paper's values for them: no processor or memory access time is
// charged, Stache caches are unbounded, and every message costs the
// same latency whatever its size.
const (
	paperProcessorMHz    = 1000
	paperCacheKB         = 1024
	paperCacheAssoc      = 1
	paperMemoryAccessNs  = 120
	paperNetworkMsgBytes = 256
)

// Table3 renders the machine parameters (Table 3): the simulated ones
// from cfg.Machine, the rest from the paper's constants above.
func Table3(w io.Writer, cfg experiments.Config) {
	m := cfg.Machine
	fmt.Fprintln(w, "TABLE 3. System parameters.")
	fmt.Fprintf(w, "  %-34s %d\n", "Number of parallel machine nodes", m.Nodes)
	fmt.Fprintf(w, "  %-34s %d MHz\n", "Processor speed", paperProcessorMHz)
	fmt.Fprintf(w, "  %-34s %d bytes\n", "Cache block size", m.CacheBlockBytes)
	fmt.Fprintf(w, "  %-34s %d KB\n", "Cache size", paperCacheKB)
	fmt.Fprintf(w, "  %-34s %d-way\n", "Cache associativity", paperCacheAssoc)
	fmt.Fprintf(w, "  %-34s %dns\n", "Main memory access time", paperMemoryAccessNs)
	fmt.Fprintf(w, "  %-34s %d bits\n", "Memory bus width", m.BusWidthBits)
	fmt.Fprintf(w, "  %-34s %d MHz\n", "Memory bus clock", m.BusClockHz/1_000_000)
	fmt.Fprintf(w, "  %-34s %d bytes\n", "Network message size", paperNetworkMsgBytes)
	fmt.Fprintf(w, "  %-34s %v\n", "Network latency", m.NetworkLatencyNs)
	fmt.Fprintf(w, "  %-34s %v\n", "Network interface access time", m.NIAccessNs)
}

// Table4 renders the benchmark inventory (Table 4).
func Table4(w io.Writer, cfg experiments.Config) {
	descr := map[string]string{
		"appbt":        "NAS 3D CFD; producer-consumer between grid neighbours; false sharing in two structures",
		"barnes":       "SPLASH-2 Barnes-Hut N-body; octree rebuilt (and re-addressed) every iteration",
		"dsmc":         "discrete-simulation Monte Carlo gas; write-first producer-consumer buffers",
		"moldyn":       "CHARMM-like molecular dynamics; migratory force reduction + 4.9-consumer coordinates",
		"unstructured": "CFD over a static unstructured mesh; oscillates migratory <-> producer-consumer",
	}
	fmt.Fprintln(w, "TABLE 4. Benchmarks.")
	for _, a := range apps {
		fmt.Fprintf(w, "  %-14s %s\n", a, descr[a])
	}
}

// Variants renders the predictor-variant ablation (macroblocks and
// sender-agnostic histories).
func Variants(w io.Writer, rows []experiments.VariantRow) {
	fmt.Fprintln(w, "ABLATION. Predictor variants (depth 1): macroblock grouping (Section 7) and")
	fmt.Fprintln(w, "sender-agnostic histories (Section 3.5, footnote 2).")
	fmt.Fprintf(w, "  %-14s %-18s %9s %12s %12s\n", "app", "variant", "overall", "MHR entries", "PHT entries")
	for _, r := range rows {
		name := fmt.Sprintf("group=%d", r.Group)
		if r.SenderAgnostic {
			name = "sender-agnostic"
		}
		fmt.Fprintf(w, "  %-14s %-18s %8.1f%% %12d %12d\n", r.App, name, r.Overall, r.MHREntries, r.PHTEntries)
	}
}

// Replacement renders the Section 3.7 replacement study.
func Replacement(w io.Writer, rows []experiments.ReplacementRow) {
	fmt.Fprintln(w, "SECTION 3.7. Cache replacement: traffic cost and predictor history loss (depth 1).")
	fmt.Fprintf(w, "  %-14s %-26s %9s %12s %12s\n", "app", "configuration", "overall", "writebacks", "messages")
	for _, r := range rows {
		name := "unbounded (Stache)"
		if r.CacheBlocks > 0 {
			name = fmt.Sprintf("%d-block cache", r.CacheBlocks)
			if r.ForgetOnWriteback {
				name += ", history lost"
			} else {
				name += ", history kept"
			}
		}
		fmt.Fprintf(w, "  %-14s %-26s %8.1f%% %12d %12d\n", r.App, name, r.Overall, r.Writebacks, r.Messages)
	}
}

// Accelerate renders the end-to-end protocol acceleration rows.
func Accelerate(w io.Writer, rows []experiments.AccelerateRow) {
	fmt.Fprintln(w, "SECTION 4 (extension). Prediction-accelerated protocol on the five benchmarks")
	fmt.Fprintln(w, "(Cosmos depth-1 oracles driving the read-modify-write exclusive grant).")
	fmt.Fprintf(w, "  %-14s %12s %12s %10s %10s %10s\n",
		"app", "base msgs", "accel msgs", "grants", "msgs -%", "time -%")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-14s %12d %12d %10d %9.1f%% %9.1f%%\n",
			r.App, r.BaselineMsgs, r.AcceleratedMsgs, r.Speculations,
			100*r.MessageReduction, 100*r.TimeReduction)
	}
}

// PApVsPAg renders the predictor-organization comparison.
func PApVsPAg(w io.Writer, rows []experiments.PApVsPAgRow) {
	fmt.Fprintln(w, "ABLATION. PAp (per-block PHT, the paper's design) vs PAg (one shared PHT).")
	fmt.Fprintf(w, "  %-14s %10s %10s %12s %12s\n", "app", "PAp acc", "PAg acc", "PAp PHT", "PAg PHT")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-14s %9.1f%% %9.1f%% %12d %12d\n",
			r.App, r.PApOverall, r.PAgOverall, r.PApPHT, r.PAgPHT)
	}
}

// StateEquivalence renders the footnote-1 comparison.
func StateEquivalence(w io.Writer, rows []experiments.StateEquivalenceRow) {
	fmt.Fprintln(w, "FOOTNOTE 1. Predicting the next message vs the next directory state (depth 1).")
	fmt.Fprintf(w, "  %-14s %12s %12s %16s\n", "app", "message acc", "state acc", "distinct states")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-14s %11.1f%% %11.1f%% %16d\n",
			r.App, r.MessageAccuracy, r.StateAccuracy, r.DistinctStates)
	}
}

// Forwarding renders the protocol-variant comparison.
func Forwarding(w io.Writer, rows []experiments.ForwardingRow) {
	fmt.Fprintln(w, "SECTION 2.1. Stache (four-hop) vs Origin-style forwarding (three-hop), depth-1 Cosmos.")
	fmt.Fprintf(w, "  %-14s %-12s %8s %10s %8s %12s\n", "app", "protocol", "cache", "directory", "overall", "messages")
	for _, r := range rows {
		proto := "stache"
		if r.Forwarding {
			proto = "forwarding"
		}
		fmt.Fprintf(w, "  %-14s %-12s %7.1f%% %9.1f%% %7.1f%% %12d\n",
			r.App, proto, r.Cache, r.Dir, r.Overall, r.Messages)
	}
}

// ScaleSweep renders the node-count scaling sweep: per benchmark, one
// line per (nodes, directory format) cell, so the accuracy and traffic
// curves read down the column as the machine grows.
func ScaleSweep(w io.Writer, rows []experiments.ScaleSweepRow) {
	fmt.Fprintln(w, "SCALE SWEEP. Depth-1 accuracy and traffic vs node count per directory format.")
	fmt.Fprintln(w, "  (full-map stops at 64 nodes; above overflow, limited broadcasts and coarse widens invalidations)")
	fmt.Fprintf(w, "  %-14s %6s %-9s %9s %12s %12s\n",
		"app", "nodes", "format", "accuracy", "messages", "invals")
	byApp := make(map[string][]experiments.ScaleSweepRow)
	var order []string
	for _, r := range rows {
		if _, ok := byApp[r.App]; !ok {
			order = append(order, r.App)
		}
		byApp[r.App] = append(byApp[r.App], r)
	}
	for _, app := range order {
		for _, r := range byApp[app] {
			fmt.Fprintf(w, "  %-14s %6d %-9s %8.1f%% %12d %12d\n",
				r.App, r.Nodes, r.Format, r.Overall, r.Messages, r.Invals)
		}
	}
}
