// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section 6), plus micro-benchmarks of the predictor
// itself. Each table benchmark regenerates its table from the shared
// full-scale traces (simulated once per process and memoized) and
// reports the headline numbers as custom metrics, so
// `go test -bench=. -benchmem` both measures the harness and emits the
// reproduced results.
package cosmos_test

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/experiments"
	"github.com/cosmos-coherence/cosmos/internal/faults"
	"github.com/cosmos-coherence/cosmos/internal/governor"
	"github.com/cosmos-coherence/cosmos/internal/machine"
	"github.com/cosmos-coherence/cosmos/internal/serve"
	"github.com/cosmos-coherence/cosmos/internal/sim"
	"github.com/cosmos-coherence/cosmos/internal/speculate"
	"github.com/cosmos-coherence/cosmos/internal/stache"
	"github.com/cosmos-coherence/cosmos/internal/stats"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

// benchScale resolves the workload scale for the macro benchmarks from
// COSMOS_BENCH_SCALE (small | medium | full), falling back to def.
// The cosmos-bench count gate sets small so the whole suite runs in
// about a second.
func benchScale(b *testing.B, def workload.Scale) workload.Scale {
	b.Helper()
	name := os.Getenv("COSMOS_BENCH_SCALE")
	if name == "" {
		return def
	}
	sc, ok := experiments.ScaleFor(name)
	if !ok {
		b.Fatalf("COSMOS_BENCH_SCALE=%q: want small | medium | full", name)
	}
	return sc
}

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
	// suiteCache is the temporary trace cache fullSuite made, if any;
	// TestMain removes it.
	suiteCache string
)

func TestMain(m *testing.M) {
	code := m.Run()
	if suiteCache != "" {
		os.RemoveAll(suiteCache)
	}
	os.Exit(code)
}

// fullSuite lazily builds the shared full-scale suite; the first
// benchmark that needs a trace pays its simulation cost exactly once
// per process — or loads it from COSMOS_TRACE_CACHE when set. Without
// it, the traces go to a temporary trace cache the process starts
// empty, so the count gate's counts never depend on a cache's state;
// freshSuite loads them from there.
func fullSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		cfg := experiments.DefaultConfig()
		cfg.Scale = benchScale(b, workload.ScaleFull)
		cfg.TraceCache = os.Getenv("COSMOS_TRACE_CACHE")
		if cfg.TraceCache == "" {
			dir, err := os.MkdirTemp("", "cosmos-bench-traces-*")
			if err != nil {
				b.Fatal(err)
			}
			suiteCache, cfg.TraceCache = dir, dir
		}
		suite = experiments.NewSuite(cfg)
	})
	return suite
}

// freshSuite returns a suite with an empty result memo over the shared
// suite's traces, so an iteration of a table or figure benchmark
// measures evaluation rather than a read of the memo an earlier
// iteration filled. The timer stops while it loads the traces from
// the shared suite's trace cache and builds their slot partitions.
func freshSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	b.StopTimer()
	defer b.StartTimer()
	s := experiments.NewSuite(fullSuite(b).Config())
	for _, app := range s.Apps() {
		tr, err := s.Trace(app)
		if err != nil {
			b.Fatal(err)
		}
		tr.Partition()
	}
	return s
}

// warm materializes all five traces outside the timed region.
func warm(b *testing.B, s *experiments.Suite) {
	b.Helper()
	for _, app := range s.Apps() {
		if _, err := s.Trace(app); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5 regenerates Table 5 (prediction rates, depths 1-4),
// once over the serial path and once over an 8-worker pool (the two
// must produce identical rows; the regression test pins that — here
// the pool's wall-clock win is what is measured). Reported metrics:
// overall accuracy per benchmark at depth 1.
func BenchmarkTable5(b *testing.B) {
	warm(b, fullSuite(b))
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"workers8", 8}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ResetTimer()
			var rows []experiments.Table5Row
			for i := 0; i < b.N; i++ {
				var err error
				rows, err = experiments.Table5(freshSuite(b).SetWorkers(bc.workers))
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, r := range rows {
				if r.Depth == 1 {
					b.ReportMetric(r.Overall, r.App+"_d1_%")
				}
			}
		})
	}
}

// BenchmarkTable6 regenerates Table 6 (noise filters x depth).
func BenchmarkTable6(b *testing.B) {
	warm(b, fullSuite(b))
	b.ResetTimer()
	var rows []experiments.Table6Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table6(freshSuite(b))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Depth == 1 && r.FilterMax == 1 {
			b.ReportMetric(r.Overall, r.App+"_f1_%")
		}
	}
}

// BenchmarkTable7 regenerates Table 7 (predictor memory overhead).
func BenchmarkTable7(b *testing.B) {
	warm(b, fullSuite(b))
	b.ResetTimer()
	var rows []experiments.Table7Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table7(freshSuite(b))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Depth == 1 {
			b.ReportMetric(r.Ratio, r.App+"_ratio")
		}
	}
}

// BenchmarkTable8 regenerates Table 8 (dsmc adaptation over run length).
func BenchmarkTable8(b *testing.B) {
	warm(b, fullSuite(b))
	b.ResetTimer()
	var cells []experiments.Table8Cell
	for i := 0; i < b.N; i++ {
		var err error
		cells, err = experiments.Table8(freshSuite(b))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range cells {
		if c.Arc == experiments.Table8Transitions[1] {
			b.ReportMetric(c.HitPct, "gror_to_irwr_hits_%")
			break
		}
	}
}

// BenchmarkFigure5 regenerates the analytic speedup curves.
func BenchmarkFigure5(b *testing.B) {
	var fig *experiments.Figure5
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = experiments.RunFigure5()
		if err != nil {
			b.Fatal(err)
		}
	}
	// The paper's headline: substantial speedups at p=0.8.
	b.ReportMetric(fig.FSweeps[0].Points[0].Speedup, "max_speedup_x")
}

// BenchmarkFigure6 regenerates the Figure 6 signature panels (appbt,
// barnes, dsmc).
func BenchmarkFigure6(b *testing.B) {
	warm(b, fullSuite(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := freshSuite(b)
		for _, app := range []string{"appbt", "barnes", "dsmc"} {
			if _, err := experiments.Figures6and7(s, app, 8); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure7 regenerates the Figure 7 signature panels (moldyn,
// unstructured).
func BenchmarkFigure7(b *testing.B) {
	warm(b, fullSuite(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := freshSuite(b)
		for _, app := range []string{"moldyn", "unstructured"} {
			if _, err := experiments.Figures6and7(s, app, 8); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure8 regenerates the directed-signature detection runs.
func BenchmarkFigure8(b *testing.B) {
	cfg := experiments.DefaultConfig()
	var res *experiments.Figure8Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFigure8(experiments.NewSuite(cfg))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.Migratory.AccuracyWhenPredicting, "migratory_acc_%")
	b.ReportMetric(100*res.DSI.AccuracyWhenPredicting, "dsi_acc_%")
}

// BenchmarkDirectedComparison regenerates the Section 7 comparison.
func BenchmarkDirectedComparison(b *testing.B) {
	s := fullSuite(b)
	warm(b, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DirectedComparison(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLatencyInsensitivity re-simulates at 40ns and 1us network
// latency (Section 5's robustness claim). Uses the medium scale: each
// iteration simulates all five benchmarks twice.
func BenchmarkLatencyInsensitivity(b *testing.B) {
	cfg := experiments.DefaultConfig()
	cfg.Scale = benchScale(b, workload.ScaleMedium)
	var rows []experiments.LatencyRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.LatencySweep(experiments.NewSuite(cfg), []uint64{40, 1000})
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) >= 2 {
		b.ReportMetric(rows[0].Overall-rows[len(rows)/2].Overall, "accuracy_delta_pts")
	}
}

// BenchmarkHalfMigratoryAblation re-simulates with the Section 5.1
// protocol optimization on and off (medium scale).
func BenchmarkHalfMigratoryAblation(b *testing.B) {
	cfg := experiments.DefaultConfig()
	cfg.Scale = benchScale(b, workload.ScaleMedium)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.HalfMigratoryAblation(experiments.NewSuite(cfg)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAcceleratedProtocol measures the end-to-end Section 4
// integration: migratory workload with and without the RMW action.
func BenchmarkAcceleratedProtocol(b *testing.B) {
	cfg := sim.DefaultConfig()
	geom := coherence.MustGeometry(cfg.CacheBlockBytes, cfg.PageBytes, cfg.Nodes)
	app := func() workload.App {
		return workload.Migratory(cfg.Nodes, workload.NewArena(geom).Alloc(32), 30)
	}
	var cmp *speculate.Comparison
	for i := 0; i < b.N; i++ {
		var err error
		cmp, err = speculate.AccelerateActions(app, cfg, stache.DefaultOptions(), speculate.AttachConfig{
			Actions:   speculate.Actions{RMW: true},
			Predictor: core.Config{Depth: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*cmp.MessageReduction(), "msg_reduction_%")
	b.ReportMetric(100*cmp.TimeReduction(), "time_reduction_%")
}

// BenchmarkRollbackActions measures the ProtocolRollback integration
// end to end: a producer-consumer workload under every Table 2 action
// at once — RMW, self-invalidation, speculative downgrade and producer
// push, all gated by one shared governor — against the base protocol.
// Both runs per iteration, like BenchmarkAcceleratedProtocol.
func BenchmarkRollbackActions(b *testing.B) {
	cfg := sim.DefaultConfig()
	geom := coherence.MustGeometry(cfg.CacheBlockBytes, cfg.PageBytes, cfg.Nodes)
	app := func() workload.App {
		return workload.ProducerConsumer(cfg.Nodes, 1, []int{2, 5}, workload.NewArena(geom).Alloc(32), 30)
	}
	opts := stache.DefaultOptions()
	opts.Speculation = true
	gov := governor.DefaultConfig()
	acfg := speculate.AttachConfig{
		Actions:   speculate.AllActions(),
		Predictor: core.Config{Depth: 2},
		Governor:  &gov,
	}
	var cmp *speculate.Comparison
	for i := 0; i < b.N; i++ {
		var err error
		cmp, err = speculate.AccelerateActions(app, cfg, opts, acfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	acc := cmp.Accelerated
	b.ReportMetric(100*cmp.MessageReduction(), "msg_reduction_%")
	b.ReportMetric(100*cmp.TimeReduction(), "time_reduction_%")
	b.ReportMetric(float64(acc.SpecFetches+acc.SpecPushes), "rollback_actions")
}

// BenchmarkPredictorObserve measures raw predictor throughput: one
// Observe (predict + train) per op on a steady periodic stream.
func BenchmarkPredictorObserve(b *testing.B) {
	for _, depth := range []int{1, 2, 4} {
		depth := depth
		b.Run(map[int]string{1: "depth1", 2: "depth2", 4: "depth4"}[depth], func(b *testing.B) {
			p := core.MustNew(core.Config{Depth: depth})
			seq := []coherence.Tuple{
				{Sender: 1, Type: coherence.GetRWReq},
				{Sender: 2, Type: coherence.InvalROResp},
				{Sender: 2, Type: coherence.GetROReq},
				{Sender: 1, Type: coherence.InvalRWResp},
			}
			// Warm every block's MHR and PHT first so the timed loop
			// measures steady-state throughput: on a periodic stream a
			// trained predictor performs no allocation at all, and the
			// reported allocs/op must show that even at -benchtime=1x.
			for i := 0; i < 1024*len(seq)*(depth+1); i++ {
				p.Observe(coherence.Addr(uint64(i%1024)*64), seq[i%len(seq)])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Observe(coherence.Addr(uint64(i%1024)*64), seq[i%len(seq)])
			}
		})
	}
}

// BenchmarkSimulation measures the machine simulator itself driving
// the dsmc workload at small scale. Machine and workload construction
// happen outside the timed region (a machine is single-use, so each
// iteration needs a fresh one), and the fired-event count per run is
// reported as events.
func BenchmarkSimulation(b *testing.B) {
	var events uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		app := workload.NewDSMC(16, workload.ScaleSmall)
		cfg := sim.DefaultConfig()
		m, err := machine.New(cfg, stache.DefaultOptions(), app)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := m.Run(100_000_000); err != nil {
			b.Fatal(err)
		}
		events += m.Engine().Fired()
	}
	b.ReportMetric(float64(events)/float64(b.N), "events")
}

// BenchmarkEngine measures the event queue in isolation: one Post
// plus its share of Step (pop and dispatch) per op, over a queue held
// at a steady depth of 1024 pending events — the regime the protocol
// keeps the scheduler in. It must run allocation-free.
func BenchmarkEngine(b *testing.B) {
	var e sim.Engine
	nop := e.RegisterHandler(func(sim.EventRec) {})
	const depth = 1024
	for i := 0; i < depth; i++ {
		e.Post(sim.Time(i), sim.EventRec{Kind: nop})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Post(e.Now()+sim.Time(i%64), sim.EventRec{Kind: nop})
		e.Step()
	}
}

// BenchmarkServeSLO is the online prediction service's SLO benchmark:
// each iteration deploys a full cosmos-serve cluster — server with a
// durable store, paced clients, a mildly faulty wire — and runs a
// fixed workload to completion with periodic checkpointing on. It
// reports the service-level numbers the SLO gate watches: simulated
// observation throughput and p99 observation→response latency, both in
// simulated time. The wall-clock time per op is the harness cost
// (engine + transport + snapshot/WAL I/O).
func BenchmarkServeSLO(b *testing.B) {
	const streams, obs = 4, 400
	workload := serve.GenWorkload(1, streams, obs)
	var tput float64
	var p99 uint64
	for i := 0; i < b.N; i++ {
		c, err := serve.NewCluster(serve.HarnessConfig{
			Dir: b.TempDir(),
			Server: serve.Config{
				Predictor:     core.Config{Depth: 2, FilterMax: 1},
				SnapshotEvery: 64,
			},
			Plan: faults.Plan{Seed: 2, DropProb: 0.01, JitterNs: 100},
		}, workload)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Run(); err != nil {
			b.Fatal(err)
		}
		var lats []uint64
		for _, cl := range c.Clients {
			lats = append(lats, cl.LatNs...)
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		st := c.Srv.Stats()
		tput = float64(st.Applied) / float64(c.Eng.Now()) * 1e9
		p99 = lats[int(0.99*float64(len(lats)-1))]
	}
	b.ReportMetric(tput, "sim_obs/s")
	b.ReportMetric(float64(p99), "p99_ns")
}

// BenchmarkEvaluateThroughput measures trace evaluation speed
// (records/op is constant; time per op is what matters).
func BenchmarkEvaluateThroughput(b *testing.B) {
	s := fullSuite(b)
	tr, err := s.Trace("moldyn")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.Evaluate(tr, core.Config{Depth: 2}, stats.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Records)), "records")
}

// BenchmarkEvaluateThroughputSharded is the same evaluation through
// the slot-sharded path at 8 requested workers (the pool self-caps at
// GOMAXPROCS). Results are identical to the serial path; the
// equivalence tests pin that, this measures the wall-clock difference.
func BenchmarkEvaluateThroughputSharded(b *testing.B) {
	s := fullSuite(b)
	tr, err := s.Trace("moldyn")
	if err != nil {
		b.Fatal(err)
	}
	tr.Partition() // build the memoized view outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.Evaluate(tr, core.Config{Depth: 2}, stats.Options{Workers: 8}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Records)), "records")
}

// BenchmarkScaleSweep measures one streamed scalesweep cell (capture
// plus windowed evaluation, never materializing the trace) as the
// machine grows past the full-map directory's 64-node bound. The node
// axis is the variable under test, so the workload defaults to small
// scale — the 1024-node cell stays affordable while still exercising
// limited-pointer overflow. B/op is the headline: the streaming path's
// allocations must stay flat as nodes grow.
func BenchmarkScaleSweep(b *testing.B) {
	for _, nodes := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("nodes%d", nodes), func(b *testing.B) {
			cfg := experiments.DefaultConfig()
			cfg.Scale = benchScale(b, workload.ScaleSmall)
			cfg.TraceCache = os.Getenv("COSMOS_TRACE_CACHE")
			cfg.Machine.Nodes = nodes
			cfg.Stache.DirFormat = stache.DirLimitedPtr
			s := experiments.NewSuite(cfg)
			b.ReportAllocs()
			b.ResetTimer()
			var res *stats.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = s.EvaluateStreamed("dsmc", core.Config{Depth: 1}, stats.StreamOptions{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Overall.Total), "messages")
		})
	}
}
