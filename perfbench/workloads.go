package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"time"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/experiments"
	"github.com/cosmos-coherence/cosmos/internal/faults"
	"github.com/cosmos-coherence/cosmos/internal/machine"
	"github.com/cosmos-coherence/cosmos/internal/report"
	"github.com/cosmos-coherence/cosmos/internal/serve"
	"github.com/cosmos-coherence/cosmos/internal/sim"
	"github.com/cosmos-coherence/cosmos/internal/stache"
	"github.com/cosmos-coherence/cosmos/internal/stats"
	"github.com/cosmos-coherence/cosmos/internal/trace"
	"github.com/cosmos-coherence/cosmos/internal/tracecache"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

// goldenFiles hold cosmos-tables -scale full -table 5 and -table 6
// output, which paper-tables must reproduce at seed 0.
//
//go:embed golden
var goldenFiles embed.FS

// maxEvents bounds one simulation, as experiments.Run does.
const maxEvents = 2_000_000_000

// tablesWorkers is cosmos-tables' default pool width on the 2-CPU host
// the benchmark was designed on; fixed so results do not depend on the
// host's CPU count.
const tablesWorkers = 2

// scaleCfg sizes the workloads. fullScale is the benchmark; smallScale
// exists so the tests can run every workload in seconds.
type scaleCfg struct {
	paper    workload.Scale // paper-sim and paper-tables
	large    workload.Scale // scale-1024
	serveObs int            // observations per serve-slo stream
}

var (
	fullScale  = scaleCfg{paper: workload.ScaleFull, large: workload.ScaleMedium, serveObs: 4000}
	smallScale = scaleCfg{paper: workload.ScaleSmall, large: workload.ScaleSmall, serveObs: 200}
)

// repResult is what one repetition produced besides its timings.
type repResult struct {
	// simNs and messages are the modelled-design figures; they are
	// deterministic and must repeat exactly across repetitions.
	simNs    float64
	messages float64
	// attempted counts the operations the repetition ran (simulations,
	// evaluations, offered observations); failed, those that returned
	// an error or failed their output check.
	attempted int
	failed    int
	failures  []string
}

func (r *repResult) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// bench is one workload. The runner calls prepare once per run, then
// per repetition: reset (untimed), setup (timed), op for each of the
// operation's units in order (each timed), check (untimed) and, traced
// repetitions only, probe (untimed).
type bench interface {
	prepare() error
	reset() error
	setup(tr *tracer) error
	units() int
	op(tr *tracer, unit int) error
	probe(tr *tracer) error
	check(r *repResult)
}

func newBench(name string, seed int64, sc scaleCfg, tmp string) (bench, error) {
	switch name {
	case "paper-sim":
		return &paperSim{cfg: paperConfig(sc), seed: seed, tmp: tmp}, nil
	case "paper-tables":
		return &paperTables{cfg: paperConfig(sc), seed: seed, tmp: tmp, golden: sc == fullScale}, nil
	case "scale-1024":
		cfg := experiments.DefaultConfig()
		cfg.Scale = sc.large
		cfg.Machine.Nodes = 1024
		cfg.Machine.Topology = "torus"
		cfg.Stache.DirFormat = stache.DirLimitedPtr
		return &scale1024{cfg: cfg, seed: seed, tmp: tmp}, nil
	case "serve-slo":
		return &serveSLO{seed: seed, obs: sc.serveObs, tmp: tmp}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

var workloadNames = []string{"paper-sim", "paper-tables", "scale-1024", "serve-slo"}

func paperConfig(sc scaleCfg) experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Scale = sc.paper
	return cfg
}

var paperApps = []string{"appbt", "barnes", "dsmc", "moldyn", "unstructured"}

// traceKey is experiments.Config's cache key, which a Suite uses to find
// a trace in its cache. The benchmark stores seeded traces under it so
// that paper-tables' Suite loads them; a drift between the two formulas
// shows as a cache miss, which the paper-tables check counts as a
// failure.
func traceKey(cfg experiments.Config, app string) string {
	h := sha256.New()
	fmt.Fprintf(h, "ctrc-v%d|app=%s|scale=%d|machine=%#v|stache=%#v",
		trace.Version, app, cfg.Scale, cfg.Machine, cfg.Stache)
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// digest condenses a trace's per-node hashes into one value.
func digest(t *trace.Trace) uint64 {
	h := fnv.New64a()
	for _, x := range t.NodeHashes() {
		_ = binary.Write(h, binary.LittleEndian, x)
	}
	return h.Sum64()
}

// newMachine builds app's machine, traced as machine.new.
func newMachine(cfg experiments.Config, app *seededApp, tr *tracer) (*machine.Machine, error) {
	tr.begin("machine.new")
	defer tr.end()
	m, err := machine.New(cfg.Machine, cfg.Stache, app)
	if err != nil {
		return nil, fmt.Errorf("building machine for %s: %w", app.Name(), err)
	}
	return m, nil
}

// seededApps builds the named applications with the seed's processor
// assignment.
func seededApps(cfg experiments.Config, names []string, seed int64) ([]*seededApp, error) {
	apps := make([]*seededApp, len(names))
	for i, name := range names {
		a, err := workload.ByName(name, cfg.Machine.Nodes, cfg.Scale)
		if err != nil {
			return nil, err
		}
		apps[i] = newSeededApp(a, seed, i)
	}
	return apps, nil
}

// timedObserver charges every observer call to an aggregate span.
type timedObserver struct {
	inner machine.Observer
	tr    *tracer
	agg   int
}

func (o *timedObserver) ObserveCache(n coherence.NodeID, m coherence.Msg) {
	t0 := time.Now()
	o.inner.ObserveCache(n, m)
	o.tr.add(o.agg, time.Since(t0))
}

func (o *timedObserver) ObserveDirectory(n coherence.NodeID, m coherence.Msg) {
	t0 := time.Now()
	o.inner.ObserveDirectory(n, m)
	o.tr.add(o.agg, time.Since(t0))
}

func (o *timedObserver) EndIteration(iter int) {
	t0 := time.Now()
	o.inner.EndIteration(iter)
	o.tr.add(o.agg, time.Since(t0))
}

// runMachine runs m to completion with obs attached. Traced, the run is
// the span machine.run; the observer's calls are charged to obsSpan and
// the access generation to workload.gen, both children of it.
func runMachine(m *machine.Machine, app *seededApp, obs machine.Observer, obsSpan string, tr *tracer) error {
	tr.begin("machine.run")
	defer tr.end()
	if tr != nil {
		app.tr, app.gen = tr, tr.aggregate("workload.gen")
		obs = &timedObserver{inner: obs, tr: tr, agg: tr.aggregate(obsSpan)}
		defer func() { app.tr = nil }()
		defer func(before uint64) {
			tr.count("machine.run_alloc_mib", mib(totalAlloc()-before))
		}(totalAlloc())
	}
	m.AddObserver(obs)
	if err := m.Run(maxEvents); err != nil {
		return fmt.Errorf("simulating %s: %w", app.Name(), err)
	}
	return nil
}

// machineCounts records the engine, network and protocol counters a
// finished machine exposes.
func machineCounts(m *machine.Machine, nodes int, tr *tracer) {
	if tr == nil {
		return
	}
	tr.count("sim.events", float64(m.Engine().Fired()))
	ns := m.Network().Stats()
	tr.count("network.messages", float64(ns.MessagesSent))
	tr.count("network.data_messages", float64(ns.DataMessages))
	for n := 0; n < nodes; n++ {
		_, _, lm, sm, um, _ := m.Cache(coherence.NodeID(n)).Stats()
		tr.count("stache.cache_misses", float64(lm+sm+um))
		txn, invals, _, queued := m.Directory(coherence.NodeID(n)).Stats()
		tr.count("stache.dir_transactions", float64(txn))
		tr.count("stache.invals_sent", float64(invals))
		tr.count("stache.dir_queued", float64(queued))
	}
	over, wide := m.FormatStats()
	tr.count("stache.dir_overflows", float64(over))
	tr.count("stache.wide_invals", float64(wide))
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

// totalAlloc returns the heap bytes allocated so far; the traced run
// reads it around layer calls.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// modelled keeps a repetition's deterministic figures and checks that
// every later repetition of the run repeats them exactly.
type modelled struct {
	first bool
	simNs float64
	msgs  float64
	extra any
}

// compare records the repetition's figures; a mismatch with the first
// repetition fails the repetition's ops operations.
func (d *modelled) compare(r *repResult, ops int, simNs, msgs float64, extra any) {
	r.simNs, r.messages = simNs, msgs
	if !d.first {
		d.first, d.simNs, d.msgs, d.extra = true, simNs, msgs, extra
		return
	}
	if simNs != d.simNs || msgs != d.msgs || !reflect.DeepEqual(extra, d.extra) {
		r.failed += ops
		r.fail("repetition is not deterministic: sim_ns %v messages %v, first repetition %v %v",
			simNs, msgs, d.simNs, d.msgs)
	}
}

// paperSim is the cosmos-tables -warm-cache flow at full scale: each of
// the five apps is simulated serially on the Table 3 machine and its
// trace stored into an empty trace cache.
type paperSim struct {
	cfg  experiments.Config
	seed int64
	tmp  string

	dir      string
	apps     []*seededApp
	machines []*machine.Machine
	traces   []*trace.Trace
	model    modelled
}

func (w *paperSim) prepare() error { return nil }

func (w *paperSim) reset() error {
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
	w.machines, w.traces = nil, nil
	var err error
	w.dir, err = os.MkdirTemp(w.tmp, "paper-sim-")
	return err
}

func (w *paperSim) setup(tr *tracer) error {
	apps, err := seededApps(w.cfg, paperApps, w.seed)
	if err != nil {
		return err
	}
	w.apps = apps
	for _, a := range apps {
		m, err := newMachine(w.cfg, a, tr)
		if err != nil {
			return err
		}
		w.machines = append(w.machines, m)
	}
	return nil
}

func (w *paperSim) units() int { return 2 * len(paperApps) }

// op runs unit u: an even unit simulates app u/2 and records its trace,
// the odd unit after it stores that trace into the cache.
func (w *paperSim) op(tr *tracer, u int) error {
	m, app := w.machines[u/2], w.apps[u/2]
	if u%2 == 1 {
		tr.begin("tracecache.store")
		defer tr.end()
		return tracecache.Cache{Dir: w.dir}.Store(traceKey(w.cfg, app.Name()), w.traces[u/2])
	}
	rec := trace.NewRecorder(app.Name(), w.cfg.Machine.Nodes, app.PhasesPerIteration(), 0)
	if err := runMachine(m, app, rec, "trace.record", tr); err != nil {
		return err
	}
	w.traces = append(w.traces, rec.Trace())
	return nil
}

func (w *paperSim) probe(tr *tracer) error {
	for i, m := range w.machines {
		machineCounts(m, w.cfg.Machine.Nodes, tr)
		tr.begin("trace.encode")
		err := trace.Write(io.Discard, w.traces[i])
		tr.end()
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *paperSim) check(r *repResult) {
	r.attempted += len(paperApps)
	if len(w.traces) != len(paperApps) {
		r.failed += len(paperApps)
		r.fail("simulations did not finish")
		return
	}
	var simNs, msgs float64
	digests := make([]uint64, len(w.traces))
	for i, t := range w.traces {
		m := w.machines[i]
		delivered := m.Network().Stats().MessagesSent - uint64(m.NetworkInFlight())
		if uint64(len(t.Records)) != delivered {
			r.failed++
			r.fail("%s: trace holds %d records, the network delivered %d messages", t.App, len(t.Records), delivered)
		}
		digests[i] = digest(t)
		simNs += float64(m.Engine().Now())
		msgs += float64(len(t.Records))
	}
	w.model.compare(r, len(paperApps), simNs, msgs, digests)
}

// paperTables is the cosmos-tables -trace-cache DIR -table 5 and -table
// 6 flow: the traces are simulated into a cache once per run, and each
// repetition loads them into a fresh Suite (setup) and renders both
// tables' data at the default pool width (op).
type paperTables struct {
	cfg    experiments.Config
	seed   int64
	tmp    string
	golden bool

	dir     string
	files   int
	digests []uint64
	simNs   float64
	records float64

	suite  *experiments.Suite
	rows5  []experiments.Table5Row
	rows6  []experiments.Table6Row
	first5 []experiments.Table5Row
	first6 []experiments.Table6Row
}

func (w *paperTables) prepare() error {
	var err error
	if w.dir, err = os.MkdirTemp(w.tmp, "paper-tables-"); err != nil {
		return err
	}
	w.cfg.TraceCache = w.dir
	w.cfg.Workers = tablesWorkers
	apps, err := seededApps(w.cfg, paperApps, w.seed)
	if err != nil {
		return err
	}
	cache := tracecache.Cache{Dir: w.dir}
	for _, a := range apps {
		m, err := newMachine(w.cfg, a, nil)
		if err != nil {
			return err
		}
		rec := trace.NewRecorder(a.Name(), w.cfg.Machine.Nodes, a.PhasesPerIteration(), 0)
		if err := runMachine(m, a, rec, "", nil); err != nil {
			return err
		}
		t := rec.Trace()
		if err := cache.Store(traceKey(w.cfg, a.Name()), t); err != nil {
			return err
		}
		w.digests = append(w.digests, digest(t))
		w.simNs += float64(m.Engine().Now())
		w.records += float64(len(t.Records))
	}
	w.files, err = countFiles(w.dir)
	return err
}

func countFiles(dir string) (int, error) {
	ents, err := os.ReadDir(dir)
	return len(ents), err
}

func (w *paperTables) reset() error {
	w.suite, w.rows5, w.rows6 = nil, nil, nil
	return nil
}

func (w *paperTables) setup(tr *tracer) error {
	w.suite = experiments.NewSuite(w.cfg)
	var before uint64
	if tr != nil {
		before = totalAlloc()
	}
	for _, name := range paperApps {
		tr.begin("tracecache.load")
		_, err := w.suite.Trace(name)
		tr.end()
		if err != nil {
			return err
		}
	}
	if tr != nil {
		tr.count("tracecache.load_alloc_mib", mib(totalAlloc()-before))
	}
	return nil
}

func (w *paperTables) units() int { return 2 }

// op renders Table 5's data (unit 0) or Table 6's (unit 1).
func (w *paperTables) op(tr *tracer, unit int) error {
	var err error
	if unit == 1 {
		tr.begin("experiments.table6")
		w.rows6, err = experiments.Table6(w.suite)
		tr.end()
		return err
	}
	if tr != nil {
		// The sharded evaluations build each trace's partition lazily;
		// building it up front lets the traced run time it on its own.
		for _, name := range paperApps {
			t, _ := w.suite.Trace(name)
			tr.begin("trace.partition")
			t.Partition()
			tr.end()
		}
	}
	tr.begin("experiments.table5")
	w.rows5, err = experiments.Table5(w.suite)
	tr.end()
	return err
}

// probe times one depth-1 evaluation per trace call by call, for the
// stats and core figures the table drivers hide.
func (w *paperTables) probe(tr *tracer) error {
	var acc float64
	for _, name := range paperApps {
		t, err := w.suite.Trace(name)
		if err != nil {
			return err
		}
		before := totalAlloc()
		tr.begin("stats.evaluate")
		res, err := stats.Evaluate(t, core.Config{Depth: 1}, stats.Options{Workers: tablesWorkers})
		tr.end()
		if err != nil {
			return err
		}
		tr.count("stats.evaluate_alloc_mib", mib(totalAlloc()-before))
		tr.count("stats.records", float64(len(t.Records)))
		tr.count("core.pht_entries", float64(res.Memory.PHTEntries))
		tr.count("core.mhr_entries", float64(res.Memory.MHREntries))
		acc += 100 * res.Overall.Accuracy()
	}
	tr.count("core.accuracy_pct", acc/float64(len(paperApps)))
	return nil
}

func (w *paperTables) check(r *repResult) {
	const evals = 20 + 30 // Table 5 cells + Table 6 cells
	r.attempted += evals
	before := len(r.failures)
	if w.rows5 == nil || w.rows6 == nil {
		r.fail("tables not produced")
	}
	if n, err := countFiles(w.dir); err != nil || n != w.files {
		r.fail("the Suite missed the trace cache and re-simulated (cache holds %d entries, prepared %d)", n, w.files)
	}
	for i, name := range paperApps {
		if t, err := w.suite.Trace(name); err != nil || digest(t) != w.digests[i] {
			r.fail("%s: loaded trace differs from the prepared one", name)
		}
	}
	if w.golden && w.seed == 0 && len(r.failures) == before {
		var b5, b6 bytes.Buffer
		// cosmos-tables ends every table with a blank line.
		report.Table5(&b5, w.rows5)
		b5.WriteByte('\n')
		report.Table6(&b6, w.rows6)
		b6.WriteByte('\n')
		for _, g := range []struct {
			file string
			got  []byte
		}{{"table5.txt", b5.Bytes()}, {"table6.txt", b6.Bytes()}} {
			if want, err := goldenFiles.ReadFile("golden/" + g.file); err != nil || !bytes.Equal(g.got, want) {
				r.fail("seed 0 output differs from cosmos-tables -scale full (golden/%s)", g.file)
			}
		}
	}
	if w.first5 == nil {
		w.first5, w.first6 = w.rows5, w.rows6
	} else if !reflect.DeepEqual(w.rows5, w.first5) || !reflect.DeepEqual(w.rows6, w.first6) {
		r.fail("table rows differ from the first repetition's")
	}
	if len(r.failures) > before {
		r.failed += evals
	}
	r.simNs, r.messages = w.simNs, w.records
}

// scale1024 is the streamed evaluation of barnes and moldyn on a
// 1024-node torus with the limited-pointer directory: each app's capture
// streams into an unlinked file and is evaluated back in windows,
// exactly as Suite.EvaluateStreamed does, but call by call so the seeded
// processor assignment reaches the machine.
type scale1024 struct {
	cfg  experiments.Config
	seed int64
	tmp  string

	ref      []*stats.Result
	prepFail []string
	apps     []*seededApp
	machines []*machine.Machine
	files    []*os.File
	results  []*stats.Result
	records  []uint64
	model    modelled
}

var scaleApps = []string{"barnes", "moldyn"}

// prepare computes the reference results the streamed ones must equal:
// the batch path (materialized trace, stats.Evaluate) for every seed,
// and at seed 0 also Suite.EvaluateStreamed itself.
func (w *scale1024) prepare() error {
	apps, err := seededApps(w.cfg, scaleApps, w.seed)
	if err != nil {
		return err
	}
	for i, a := range apps {
		m, err := newMachine(w.cfg, a, nil)
		if err != nil {
			return err
		}
		rec := trace.NewRecorder(a.Name(), w.cfg.Machine.Nodes, a.PhasesPerIteration(), 0)
		if err := runMachine(m, a, rec, "", nil); err != nil {
			return err
		}
		res, err := stats.Evaluate(rec.Trace(), core.Config{Depth: 1}, stats.Options{})
		if err != nil {
			return err
		}
		w.ref = append(w.ref, res)
		if w.seed == 0 {
			got, err := experiments.NewSuite(w.cfg).EvaluateStreamed(scaleApps[i], core.Config{Depth: 1}, stats.StreamOptions{})
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(got, res) {
				w.prepFail = append(w.prepFail, scaleApps[i]+": Suite.EvaluateStreamed differs from the batch evaluation")
			}
		}
	}
	return nil
}

func (w *scale1024) reset() error {
	for _, f := range w.files {
		f.Close() // left open only by a failed repetition
	}
	w.machines, w.files, w.results, w.records = nil, nil, nil, nil
	return nil
}

func (w *scale1024) setup(tr *tracer) error {
	apps, err := seededApps(w.cfg, scaleApps, w.seed)
	if err != nil {
		return err
	}
	w.apps = apps
	for _, a := range apps {
		m, err := newMachine(w.cfg, a, tr)
		if err != nil {
			return err
		}
		w.machines = append(w.machines, m)
	}
	return nil
}

// timedSource charges every RecordSource.Next call to an aggregate span.
type timedSource struct {
	inner stats.RecordSource
	tr    *tracer
	agg   int
}

func (s *timedSource) Next(buf []trace.Record) (int, error) {
	t0 := time.Now()
	n, err := s.inner.Next(buf)
	s.tr.add(s.agg, time.Since(t0))
	return n, err
}

func (w *scale1024) units() int { return 2 * len(scaleApps) }

// op runs unit u: an even unit simulates app u/2, streaming its capture
// into an unlinked file; the odd unit after it reads the capture back
// and evaluates it.
func (w *scale1024) op(tr *tracer, u int) error {
	if u%2 == 0 {
		return w.capture(tr, w.machines[u/2], w.apps[u/2])
	}
	f := w.files[u/2]
	defer f.Close()
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	tr.begin("trace.stream_read")
	sr, err := trace.NewStreamReader(f)
	tr.end()
	if err != nil {
		return err
	}
	var src stats.RecordSource = sr
	tr.begin("stats.evaluate_stream")
	defer tr.end()
	if tr != nil {
		src = &timedSource{inner: sr, tr: tr, agg: tr.aggregate("trace.stream_read")}
	}
	res, err := stats.EvaluateStream(src, sr.App(), sr.Nodes(), core.Config{Depth: 1}, stats.StreamOptions{})
	if err != nil {
		return err
	}
	w.results = append(w.results, res)
	return nil
}

func (w *scale1024) capture(tr *tracer, m *machine.Machine, app *seededApp) error {
	f, err := os.CreateTemp(w.tmp, "stream-*.ctrc")
	if err != nil {
		return err
	}
	w.files = append(w.files, f)
	os.Remove(f.Name()) // the open descriptor keeps the capture alive
	sw, err := trace.NewStreamWriter(f, app.Name(), w.cfg.Machine.Nodes)
	if err != nil {
		return err
	}
	rec := trace.NewStreamRecorder(sw, app.PhasesPerIteration(), 0)
	if err := runMachine(m, app, rec, "trace.stream_write", tr); err != nil {
		return err
	}
	tr.begin("trace.stream_write")
	err = rec.Close()
	tr.end()
	if err != nil {
		return err
	}
	w.records = append(w.records, sw.Count())
	if tr != nil {
		if st, err := f.Stat(); err == nil {
			tr.count("trace.stream_mib", mib(uint64(st.Size())))
		}
	}
	return nil
}

func (w *scale1024) probe(tr *tracer) error {
	var acc float64
	for i, m := range w.machines {
		machineCounts(m, w.cfg.Machine.Nodes, tr)
		acc += 100 * w.results[i].Overall.Accuracy()
	}
	tr.count("core.accuracy_pct", acc/float64(len(w.results)))
	return nil
}

func (w *scale1024) check(r *repResult) {
	r.attempted += len(scaleApps)
	if w.prepFail != nil {
		// A reference mismatch found while preparing is charged once.
		r.attempted += len(w.prepFail)
		r.failed += len(w.prepFail)
		r.failures = append(r.failures, w.prepFail...)
		w.prepFail = nil
	}
	if len(w.results) != len(scaleApps) {
		r.failed += len(scaleApps)
		r.fail("streamed evaluation did not finish")
		return
	}
	var simNs, msgs float64
	for i, res := range w.results {
		if !reflect.DeepEqual(res, w.ref[i]) {
			r.failed++
			r.fail("%s: streamed result differs from the batch evaluation", scaleApps[i])
		}
		simNs += float64(w.machines[i].Engine().Now())
		msgs += float64(w.records[i])
	}
	w.model.compare(r, len(scaleApps), simNs, msgs, nil)
}

// serveSLO is the BenchmarkServeSLO deployment scaled up: 4 streams of
// seeded observations offered open-loop every GapNs of simulated time
// over a lossy, jittery wire, with one kill-and-restore at the simulated
// midpoint. Every response is checked against the transport-free oracle.
type serveSLO struct {
	seed int64
	obs  int
	tmp  string

	work     [][]serve.Obs
	pcfg     core.Config
	oracle   [][]serve.Response
	snaps    [][]byte
	killAt   sim.Time
	tearFrac float64

	dir      string
	c        *serve.Cluster
	runErr   error
	pre      serve.Stats
	preTr    uint64
	preRetx  uint64
	preDups  uint64
	preSimNs sim.Time
	model    modelled
	lats     []uint64
}

const (
	serveStreams = 4
	serveGapNs   = 200 // the harness default pacing
)

func (w *serveSLO) prepare() error {
	// Seed 0 reproduces BenchmarkServeSLO's inputs (workload seed 1,
	// fault-plan seed 2).
	w.work = serve.GenWorkload(w.seed+1, serveStreams, w.obs)
	w.pcfg = core.Config{Depth: 2, FilterMax: 1}
	for _, obs := range w.work {
		resp, snap, err := serve.Oracle(w.pcfg, obs)
		if err != nil {
			return err
		}
		w.oracle = append(w.oracle, resp)
		w.snaps = append(w.snaps, snap)
	}
	w.killAt = sim.Time(w.obs) * serveGapNs / 2
	w.tearFrac = float64(splitmix(uint64(w.seed))>>11) / (1 << 53)
	return nil
}

func (w *serveSLO) reset() error {
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
	w.c, w.runErr = nil, nil
	var err error
	w.dir, err = os.MkdirTemp(w.tmp, "serve-")
	return err
}

func (w *serveSLO) setup(tr *tracer) error {
	tr.begin("serve.new")
	defer tr.end()
	c, err := serve.NewCluster(serve.HarnessConfig{
		Dir: w.dir,
		Server: serve.Config{
			Predictor:     w.pcfg,
			SnapshotEvery: 64,
		},
		Plan:  faults.Plan{Seed: uint64(w.seed) + 2, DropProb: 0.01, JitterNs: 100},
		GapNs: serveGapNs,
	}, w.work)
	w.c = c
	return err
}

func (w *serveSLO) units() int { return 3 }

// op runs unit u: serving up to the kill (0), the kill and the restore
// from the store (1), serving to the end (2).
func (w *serveSLO) op(tr *tracer, u int) error {
	c := w.c
	switch u {
	case 0:
		tr.begin("serve.run")
		c.Eng.RunUntil(w.killAt)
		tr.end()
		w.pre, w.preSimNs = c.Srv.Stats(), c.Eng.Now()
		ts := c.Tr.Stats()
		w.preTr, w.preRetx, w.preDups = ts.DataSent, ts.Retransmits, ts.DupsDiscarded
		return nil
	case 1:
		tr.begin("serve.kill")
		err := c.Kill(w.killAt, w.tearFrac)
		tr.end()
		if err != nil {
			return err
		}
		tr.begin("serve.recover")
		defer tr.end()
		return c.Restart()
	}
	tr.begin("serve.run")
	w.runErr = c.Run()
	tr.end()
	return nil
}

func (w *serveSLO) probe(tr *tracer) error {
	c := w.c
	post := c.Srv.Stats()
	ts := c.Tr.Stats()
	applied := w.pre.Applied + post.Applied
	tr.count("serve.applied", float64(applied))
	tr.count("serve.shed", float64(sum(w.pre.Shed)+sum(post.Shed)))
	tr.count("serve.timed_out", float64(sum(w.pre.TimedOut)+sum(post.TimedOut)))
	tr.count("serve.dropped", float64(sum(w.pre.Dropped)+sum(post.Dropped)))
	tr.count("serve.checkpoints", float64(w.pre.Checkpoints+post.Checkpoints))
	tr.count("serve.max_queue_depth", float64(max(w.pre.MaxQueueDepth, post.MaxQueueDepth)))
	tr.count("reliable.retransmits", float64(w.preRetx+ts.Retransmits))
	tr.count("reliable.dups_discarded", float64(w.preDups+ts.DupsDiscarded))
	if applied > 0 {
		tr.count("core.accuracy_pct", 100*float64(w.pre.PredHits+post.PredHits)/float64(applied))
	}
	tr.count("serve.p50_latency_ns", percentile(w.lats, 0.50))
	tr.count("serve.p99_latency_ns", percentile(w.lats, 0.99))
	size, err := dirSize(w.dir)
	tr.count("serve.store_mib", mib(uint64(size)))
	return err
}

func sum(xs []uint64) uint64 {
	var s uint64
	for _, x := range xs {
		s += x
	}
	return s
}

// percentile returns the nearest-rank q-quantile of sorted xs.
func percentile(sorted []uint64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)])
}

func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

func (w *serveSLO) check(r *repResult) {
	offered := serveStreams * w.obs
	r.attempted += offered
	c := w.c
	before := len(r.failures)
	switch {
	case c == nil || c.Srv == nil:
		r.fail("deployment did not come back after the kill")
	case w.runErr != nil:
		r.fail("restored deployment did not finish: %v", w.runErr)
	default:
		for i, cl := range c.Clients {
			if !reflect.DeepEqual(cl.Recv, w.oracle[i]) {
				r.fail("stream %d: responses diverge from the oracle", i)
			}
			if !bytes.Equal(c.Srv.PredictorSnapshot(i), w.snaps[i]) {
				r.fail("stream %d: final predictor differs from the oracle's", i)
			}
		}
	}
	if len(r.failures) > before {
		r.failed += offered
		return
	}
	post := c.Srv.Stats()
	lost := sum(w.pre.Shed) + sum(post.Shed) + sum(w.pre.TimedOut) + sum(post.TimedOut) +
		sum(w.pre.Dropped) + sum(post.Dropped)
	r.failed += int(min(lost, uint64(offered)))
	w.lats = w.lats[:0]
	for _, cl := range c.Clients {
		w.lats = append(w.lats, cl.LatNs...)
	}
	slices.Sort(w.lats)
	simNs := float64(w.preSimNs) + float64(c.Eng.Now())
	msgs := float64(w.preTr + c.Tr.Stats().DataSent)
	w.model.compare(r, offered, simNs, msgs, [2]float64{percentile(w.lats, 0.5), percentile(w.lats, 0.99)})
}
