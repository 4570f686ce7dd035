// Command perfbench is the repository's benchmark: four workloads that
// together cover every layer of the reproduction, an untraced run that
// reports the end-to-end metrics, and a traced run that reports each
// layer's figures. BENCHMARK.json at the repository root lists the
// metrics; metrics.go says what each one means, which end-to-end metric
// it should move and on which workload.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload paper-sim --seed 1 --seconds 25 --trace 0
//	perfbench --selfcheck --runs 10 --seconds 25
//
// A run prepares its inputs from the seed, then repeats the workload's
// operation until --seconds have passed (at least minReps times),
// draining the sync.Pools before each repetition so every repetition
// starts where a fresh process does. It prints one JSON line with every
// repetition's samples, then, as its last line, the result object.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"
)

// minReps is the fewest repetitions a run makes, however short
// --seconds is; host_user_s takes each unit's median of them.
const minReps = 3

// A repetition repeats a short set-up until it has timed about
// setupTarget seconds of it (at most maxSetupRounds times), so that
// setup_s, a median over every round of the run, rests on enough
// samples when the set-up takes milliseconds.
const (
	setupTarget    = 0.05
	maxSetupRounds = 16
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "", "workload: "+strings.Join(workloadNames, " | "))
		seed      = fs.Int64("seed", 0, "input seed (0 reproduces cosmos-tables and BenchmarkServeSLO)")
		seconds   = fs.Float64("seconds", 20, "how long to repeat the workload's operation")
		traced    = fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		out       = fs.String("out", ".bench_build", "directory for scratch files and span dumps")
		selfcheck = fs.Bool("selfcheck", false, "run every workload --runs times and print each end-to-end metric's spread beside its bound")
		runs      = fs.Int("runs", 10, "runs per workload for --selfcheck")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *selfcheck {
		return selfCheck(stdout, *runs, *seconds, *out)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	res, err := measure(*name, *seed, *seconds, *traced == 1, fullScale, *out)
	if err != nil {
		return err
	}
	detail, err := json.Marshal(res.detail)
	if err != nil {
		return err
	}
	last, err := json.Marshal(res.result)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n%s\n", detail, last)
	return nil
}

// result is the last output line, in the form the benchmark contract
// fixes.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sample is one repetition's measurements. Process CPU times cover
// every thread: the evaluation pool and the garbage collector too.
type sample struct {
	Traced bool `json:"traced"`
	// SetupS and SetupCPUS are the set-up rounds' wall and CPU
	// (user+system) seconds.
	SetupS    []float64 `json:"setup_s"`
	SetupCPUS []float64 `json:"setup_cpu_s"`
	// UnitsS, UnitsUserS and UnitsSysS split the operation by unit (see
	// bench.units) into wall, user CPU and system CPU seconds.
	UnitsS     []float64 `json:"units_s"`
	UnitsUserS []float64 `json:"units_user_s"`
	UnitsSysS  []float64 `json:"units_sys_s"`
	AllocMiB   float64   `json:"alloc_mib"`
	Allocs     float64   `json:"allocs"`
	PeakMiB    float64   `json:"peak_rss_mib"`
}

// detail is the line before the result: every repetition's samples,
// the failures found, and for a traced run the layer report.
type detail struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Reps     []sample           `json:"reps"`
	Failures []string           `json:"failures,omitempty"`
	Layers   map[string]float64 `json:"layer_self_s,omitempty"`
	Spans    string             `json:"spans,omitempty"`
}

type measured struct {
	result result
	detail detail
}

// drain empties the sync.Pools (a pool survives one collection in its
// victim cache), collects garbage and returns the freed memory to the
// OS, so a repetition starts from the heap and resident set a fresh
// process has. It then restarts the peak-RSS count, so peakRSSMiB reads
// the repetition's own peak.
func drain() {
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM; without it (older kernels,
	// no procfs) the peak covers the whole process.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// measure runs one workload for about seconds and derives its metrics.
func measure(name string, seed int64, seconds float64, traced bool, sc scaleCfg, out string) (*measured, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	// Library code that makes temporary files (Suite.EvaluateStreamed)
	// must write inside the run's directory too.
	if old, ok := os.LookupEnv("TMPDIR"); ok {
		defer os.Setenv("TMPDIR", old)
	} else {
		defer os.Unsetenv("TMPDIR")
	}
	if err := os.Setenv("TMPDIR", tmp); err != nil {
		return nil, err
	}
	w, err := newBench(name, seed, sc, tmp)
	if err != nil {
		return nil, err
	}
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("%s: preparing inputs: %w", name, err)
	}

	m := &measured{detail: detail{Workload: name, Seed: seed}}
	var (
		r        repResult
		best     *tracer
		bestHost float64
		rounds   = 1
	)
	start := time.Now()
	for i := 0; ; i++ {
		// A traced run alternates untraced and traced repetitions, so
		// the tracing overhead is measured under the same host speed.
		isTraced := traced && i%2 == 1
		var tr *tracer
		if isTraced {
			tr = newTracer()
		}
		s, err := repetition(w, tr, &r, rounds)
		if err != nil {
			// The repetition's operations never reached their check.
			r.attempted++
			r.failed++
			r.fail("%v", err)
			break
		}
		m.detail.Reps = append(m.detail.Reps, s)
		if i == 0 {
			rounds = min(maxSetupRounds, max(1, int(math.Ceil(setupTarget/s.SetupS[0]))))
		}
		if isTraced && (best == nil || sumOf(s.UnitsS) < bestHost) {
			best, bestHost = tr, sumOf(s.UnitsS)
		}
		// Stop when one more repetition, at the run's average pace,
		// would end past --seconds.
		n := len(m.detail.Reps)
		elapsed := time.Since(start).Seconds()
		if elapsed*float64(n+1)/float64(n) > seconds && n >= minReps && (!traced || n >= 2*2) {
			break
		}
	}
	m.detail.Failures = r.failures
	// Several checks can fail the same operation; count it once.
	r.failed = min(r.failed, r.attempted)

	untraced := pick(m.detail.Reps, false)
	if len(untraced) == 0 {
		return nil, fmt.Errorf("%s: no repetition finished: %s", name, strings.Join(r.failures, "; "))
	}
	m.result = result{
		Correct:   len(r.failures) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	var (
		wall = func(s sample) []float64 { return s.UnitsS }
		user = func(s sample) []float64 { return s.UnitsUserS }
		sys  = func(s sample) []float64 { return s.UnitsSysS }
	)
	if !traced {
		set := func(n string, v float64) { m.result.Metrics[n] = metric{v, unitOf(n)} }
		set("host_user_s", unitMedians(untraced, user))
		// Every set-up round of the run is one sample.
		var setups []float64
		for _, s := range untraced {
			setups = append(setups, s.SetupCPUS...)
		}
		slices.Sort(setups)
		set("setup_s", median(setups))
		set("alloc_mib", medianOf(untraced, func(s sample) float64 { return s.AllocMiB }))
		set("allocs", medianOf(untraced, func(s sample) float64 { return s.Allocs }))
		set("peak_rss_mib", medianOf(untraced, func(s sample) float64 { return s.PeakMiB }))
		set("sim_ns", r.simNs)
		set("messages", r.messages)
		set("ok_pct", 100*float64(r.attempted-r.failed)/float64(r.attempted))
		return m, nil
	}

	if best == nil {
		return nil, errors.New("traced run made no traced repetition")
	}
	self := best.selfTimes()
	m.detail.Layers = layerSelf(self)
	spans := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.json", name, seed))
	if err := best.writeJSON(spans); err != nil {
		return nil, err
	}
	m.detail.Spans = spans
	for _, d := range perLayer {
		var v float64
		switch {
		case d.name == "bench.traced_host_s":
			v = best.rootTime("bench.op")
		case d.name == "bench.glue_pct":
			v = 100 * self["bench.op"] / best.rootTime("bench.op")
		case d.name == "bench.trace_overhead_s":
			v = unitMedians(pick(m.detail.Reps, true), wall) - unitMedians(untraced, wall)
		case d.name == "bench.wall_s":
			v = unitMedians(untraced, wall)
		case d.name == "bench.sys_s":
			v = unitMedians(untraced, sys)
		case d.name == "bench.parallelism":
			v = medianOf(untraced, func(s sample) float64 {
				return (sumOf(s.UnitsUserS) + sumOf(s.UnitsSysS)) / sumOf(s.UnitsS)
			})
		case d.name == "sim.events_per_message":
			if msgs := best.counts["network.messages"]; msgs > 0 {
				v = best.counts["sim.events"] / msgs
			}
		case d.name == "core.ns_per_record":
			if recs := best.counts["stats.records"]; recs > 0 {
				v = 1e9 * self["stats.evaluate"] / recs
			}
		case d.unit == "s":
			v = self[strings.TrimSuffix(d.name, "_s")]
		default:
			v = best.counts[d.name]
		}
		m.result.Metrics[d.name] = metric{v, d.unit}
	}
	return m, nil
}

// repetition runs one repetition: the set-up rounds, each after an
// untimed reset and drain, then the operation's units, each after a
// garbage collection, then the output check and, traced, the probe.
// Only the last round's set-up feeds the operation.
func repetition(w bench, tr *tracer, r *repResult, rounds int) (sample, error) {
	var (
		before, after runtime.MemStats
		s             sample
	)
	for k := 0; k < rounds; k++ {
		if err := w.reset(); err != nil {
			return sample{}, err
		}
		drain()
		runtime.ReadMemStats(&before)
		last := k == rounds-1
		if last {
			tr.begin("bench.setup")
		}
		c0 := readClock()
		err := w.setup(tracerIf(last, tr))
		c1 := readClock()
		if last {
			tr.end()
		}
		if err != nil {
			return sample{}, err
		}
		s.SetupS = append(s.SetupS, c1.wall.Sub(c0.wall).Seconds())
		s.SetupCPUS = append(s.SetupCPUS, c1.user+c1.sys-c0.user-c0.sys)
	}
	n := w.units()
	s.Traced = tr != nil
	s.UnitsS, s.UnitsUserS, s.UnitsSysS = make([]float64, n), make([]float64, n), make([]float64, n)
	var err error
	for i := 0; i < n; i++ {
		// Collect the garbage the set-up or the previous unit left,
		// outside the timings, so no unit pays for another's.
		runtime.GC()
		tr.begin("bench.op")
		c0 := readClock()
		err = w.op(tr, i)
		c1 := readClock()
		tr.end()
		if err != nil {
			return sample{}, err
		}
		s.UnitsS[i] = c1.wall.Sub(c0.wall).Seconds()
		s.UnitsUserS[i] = c1.user - c0.user
		s.UnitsSysS[i] = c1.sys - c0.sys
	}
	runtime.ReadMemStats(&after)
	s.PeakMiB = peakRSSMiB()
	s.AllocMiB = mib(after.TotalAlloc - before.TotalAlloc)
	s.Allocs = float64(after.Mallocs - before.Mallocs)
	w.check(r)
	if tr != nil {
		tr.begin("bench.probe")
		err = w.probe(tr)
		tr.end()
		if err != nil {
			return sample{}, err
		}
	}
	return s, nil
}

// tracerIf returns tr if on, else the untraced nil tracer.
func tracerIf(on bool, tr *tracer) *tracer {
	if on {
		return tr
	}
	return nil
}

func sumOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// unitMedians sums, over the operation's units, each unit's median
// time across reps (units picks wall, user or system times). The host's
// memory system is shared with other machines' work, so a unit runs
// faster or slower by tens of percent from one repetition to the next,
// in both directions; the median of each short unit is steadier from
// run to run than the fastest pass or than one pass of the whole
// operation.
func unitMedians(reps []sample, units func(sample) []float64) float64 {
	var s float64
	for i := range units(reps[0]) {
		s += medianOf(reps, func(r sample) float64 { return units(r)[i] })
	}
	return s
}

func pick(reps []sample, traced bool) []sample {
	var out []sample
	for _, s := range reps {
		if s.Traced == traced {
			out = append(out, s)
		}
	}
	return out
}

func values(reps []sample, f func(sample) float64) []float64 {
	v := make([]float64, len(reps))
	for i, s := range reps {
		v[i] = f(s)
	}
	slices.Sort(v)
	return v
}

func medianOf(reps []sample, f func(sample) float64) float64 {
	return median(values(reps, f))
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// clock is a reading of the wall clock and of the process's CPU time,
// all threads.
type clock struct {
	wall      time.Time
	user, sys float64
}

func readClock() clock {
	c := clock{wall: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.user = time.Duration(ru.Utime.Nano()).Seconds()
		c.sys = time.Duration(ru.Stime.Nano()).Seconds()
	}
	return c
}

// peakRSSMiB reads the process's peak resident set (VmHWM) since the
// last drain.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
