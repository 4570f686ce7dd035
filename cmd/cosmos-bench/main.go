// Command cosmos-bench is the count gate over every benchmark in the
// module. It runs each Benchmark* once in a fixed environment and
// compares B/op, allocs/op and every custom metric (accuracies,
// message and event counts, simulated latencies) with the committed
// BENCH_BASELINE.json. A value that moves beyond one relative bound in
// either direction fails the gate, so an improvement forces a baseline
// refresh instead of leaving slack behind it. Wall time is not gated
// here: perfbench samples it repeatedly.
//
// Usage (from the module root):
//
//	cosmos-bench           # run and compare; exit 1 on any move
//	cosmos-bench -update   # run and refresh the values that moved
//
// The environment is fixed because allocation counts are not
// deterministic at default runtime settings: the sync.Pools in
// internal/stats are per-P and emptied by every GC, so a row's allocs/op
// depends on how many Ps there are and when the collector runs. With
// one P and no collection, every value repeats from run to run.
// The settings reach only the test binaries (through go test -exec);
// the build itself runs with the caller's, since a compile without a
// collector needs twice the memory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

const (
	baselinePath = "BENCH_BASELINE.json"
	// bound is the largest relative move a value may make. Repeated runs
	// in the fixed environment reproduce 93 of the 108 values exactly
	// and the rest to within 0.13% (BenchmarkServeSLO B/op).
	bound = 0.01
	// childEnv prefixes each test binary: small-scale workloads, one P,
	// no GC, and no trace cache, so the suite simulates what it measures.
	childEnv = "env -u COSMOS_TRACE_CACHE COSMOS_BENCH_SCALE=small GOMAXPROCS=1 GOGC=off"
)

// Baseline is the committed file: the Go release that produced the
// values (allocation counts move between releases) and one flat map
// keyed "<package>.<benchmark> <unit>".
type Baseline struct {
	Go     string             `json:"go"`
	Values map[string]float64 `json:"values"`
}

func main() {
	update := flag.Bool("update", false, "refresh "+baselinePath+" from this run instead of comparing with it: rewrite only the values that moved beyond the bound and the rows that appeared or disappeared")
	flag.Parse()
	if err := run(*update); err != nil {
		fmt.Fprintln(os.Stderr, "cosmos-bench:", err)
		os.Exit(1)
	}
}

func run(update bool) error {
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", ".", "-benchmem",
		"-benchtime", "1x", "-exec", childEnv, "./...")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go test -bench: %w\n%s", err, out)
	}
	values, rows := parse(string(out))
	if rows == 0 {
		return fmt.Errorf("no benchmark result lines in go test output")
	}
	got := Baseline{Go: runtime.Version(), Values: values}

	var base Baseline
	data, err := os.ReadFile(baselinePath)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &base); err != nil {
			return fmt.Errorf("%s: %w", baselinePath, err)
		}
	case !update || !errors.Is(err, fs.ErrNotExist):
		return err
	}
	if update {
		merged, moved := merge(base, got)
		data, err := json.MarshalIndent(&merged, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(baselinePath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("cosmos-bench: %d value(s) moved beyond %g%%, appeared or disappeared; wrote %s\n",
			len(moved), 100*bound, baselinePath)
		for _, m := range moved {
			fmt.Println("  " + m)
		}
		return nil
	}
	if err := check(base, got); err != nil {
		return err
	}
	fmt.Printf("cosmos-bench: %d rows, %d values within %g%% of %s\n", rows, len(values), 100*bound, baselinePath)
	return nil
}

// beyond reports whether v moved beyond bound from want. A baseline of
// 0 therefore admits only 0.
func beyond(v, want float64) bool { return math.Abs(v-want) > bound*math.Abs(want) }

// merge is the baseline -update writes: the run's rows and Go release,
// but a value the run reproduced to within bound keeps its baseline
// figure, so a refresh rewrites only what really moved rather than
// every row's run-to-run jitter. It also returns one sorted line per
// value that moved, appeared or disappeared.
func merge(base, got Baseline) (Baseline, []string) {
	out := Baseline{Go: got.Go, Values: make(map[string]float64, len(got.Values))}
	var moved []string
	for k, v := range got.Values {
		want, ok := base.Values[k]
		switch {
		case !ok:
			moved = append(moved, fmt.Sprintf("%s: new, %.10g", k, v))
		case beyond(v, want):
			moved = append(moved, fmt.Sprintf("%s: %.10g -> %.10g", k, want, v))
		default:
			v = want
		}
		out.Values[k] = v
	}
	for k, want := range base.Values {
		if _, ok := got.Values[k]; !ok {
			moved = append(moved, fmt.Sprintf("%s: removed, was %.10g", k, want))
		}
	}
	sort.Strings(moved)
	return out, moved
}

// parse reads multi-package `go test -bench -benchmem` output into
// values keyed by package-qualified row and unit, and counts the rows.
// ns/op and MB/s are host time, which perfbench measures instead.
func parse(out string) (map[string]float64, int) {
	values := make(map[string]float64)
	rows, pkg := 0, ""
	for _, line := range strings.Split(out, "\n") {
		if p, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(p)
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		rows++
		for i := 2; i < len(f); i += 2 {
			if f[i+1] == "ns/op" || f[i+1] == "MB/s" {
				continue
			}
			if v, err := strconv.ParseFloat(f[i], 64); err == nil {
				values[pkg+"."+f[0]+" "+f[i+1]] = v
			}
		}
	}
	return values, rows
}

// check fails when the run used another Go release than the baseline,
// or when any value is missing from either side or moved beyond bound.
func check(base, got Baseline) error {
	if base.Go != got.Go {
		return fmt.Errorf("%s was captured with %s but this is %s; run the gate under %s or refresh with -update",
			baselinePath, base.Go, got.Go, base.Go)
	}
	var bad []string
	for k, want := range base.Values {
		v, ok := got.Values[k]
		if !ok {
			bad = append(bad, k+": missing from this run")
		} else if beyond(v, want) {
			bad = append(bad, fmt.Sprintf("%s: %.10g, baseline %.10g", k, v, want))
		}
	}
	for k := range got.Values {
		if _, ok := base.Values[k]; !ok {
			bad = append(bad, k+": not in the baseline")
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("%d value(s) disagree with %s (bound %g%%; refresh with -update if the change is intended):\n  %s",
		len(bad), baselinePath, 100*bound, strings.Join(bad, "\n  "))
}
