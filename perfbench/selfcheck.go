package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"text/tabwriter"
	"time"
)

// selfCheck runs each workload runs times, each with its own seed (0,
// 1, ..., so seed 0's check against cosmos-tables' output is among
// them), in a fresh process, and prints every end-to-end metric's median and its
// spread — the distance between the first and third quartile as a share
// of the median — beside the metric's bound. A spread under a third of
// the bound is steady.
func selfCheck(stdout io.Writer, runs int, seconds float64, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tspread\tbound\tsteady\t")
	for _, name := range workloadNames {
		vals := map[string][]float64{}
		for seed := 0; seed < runs; seed++ {
			cmd := exec.Command(exe, "--workload", name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", "0", "--out", out)
			cmd.Stderr = os.Stderr
			t0 := time.Now()
			b, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %.1f s\n", name, seed, time.Since(t0).Seconds())
			if err := os.WriteFile(filepath.Join(out, fmt.Sprintf("selfcheck-%s-seed%d.json", name, seed)), b, 0o644); err != nil {
				return err
			}
			res, err := lastResult(b)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: output check failed (%d of %d operations)", name, seed, res.Failed, res.Attempted)
			}
			for k, m := range res.Metrics {
				vals[k] = append(vals[k], m.Value)
			}
		}
		for _, d := range endToEnd {
			med, spread := spreadOf(vals[d.name])
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.4f\t%.2f\t%v\t\n", name, d.name, med, spread, d.bound, spread < d.bound/3)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// lastResult parses the result object on the last line of a run's
// standard output.
func lastResult(out []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var r result
	if err := json.Unmarshal(last, &r); err != nil {
		return r, fmt.Errorf("parsing result line %q: %w", last, err)
	}
	return r, nil
}

// spreadOf returns the median of xs and the interquartile range as a
// share of it, with quartiles computed as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method).
func spreadOf(xs []float64) (med, spread float64) {
	if len(xs) < 2 {
		return 0, 0
	}
	d := slices.Clone(xs)
	slices.Sort(d)
	med = median(d)
	q := func(i int) float64 {
		const n = 4
		m := len(d) + 1
		j := min(max(i*m/n, 1), len(d)-1)
		delta := float64(i*m - j*n)
		return (d[j-1]*(n-delta) + d[j]*delta) / n
	}
	if med == 0 {
		return 0, 0
	}
	return med, (q(3) - q(1)) / med
}
