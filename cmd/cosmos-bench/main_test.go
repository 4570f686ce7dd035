package main

import (
	"runtime"
	"strings"
	"testing"
)

const (
	rowA = "example.com/m.BenchmarkA allocs/op"
	rowB = "example.com/m.BenchmarkB events"
)

func baseline(values map[string]float64) Baseline {
	return Baseline{Go: runtime.Version(), Values: values}
}

func TestCheckWithinBound(t *testing.T) {
	base := baseline(map[string]float64{rowA: 1000, rowB: 72.17})
	for _, v := range []float64{1000, 1000 * (1 + bound/2), 1000 * (1 - bound/2)} {
		got := baseline(map[string]float64{rowA: v, rowB: 72.17})
		if err := check(base, got); err != nil {
			t.Errorf("allocs/op %g against 1000: %v", v, err)
		}
	}
}

func TestCheckBeyondBound(t *testing.T) {
	base := baseline(map[string]float64{rowA: 1000, rowB: 72.17})
	for _, v := range []float64{1000 * (1 + 2*bound), 1000 * (1 - 2*bound)} {
		got := baseline(map[string]float64{rowA: v, rowB: 72.17})
		err := check(base, got)
		if err == nil {
			t.Fatalf("allocs/op %g against 1000 passed", v)
		}
		if !strings.Contains(err.Error(), rowA) || strings.Contains(err.Error(), rowB) {
			t.Errorf("error names the wrong rows: %v", err)
		}
	}
}

func TestCheckZeroBaseline(t *testing.T) {
	base := baseline(map[string]float64{rowA: 0})
	if err := check(base, baseline(map[string]float64{rowA: 0})); err != nil {
		t.Fatalf("0 against 0: %v", err)
	}
	for _, v := range []float64{1, 1e-9, -1} {
		if err := check(base, baseline(map[string]float64{rowA: v})); err == nil {
			t.Errorf("%g against a baseline of 0 passed", v)
		}
	}
}

func TestCheckMissingRow(t *testing.T) {
	both := map[string]float64{rowA: 1, rowB: 2}
	only := map[string]float64{rowA: 1}
	for _, tc := range []struct {
		name      string
		base, got map[string]float64
		want      string
	}{
		{"missing from run", both, only, rowB + ": missing from this run"},
		{"missing from baseline", only, both, rowB + ": not in the baseline"},
	} {
		err := check(baseline(tc.base), baseline(tc.got))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want it to contain %q", tc.name, err, tc.want)
		}
	}
}

func TestCheckGoRelease(t *testing.T) {
	base := Baseline{Go: "go1.0.0", Values: map[string]float64{rowA: 1}}
	err := check(base, baseline(map[string]float64{rowA: 1}))
	if err == nil {
		t.Fatal("baseline from another Go release passed")
	}
	for _, want := range []string{"go1.0.0", runtime.Version()} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

func TestParseQualifiesByPackage(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: example.com/m
cpu: Test CPU
BenchmarkTable5/serial   	       1	   5067452 ns/op	        72.17 appbt_d1_%	  539320 B/op	    1333 allocs/op
BenchmarkSetBytes        	       1	       100 ns/op	   1.5 MB/s	       0 B/op	       0 allocs/op
PASS
ok  	example.com/m	0.383s
?   	example.com/m/cmd	[no test files]
goos: linux
goarch: amd64
pkg: example.com/m/internal/workload
cpu: Test CPU
BenchmarkTable5/serial   	       1	    510899 ns/op	       0 B/op	       0 allocs/op
PASS
`
	values, rows := parse(out)
	if rows != 3 {
		t.Errorf("rows = %d, want 3", rows)
	}
	want := map[string]float64{
		"example.com/m.BenchmarkTable5/serial appbt_d1_%":                  72.17,
		"example.com/m.BenchmarkTable5/serial B/op":                        539320,
		"example.com/m.BenchmarkTable5/serial allocs/op":                   1333,
		"example.com/m.BenchmarkSetBytes B/op":                             0,
		"example.com/m.BenchmarkSetBytes allocs/op":                        0,
		"example.com/m/internal/workload.BenchmarkTable5/serial B/op":      0,
		"example.com/m/internal/workload.BenchmarkTable5/serial allocs/op": 0,
	}
	if len(values) != len(want) {
		t.Errorf("parsed %d values, want %d (host-time units are dropped): %v", len(values), len(want), values)
	}
	for k, v := range want {
		if got, ok := values[k]; !ok || got != v {
			t.Errorf("%s = %v (present %v), want %v", k, got, ok, v)
		}
	}
}
