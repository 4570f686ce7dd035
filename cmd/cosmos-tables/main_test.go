package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestByteIdenticalRuns pins the reproduction's headline determinism
// claim end to end: two identical invocations of the built binary must
// produce byte-identical output. The cosmosvet determinism analyzer
// enforces this statically; this test enforces it dynamically.
func TestByteIdenticalRuns(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "cosmos-tables")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	run := func() []byte {
		cmd := exec.Command(bin, "-scale", "small", "-table", "5")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%v: %v\n%s", cmd.Args, err, stderr.Bytes())
		}
		return stdout.Bytes()
	}

	first, second := run(), run()
	if len(first) == 0 {
		t.Fatal("run produced no output")
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("two identical runs diverged:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// TestOutputWorkerInvariance is the parallel engine's end-to-end
// byte-identity check: the full small-scale evaluation rendered with a
// single worker, with an 8-worker pool, and with a second 8-worker
// pool must produce exactly the same bytes. Everything the command
// prints flows through run's writer — tables, figures, and every
// extra — so any scheduling dependence anywhere in the experiment
// drivers shows up here. The serial render is also compared with
// testdata/small.golden, so a change that shifts every width alike
// still shows. Regenerate the golden file only for an intended change:
//
//	go run ./cmd/cosmos-tables -scale small -workers 1 > cmd/cosmos-tables/testdata/small.golden
func TestOutputWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the full small-scale evaluation three times")
	}
	render := func(workers string) []byte {
		var buf bytes.Buffer
		if err := run(&buf, []string{"-scale", "small", "-workers", workers}); err != nil {
			t.Fatalf("workers=%s: %v", workers, err)
		}
		return buf.Bytes()
	}
	serial := render("1")
	if len(serial) == 0 {
		t.Fatal("empty output")
	}
	golden, err := os.ReadFile("testdata/small.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden, serial) {
		t.Errorf("serial output differs from testdata/small.golden at %s", firstDiff(golden, serial))
	}
	parallel1 := render("8")
	parallel2 := render("8")
	if !bytes.Equal(serial, parallel1) {
		t.Errorf("serial and 8-worker outputs differ at %s", firstDiff(serial, parallel1))
	}
	if !bytes.Equal(parallel1, parallel2) {
		t.Errorf("two 8-worker runs differ at %s", firstDiff(parallel1, parallel2))
	}
}

// TestSingleSelections runs every single -table, -figure and -extra
// selection of the default render alone at small scale. Each must print
// a non-empty block that appears verbatim in testdata/small.golden, so
// a selection that renders nothing (say, an extraNames entry whose
// wantX string is misspelled) or renders differently alone fails here.
// scalesweep is not part of the default render and is left out.
func TestSingleSelections(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every selection of the small-scale evaluation")
	}
	golden, err := os.ReadFile("testdata/small.golden")
	if err != nil {
		t.Fatal(err)
	}
	var sels [][]string
	for n := 3; n <= 8; n++ {
		sels = append(sels, []string{"-table", fmt.Sprint(n)})
	}
	for n := 5; n <= 8; n++ {
		sels = append(sels, []string{"-figure", fmt.Sprint(n)})
	}
	for _, x := range extraNames {
		if x != "scalesweep" {
			sels = append(sels, []string{"-extra", x})
		}
	}
	// One cache across the selections, so each benchmark simulates once.
	dir := t.TempDir()
	for _, sel := range sels {
		t.Run(sel[0][1:]+"-"+sel[1], func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(&buf, append([]string{"-scale", "small", "-workers", "2", "-trace-cache", dir}, sel...)); err != nil {
				t.Fatal(err)
			}
			if len(bytes.TrimSpace(buf.Bytes())) == 0 {
				t.Fatalf("%v printed nothing", sel)
			}
			if !bytes.Contains(golden, buf.Bytes()) {
				t.Errorf("%v printed a block not found in testdata/small.golden:\n%s", sel, buf.Bytes())
			}
		})
	}
}

// TestOutputCacheInvariance is the trace cache's end-to-end
// byte-identity check: rendering with no cache, with a cold cache
// (which simulates and stores), and with the now-warm cache (which
// loads instead of simulating) must produce exactly the same bytes.
func TestOutputCacheInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the full small-scale evaluation three times")
	}
	dir := t.TempDir()
	render := func(args ...string) []byte {
		var buf bytes.Buffer
		if err := run(&buf, append([]string{"-scale", "small", "-workers", "8"}, args...)); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return buf.Bytes()
	}
	uncached := render()
	if len(uncached) == 0 {
		t.Fatal("empty output")
	}
	cold := render("-trace-cache", dir)
	warm := render("-trace-cache", dir)
	if !bytes.Equal(uncached, cold) {
		t.Errorf("uncached and cold-cache outputs differ at %s", firstDiff(uncached, cold))
	}
	if !bytes.Equal(cold, warm) {
		t.Errorf("cold and warm cache outputs differ at %s", firstDiff(cold, warm))
	}
}

// firstDiff locates the first divergent line pair for the failure
// message.
func firstDiff(a, b []byte) string {
	al := bytes.Split(a, []byte("\n"))
	bl := bytes.Split(b, []byte("\n"))
	n := min(len(al), len(bl))
	for i := 0; i < n; i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\n  %s\n  %s", i+1, al[i], bl[i])
		}
	}
	return "the end (one output is a prefix of the other)"
}
