package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestTableWorkerInvariance: the -action all table fans its (app,
// action) cells over the worker pool; the rendered bytes must not
// depend on the worker count — every cell is an independent pair of
// deterministic simulations, reassembled in fixed order.
func TestTableWorkerInvariance(t *testing.T) {
	render := func(workers string) []byte {
		var buf bytes.Buffer
		args := []string{"-action", "all", "-app", "micros", "-iters", "6", "-blocks", "8", "-workers", workers}
		if err := run(&buf, args); err != nil {
			t.Fatalf("workers=%s: %v", workers, err)
		}
		return buf.Bytes()
	}
	serial := render("1")
	if len(serial) == 0 {
		t.Fatal("empty output")
	}
	for _, w := range []string{"4", "8"} {
		if got := render(w); !bytes.Equal(serial, got) {
			t.Fatalf("workers=%s diverged from serial:\n--- serial ---\n%s\n--- workers=%s ---\n%s",
				w, serial, w, got)
		}
	}
}

// TestTableListsAllActions: the table must carry one row per Table 2
// action plus the composed row, for every requested app, and render
// exactly testdata/all-micros.golden.
func TestTableListsAllActions(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-action", "all", "-app", "micros", "-iters", "6", "-blocks", "8", "-workers", "2"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, row := range []string{"rmw", "dsi", "downgrade", "forward", "all"} {
		if !strings.Contains(out, "\n  "+row) {
			t.Errorf("table missing %q row:\n%s", row, out)
		}
	}
	if !strings.Contains(out, "migratory (baseline:") {
		t.Errorf("table missing app header:\n%s", out)
	}
	checkGolden(t, "all-micros", buf.Bytes())
}

// TestSingleActionModes: each single-action invocation must complete
// and report the comparison; the gated modes additionally report the
// governor and the end-state digest comparison. Every run renders
// exactly its testdata/<action>-<app>.golden; regenerate one only for
// an intended change, e.g.
//
//	go run ./cmd/cosmos-accelerate -action rmw -app dsmc -scale small > cmd/cosmos-accelerate/testdata/rmw-dsmc-small.golden
func TestSingleActionModes(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"rmw-migratory", []string{"-action", "rmw", "-app", "migratory", "-iters", "6", "-blocks", "8"}},
		{"dsi-migratory", []string{"-action", "dsi", "-app", "migratory", "-iters", "6", "-blocks", "8"}},
		{"downgrade-migratory", []string{"-action", "downgrade", "-app", "migratory", "-iters", "6", "-blocks", "8"}},
		{"forward-migratory", []string{"-action", "forward", "-app", "migratory", "-iters", "6", "-blocks", "8"}},
		{"dsi-producer-consumer", []string{"-action", "dsi", "-app", "producer-consumer", "-iters", "6", "-blocks", "8"}},
		{"rmw-dsmc-small", []string{"-action", "rmw", "-app", "dsmc", "-scale", "small"}},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := run(&buf, c.args); err != nil {
			t.Fatalf("%s: %v", c.golden, err)
		}
		out := buf.String()
		if !strings.Contains(out, "message reduction") {
			t.Errorf("%s: no summary line:\n%s", c.golden, out)
		}
		action := c.args[1]
		gated := action == "downgrade" || action == "forward"
		if gated != strings.Contains(out, "governor") {
			t.Errorf("%s: governor report mismatch (want %v):\n%s", c.golden, gated, out)
		}
		checkGolden(t, c.golden, buf.Bytes())
	}
}

// checkGolden compares got with testdata/<name>.golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile("testdata/" + name + ".golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("output differs from testdata/%s.golden:\n--- want ---\n%s\n--- got ---\n%s", name, want, got)
	}
}

// TestUsageErrors: bad flags must fail fast, not mid-run.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-action", "warp"},
		{"-action", "all", "-app", "no-such-app"},
		{"-workers", "0"},
		{"-iters", "0"},
	} {
		var buf bytes.Buffer
		if err := run(&buf, args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
