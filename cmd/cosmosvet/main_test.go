package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs run() with a temp file as stdout and returns the exit
// code, the printed output, and the error.
func capture(t *testing.T, args []string) (int, string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	code, runErr := run(args, f)
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out), runErr
}

// TestList pins that -list names every analyzer of the suite.
func TestList(t *testing.T) {
	code, out, err := capture(t, []string{"-list"})
	if err != nil || code != 0 {
		t.Fatalf("-list: code=%d err=%v", code, err)
	}
	for _, name := range []string{"determinism", "exhaustive", "hotpath", "immutability", "transition"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, out)
		}
	}
}

// TestUnknownAnalyzer pins the error for a bad -analyzers subset.
func TestUnknownAnalyzer(t *testing.T) {
	_, _, err := capture(t, []string{"-analyzers", "nope", "./."})
	if err == nil || !strings.Contains(err.Error(), `unknown analyzer "nope"`) {
		t.Errorf("err = %v, want unknown analyzer error", err)
	}
}

// TestConfigFlag pins the -config value syntax.
func TestConfigFlag(t *testing.T) {
	c := configFlags{}
	if err := c.Set("hotpath.maxdepth=4"); err != nil {
		t.Errorf("valid -config rejected: %v", err)
	}
	if c["hotpath.maxdepth"] != "4" {
		t.Errorf("config = %v, want hotpath.maxdepth=4 recorded", c)
	}
	for _, bad := range []string{"maxdepth=4", "hotpath.maxdepth"} {
		if err := c.Set(bad); err == nil {
			t.Errorf("malformed -config %q accepted", bad)
		}
	}
}

// plantModule writes a one-package module whose internal/sim (a
// determinism-scoped path) holds src, and makes it the working
// directory for the rest of the test.
func plantModule(t *testing.T, src string) {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":              "module example.com/planted\n\ngo 1.22\n",
		"internal/sim/sim.go": src,
	}
	for name, body := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
}

// TestFindingFailsGate pins the gate: a planted wall-clock read in a
// simulation-core package prints one module-relative finding line and
// exits 1, and a reasoned allow comment turns it into a reported
// suppression that exits 0.
func TestFindingFailsGate(t *testing.T) {
	const planted = `package sim

import "time"

func Stamp() int64 {
	return time.Now().UnixNano()
}
`
	plantModule(t, planted)
	code, out, err := capture(t, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	const want = "internal/sim/sim.go:6:9: determinism: wall-clock read time.Now in the simulation core; " +
		"use the sim.Engine clock so runs stay seed-reproducible\n" +
		"cosmosvet: no active allow suppressions\n"
	if code != 1 || out != want {
		t.Errorf("planted finding: code=%d, output:\n%s\nwant code=1, output:\n%s", code, out, want)
	}

	plantModule(t, strings.Replace(planted, "\treturn", "\t//cosmosvet:allow determinism host stamp for a log line\n\treturn", 1))
	code, out, err = capture(t, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	const wantAllowed = "cosmosvet: 1 active allow suppression(s):\n" +
		"  internal/sim/sim.go:6: allow determinism: host stamp for a log line\n"
	if code != 0 || out != wantAllowed {
		t.Errorf("allowed finding: code=%d, output:\n%s\nwant code=0, output:\n%s", code, out, wantAllowed)
	}
}
