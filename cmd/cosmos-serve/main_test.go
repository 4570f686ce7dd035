package main

import (
	"bytes"
	"os"
	"testing"
)

// TestGoldenOutput pins the rendered output of the chaos sweep, the
// load generator and the WAL-damage self-check byte for byte. All are
// deterministic for their seeds (the sweep reassembles its worker-pool
// results in seed order, and damage reports name store files relative
// to the store), so any change to the service, its store or its
// transport that moves a response, a checkpoint or a simulated
// nanosecond shows here. Regenerate a file only for an intended
// change, e.g.
//
//	go run ./cmd/cosmos-serve -load 400 -streams 4 > cmd/cosmos-serve/testdata/load400-streams4.golden
func TestGoldenOutput(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
		err    error
	}{
		{"seeds3", []string{"-seeds", "3"}, nil},
		{"seeds3-v", []string{"-seeds", "3", "-v"}, nil},
		{"load400-streams4", []string{"-load", "400", "-streams", "4"}, nil},
		{"corrupt-wal", []string{"-seeds", "4", "-corrupt", "wal"}, errFailuresFound},
	} {
		var buf bytes.Buffer
		if err := run(c.args, &buf); err != c.err {
			t.Fatalf("%s: err = %v, want %v", c.golden, err, c.err)
		}
		want, err := os.ReadFile("testdata/" + c.golden + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, buf.Bytes()) {
			t.Errorf("output differs from testdata/%s.golden:\n--- want ---\n%s\n--- got ---\n%s", c.golden, want, buf.Bytes())
		}
	}
}

// TestWorkerInvariance: the sweep's output must not depend on how many
// workers ran the seeds.
func TestWorkerInvariance(t *testing.T) {
	render := func(workers string) []byte {
		var buf bytes.Buffer
		if err := run([]string{"-seeds", "3", "-v", "-workers", workers}, &buf); err != nil {
			t.Fatalf("workers=%s: %v", workers, err)
		}
		return buf.Bytes()
	}
	if serial, pooled := render("1"), render("3"); !bytes.Equal(serial, pooled) {
		t.Fatalf("workers=3 diverged from serial:\n--- serial ---\n%s\n--- workers=3 ---\n%s", serial, pooled)
	}
}

// TestCorruptionSelfCheck: each store-damage mode must be detected in
// every seed with its own error class, which run reports as
// errFailuresFound (exit status 1).
func TestCorruptionSelfCheck(t *testing.T) {
	for _, mode := range []string{"snapshot", "wal", "version"} {
		var buf bytes.Buffer
		if err := run([]string{"-seeds", "2", "-corrupt", mode}, &buf); err != errFailuresFound {
			t.Errorf("-corrupt %s: err = %v, want errFailuresFound\n%s", mode, err, buf.Bytes())
		}
	}
}

// TestUsageErrors: bad flags must fail before any run starts.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workers", "0"},
		{"-seeds", "0"},
		{"-corrupt", "disk"},
		{"-no-such-flag"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil || err == errFailuresFound {
			t.Errorf("args %v: err = %v, want a usage error", args, err)
		}
	}
}
