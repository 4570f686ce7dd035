package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenSweep pins two sweeps byte for byte: the CI sweep (make
// chaos, 16-node leg) and the speculation sweep with per-seed counts,
// which covers the governor-gated oracle path under faults. Regenerate
// only for an intended change:
//
//	go run ./cmd/cosmos-chaos -seeds 25 -quick -nodes 16 > cmd/cosmos-chaos/testdata/seeds25-quick-nodes16.golden
//	go run ./cmd/cosmos-chaos -seeds 25 -quick -spec -v > cmd/cosmos-chaos/testdata/seeds25-quick-spec-v.golden
func TestGoldenSweep(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"seeds25-quick-nodes16.golden", []string{"-seeds", "25", "-quick", "-nodes", "16"}},
		{"seeds25-quick-spec-v.golden", []string{"-seeds", "25", "-quick", "-spec", "-v"}},
	} {
		t.Run(strings.TrimSuffix(tc.golden, ".golden"), func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(tc.args, &buf); err != nil {
				t.Fatalf("err = %v\n%s", err, buf.Bytes())
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, buf.Bytes()) {
				t.Errorf("output differs from testdata/%s:\n--- want ---\n%s\n--- got ---\n%s", tc.golden, want, buf.Bytes())
			}
		})
	}
}

// TestCorruptionBundleReplays: injected directory damage must be found
// (errFailuresFound, exit status 1), shrunk into a repro bundle, and
// the bundle must replay to the same failure byte for byte.
func TestCorruptionBundleReplays(t *testing.T) {
	dir := t.TempDir()
	var sweep bytes.Buffer
	if err := run([]string{"-seeds", "1", "-corrupt", "dir-owner", "-o", dir}, &sweep); err != errFailuresFound {
		t.Fatalf("-corrupt dir-owner: err = %v, want errFailuresFound\n%s", err, sweep.Bytes())
	}
	bundle := filepath.Join(dir, "chaos-seed1.json")
	if !strings.Contains(sweep.String(), "-> "+bundle+"\n") {
		t.Errorf("sweep output does not name %s:\n%s", bundle, sweep.Bytes())
	}
	var replay bytes.Buffer
	if err := run([]string{"-replay", bundle}, &replay); err != nil {
		t.Fatalf("-replay: %v\n%s", err, replay.Bytes())
	}
	if !strings.Contains(replay.String(), "reproduced byte-identically") {
		t.Errorf("-replay output:\n%s", replay.Bytes())
	}
}

// TestUsageErrors: bad flags must fail before any seed runs, as usage
// errors (exit status 2), not as findings.
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
