package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The goldens in testdata were written by stache-trace and
// cosmos-predict before the two tools became one, so these tests check
// the merged tool against the old tools' output, not against itself.
// Regenerate a file only for an intended change, e.g.
//
//	go run ./cmd/cosmos-predict -app dsmc -scale small -halfmigratory=false -summary > cmd/cosmos-predict/testdata/summary-nohalfmig.golden

// TestTraceWorkflow drives the capture-then-score workflow: simulate
// dsmc at small scale, save it with -o and evaluate it; then load the
// saved file for a narrower evaluation, a summary and a text dump.
func TestTraceWorkflow(t *testing.T) {
	saved := filepath.Join(t.TempDir(), "dsmc.trace")
	runGolden(t, "dsmc-small-sweep-arcs-types-adapt",
		"-app", "dsmc", "-scale", "small", "-o", saved, "-sweep", "-arcs", "-types", "-adapt")
	data, err := os.ReadFile(saved)
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "trace", data)

	runGolden(t, "depth3-filter1-arcs", "-in", saved, "-depth", "3", "-filter", "1", "-arcs")
	runGolden(t, "summary", "-in", saved, "-summary")
	runGolden(t, "summary-nohalfmig", "-app", "dsmc", "-scale", "small", "-halfmigratory=false", "-summary")

	var buf bytes.Buffer
	if err := run([]string{"-in", saved, "-dump"}, &buf); err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "dump", buf.Bytes())
}

// TestProbes: every bad invocation must fail with a named error, and
// the probes together must render exactly testdata/probes.golden: each
// one's output, error line and exit status as main reports them.
func TestProbes(t *testing.T) {
	var got bytes.Buffer
	for _, args := range [][]string{
		{},
		{"-in", "testdata/no-such.trace", "-app", "dsmc"},
		{"-in", "testdata/no-such.trace"},
		{"-in", "testdata/badmagic.ctrc"},
		{"-in", "testdata/truncated.ctrc"},
		{"-app", "dsmc", "-scale", "small", "-depth", "9"},
		{"-app", "quake"},
		{"-app", "dsmc", "-scale", "gigantic"},
	} {
		got.WriteString("$ cosmos-predict " + strings.Join(args, " ") + "\n")
		if err := run(args, &got); err != nil {
			got.WriteString("cosmos-predict: " + err.Error() + "\nexit 1\n")
		} else {
			got.WriteString("exit 0\n")
		}
	}
	checkGolden(t, "probes", got.Bytes())
}

func runGolden(t *testing.T, golden string, args ...string) {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("%s: %v", golden, err)
	}
	checkGolden(t, golden, buf.Bytes())
}

func checkGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
	want, err := os.ReadFile("testdata/" + golden + ".golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("output differs from testdata/%s.golden:\n--- want ---\n%s\n--- got ---\n%s", golden, want, got)
	}
}

// checkDigest compares the SHA-256 of data with the line of
// testdata/digests.txt that starts with name.
func checkDigest(t *testing.T, name string, data []byte) {
	t.Helper()
	f, err := os.Open("testdata/digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if want, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			if got != want {
				t.Errorf("%s SHA-256 = %s, want %s", name, got, want)
			}
			return
		}
	}
	t.Fatalf("testdata/digests.txt has no %s line", name)
}
