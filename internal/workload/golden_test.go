package workload

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/access_digests.txt from the current generators")

const goldenDigests = "testdata/access_digests.txt"

// goldenCells are the (procs, scale) machines whose full access streams
// the golden file pins: the paper's 16-node full-scale tables, the
// 64-node full-map limit, and two 1024-node scalesweep sizes.
var goldenCells = []struct {
	procs int
	scale Scale
}{
	{16, ScaleFull},
	{64, ScaleMedium},
	{1024, ScaleSmall},
	{1024, ScaleMedium},
}

// streamDigest hashes app's complete access stream: every phase, every
// processor in order, each (phase, processor) sequence prefixed by its
// length and each access as its address and write bit. It returns the
// hex SHA-256 and the total access count.
func streamDigest(app App) (string, int) {
	h := sha256.New()
	var buf [9]byte
	total := 0
	for phase := 0; phase < app.Iterations(); phase++ {
		for p := 0; p < app.Procs(); p++ {
			seq := app.Accesses(p, phase)
			binary.LittleEndian.PutUint64(buf[:8], uint64(len(seq)))
			h.Write(buf[:8])
			for _, a := range seq {
				binary.LittleEndian.PutUint64(buf[:8], uint64(a.Addr))
				buf[8] = 0
				if a.Write {
					buf[8] = 1
				}
				h.Write(buf[:])
			}
			total += len(seq)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)), total
}

// goldenLines renders one line per (app, cell) in the golden file's
// format: app procs scale accesses sha256.
func goldenLines() []string {
	var lines []string
	for _, c := range goldenCells {
		for _, app := range Registry(c.procs, c.scale) {
			sum, n := streamDigest(app)
			lines = append(lines, fmt.Sprintf("%s %d %s %d %s", app.Name(), c.procs, c.scale, n, sum))
		}
	}
	return lines
}

// TestGoldenAccessStreams pins every paper generator's full access
// stream, byte for byte, to the digests in testdata. A generator
// refactor must leave them unchanged; a deliberate change to a sharing
// pattern regenerates them with `go test ./internal/workload -run
// TestGoldenAccessStreams -update` and says why in its commit.
func TestGoldenAccessStreams(t *testing.T) {
	got := goldenLines()
	if *updateGolden {
		out := "# Access-stream digests of the paper generators: app procs scale accesses sha256.\n" +
			"# Regenerate: go test ./internal/workload -run TestGoldenAccessStreams -update\n" +
			strings.Join(got, "\n") + "\n"
		if err := os.MkdirAll(filepath.Dir(goldenDigests), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenDigests, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenDigests)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d digests, golden file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("access stream changed:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
