package experiments

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/trace"
)

// traceDigests pins the CTRC bytes of every small-scale benchmark
// trace; its header holds the regeneration command.
const traceDigests = "testdata/trace_digests.txt"

// TestGoldenTraceBytes checks that each app's small-scale capture,
// encoded by trace.Write, hashes to its committed SHA-256. It pins the
// simulator, the recorder and the encoder together: a change to any of
// them that alters a single trace byte fails here.
func TestGoldenTraceBytes(t *testing.T) {
	f, err := os.Open(traceDigests)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var app, sum string
		if _, err := fmt.Sscan(line, &app, &sum); err != nil {
			t.Fatalf("%s: %q: %v", traceDigests, line, err)
		}
		want[app] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, app := range smallSuite.Apps() {
		tr, err := smallSuite.Trace(app)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if err := trace.Write(h, tr); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want[app] {
			t.Errorf("%s: trace bytes hash to %s, %s pins %q", app, got, traceDigests, want[app])
		}
	}
}
