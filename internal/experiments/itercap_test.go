package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/trace"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

// longApp runs phases empty phases, grouped perIter to an application
// iteration. Its Accesses panics, so a capture helper that simulated it
// at all fails the test.
type longApp struct{ phases, perIter int }

func (a longApp) Name() string                        { return "long" }
func (a longApp) Procs() int                          { return 16 }
func (a longApp) Iterations() int                     { return a.phases }
func (a longApp) PhasesPerIteration() int             { return a.perIter }
func (a longApp) Accesses(int, int) []workload.Access { panic("longApp was simulated") }

// TestCaptureHelpersRefuseOverCap: a run past trace.MaxIter+1
// application iterations fails with a named error before anything is
// simulated, in the materialized and the streamed capture alike.
func TestCaptureHelpersRefuseOverCap(t *testing.T) {
	cfg := smallConfig()
	for _, app := range []longApp{
		{phases: trace.MaxIter + 2, perIter: 1},       // one whole iteration too many
		{phases: 2*(trace.MaxIter+1) + 1, perIter: 2}, // a trailing partial one
	} {
		if _, err := Run(app, cfg); err == nil || !strings.Contains(err.Error(), "application iterations") {
			t.Errorf("Run(%+v) = %v, want the iteration-cap error", app, err)
		}
		f, err := os.Create(filepath.Join(t.TempDir(), "long.ctrc"))
		if err != nil {
			t.Fatal(err)
		}
		if err := captureStream(app, cfg, f); err == nil || !strings.Contains(err.Error(), "application iterations") {
			t.Errorf("captureStream(%+v) = %v, want the iteration-cap error", app, err)
		}
		f.Close()
	}
	if err := checkCapture(longApp{phases: trace.MaxIter + 1, perIter: 1}); err != nil {
		t.Errorf("checkCapture refused MaxIter+1 whole iterations: %v", err)
	}
}
