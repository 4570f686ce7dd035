package experiments

import (
	"fmt"
	"os"

	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/machine"
	"github.com/cosmos-coherence/cosmos/internal/stats"
	"github.com/cosmos-coherence/cosmos/internal/trace"
	"github.com/cosmos-coherence/cosmos/internal/tracecache"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

// EvaluateStreamed simulates (or cache-hits) one benchmark and runs a
// predictor configuration over its record stream without ever holding
// the trace in memory: the capture goes straight to a CTRC file via
// trace.StreamRecorder, and the evaluation reads it back in bounded
// windows via stats.EvaluateStream. This is the large-machine path —
// at 1024 nodes a materialized trace dwarfs every other allocation,
// and this path keeps peak RSS flat in node count (the scale tests
// measure it).
//
// Unlike Suite.Trace, nothing is memoized in memory. With TraceCache
// set, the capture is promoted into the cache and later cells stream
// from disk; without it, each call captures to a throwaway temp file.
func (s *Suite) EvaluateStreamed(name string, pcfg core.Config, opts stats.StreamOptions) (*stats.Result, error) {
	f, cleanup, err := s.openStream(name)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	sr, err := trace.NewStreamReader(f)
	if err != nil {
		return nil, fmt.Errorf("experiments: reading streamed trace for %s: %w", name, err)
	}
	if sr.App() != name || sr.Nodes() != s.cfg.Machine.Nodes {
		return nil, fmt.Errorf("experiments: streamed trace holds %s/%d nodes, want %s/%d (key collision? delete the cache dir)",
			sr.App(), sr.Nodes(), name, s.cfg.Machine.Nodes)
	}
	return stats.EvaluateStream(sr, sr.App(), sr.Nodes(), pcfg, opts)
}

// openStream returns an open CTRC file for the benchmark positioned at
// offset 0: a verified cache hit, or a fresh streaming capture. The
// cleanup closes (and, for uncached captures, removes) the file.
func (s *Suite) openStream(name string) (*os.File, func(), error) {
	cache := tracecache.Cache{Dir: s.cfg.TraceCache}
	key := s.cfg.traceKey(name)
	if f, ok, err := cache.OpenStream(key); err != nil {
		return nil, nil, err
	} else if ok {
		return f, func() { f.Close() }, nil
	}

	app, err := workload.ByName(name, s.cfg.Machine.Nodes, s.cfg.Scale)
	if err != nil {
		return nil, nil, err
	}
	if cache.Enabled() {
		tmp, err := cache.TempFile(key)
		if err != nil {
			return nil, nil, err
		}
		if err := captureStream(app, s.cfg, tmp); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return nil, nil, err
		}
		if err := cache.Promote(tmp, key); err != nil {
			return nil, nil, err
		}
		f, ok, err := cache.OpenStream(key)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			return nil, nil, fmt.Errorf("experiments: cache entry %s vanished after promote", key)
		}
		return f, func() { f.Close() }, nil
	}

	tmp, err := os.CreateTemp("", "cosmos-stream-*.ctrc")
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: temp capture file: %w", err)
	}
	// Unlink immediately: the open descriptor keeps the capture alive,
	// and nothing leaks if the process dies mid-evaluation.
	os.Remove(tmp.Name())
	if err := captureStream(app, s.cfg, tmp); err != nil {
		tmp.Close()
		return nil, nil, err
	}
	if _, err := tmp.Seek(0, 0); err != nil {
		tmp.Close()
		return nil, nil, fmt.Errorf("experiments: rewinding capture: %w", err)
	}
	return tmp, func() { tmp.Close() }, nil
}

// captureStream simulates app and streams its trace into f, leaving a
// complete CTRC file (footer written, offset at end).
func captureStream(app workload.App, cfg Config, f *os.File) error {
	if err := checkCapture(app); err != nil {
		return err
	}
	m, err := machine.New(cfg.Machine, cfg.Stache, app)
	if err != nil {
		return fmt.Errorf("experiments: building machine for %s: %w", app.Name(), err)
	}
	w, err := trace.NewStreamWriter(f, app.Name(), cfg.Machine.Nodes)
	if err != nil {
		return fmt.Errorf("experiments: starting capture for %s: %w", app.Name(), err)
	}
	rec := trace.NewStreamRecorder(w, app.PhasesPerIteration(), 0)
	m.AddObserver(rec)
	if err := m.Run(maxSimEvents); err != nil {
		return fmt.Errorf("experiments: simulating %s: %w", app.Name(), err)
	}
	if err := rec.Close(); err != nil {
		return fmt.Errorf("experiments: finishing capture for %s: %w", app.Name(), err)
	}
	return nil
}
