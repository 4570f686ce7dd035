package experiments

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/stache"
	"github.com/cosmos-coherence/cosmos/internal/stats"
	"github.com/cosmos-coherence/cosmos/internal/trace"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

// TestEvaluateStreamedMatchesMemoized pins that the zero-residency
// path — stream capture to disk, windowed evaluation — produces the
// exact Result of the materialized path, cold and through the cache.
func TestEvaluateStreamedMatchesMemoized(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a workload three times")
	}
	cfg := DefaultConfig()
	cfg.Scale = workload.ScaleSmall
	cfg.TraceCache = t.TempDir()
	pcfg := core.Config{Depth: 2}
	opts := stats.Options{TrackArcs: true}

	want, err := NewSuite(cfg).Evaluate("moldyn", pcfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Suite.Evaluate threads the worker count into opts; mirror it so
	// the structs compare equal in every field that matters.
	s := NewSuite(cfg)
	cold, err := s.EvaluateStreamed("moldyn", pcfg, stats.StreamOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, want) {
		t.Error("cold streamed result diverges from materialized evaluation")
	}
	warm, err := s.EvaluateStreamed("moldyn", pcfg, stats.StreamOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, want) {
		t.Error("cache-hit streamed result diverges from materialized evaluation")
	}
}

// TestEvaluateStreamedUncached exercises the throwaway-temp-file path.
func TestEvaluateStreamedUncached(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a workload twice")
	}
	cfg := DefaultConfig()
	cfg.Scale = workload.ScaleSmall
	pcfg := core.Config{Depth: 1}

	want, err := NewSuite(cfg).Evaluate("dsmc", pcfg, stats.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewSuite(cfg).EvaluateStreamed("dsmc", pcfg, stats.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("uncached streamed result diverges from materialized evaluation")
	}
}

// measurePeakHeap runs fn while sampling the live heap and returns the
// peak sample. GC runs first so prior tests' garbage is not charged to
// fn; samples come from a ticker goroutine, so long capture phases are
// covered, plus whatever sample points fn adds itself.
func measurePeakHeap(fn func(sample func())) uint64 {
	// Tighten the GC so HeapAlloc tracks live data instead of GOGC
	// headroom: the measurement should compare what the cells *retain*,
	// not how much garbage the collector let pile up.
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	// Two collections, not one: sync.Pool contents survive a single GC
	// in the victim cache, and the predictor pool retains grown slabs
	// from earlier cells (Reset keeps capacity). Without the second GC
	// a big prior cell donates its big predictors to this one and the
	// measurement compares pool luck, not cell footprint.
	runtime.GC()
	runtime.GC()
	var peak atomic.Uint64
	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		for {
			old := peak.Load()
			if ms.HeapAlloc <= old || peak.CompareAndSwap(old, ms.HeapAlloc) {
				break
			}
		}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	fn(sample)
	sample()
	close(stop)
	<-done
	return peak.Load()
}

// sampledSource samples the heap at every read of a streamed
// evaluation, between one window's evaluation and the next.
type sampledSource struct {
	src    stats.RecordSource
	sample func()
}

func (s sampledSource) Next(buf []trace.Record) (int, error) {
	s.sample()
	return s.src.Next(buf)
}

// TestStreamedPeakHeapFlat is the scaling acceptance measurement: a
// 1024-node streamed cell (capture + windowed evaluation) must peak at
// no more than 4x the live heap of the 64-node cell. A materialized
// trace fails this instantly — at 1024 nodes the record slice alone is
// ~16x the 64-node one — so the bound holds only while both capture
// and evaluation stay streaming.
func TestStreamedPeakHeapFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a 1024-node machine")
	}
	cell := func(nodes int) uint64 {
		cfg := DefaultConfig()
		cfg.Scale = workload.ScaleSmall
		cfg.Machine.Nodes = nodes
		// Dir-8-B: overflowed entries broadcast, but below overflow the
		// sharer state is 16 bytes per entry at any node count. The
		// coarse vector's region fan-out (16 nodes per bit at 1024)
		// multiplies trace breadth — and with it predictor state — so
		// its memory story is told by the scalesweep curves instead.
		cfg.Stache.DirFormat = stache.DirLimitedPtr
		return measurePeakHeap(func(sample func()) {
			f, cleanup, err := NewSuite(cfg).openStream("dsmc")
			if err != nil {
				t.Error(err)
				return
			}
			defer cleanup()
			sr, err := trace.NewStreamReader(f)
			if err != nil {
				t.Error(err)
				return
			}
			src := sampledSource{src: sr, sample: sample}
			if _, err := stats.EvaluateStream(src, sr.App(), sr.Nodes(), core.Config{Depth: 2}, stats.StreamOptions{}); err != nil {
				t.Error(err)
			}
		})
	}
	small := cell(64)
	big := cell(1024)
	t.Logf("peak heap: 64 nodes = %d bytes, 1024 nodes = %d bytes (%.2fx)",
		small, big, float64(big)/float64(small))
	if big > 4*small {
		t.Errorf("1024-node streamed cell peaked at %d bytes, more than 4x the 64-node cell's %d", big, small)
	}
}
