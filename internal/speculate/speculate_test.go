package speculate

import (
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/sim"
	"github.com/cosmos-coherence/cosmos/internal/stache"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

func TestTable2Catalog(t *testing.T) {
	specs := Table2()
	if len(specs) < 5 {
		t.Fatalf("Table2 lists %d actions", len(specs))
	}
	implemented := 0
	for _, s := range specs {
		if s.Name == "" || s.Prediction == "" || s.Action == "" {
			t.Errorf("incomplete spec %+v", s)
		}
		if s.Implemented {
			implemented++
		}
		if s.Class.String() == "" {
			t.Errorf("class %v has no name", s.Class)
		}
	}
	if implemented == 0 {
		t.Error("no action marked implemented")
	}
	if RecoveryClass(42).String() == "" {
		t.Error("out-of-range class string empty")
	}
}

func TestOracleAdapts(t *testing.T) {
	o, err := NewOracle(core.Config{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	const a = coherence.Addr(0x40)
	read := coherence.Tuple{Sender: 2, Type: coherence.GetROReq}
	upg := coherence.Tuple{Sender: 2, Type: coherence.UpgradeReq}
	for i := 0; i < 3; i++ {
		o.Train(a, read)
		o.Train(a, upg)
	}
	o.Train(a, read)
	pred, ok := o.PredictNext(a)
	if !ok || pred != upg {
		t.Errorf("PredictNext = %v, %v; want %v", pred, ok, upg)
	}
	if _, err := NewOracle(core.Config{Depth: 0}); err == nil {
		t.Error("NewOracle accepted bad config")
	}
}

// TestAccelerateMigratory: on a migratory workload the RMW action must
// fire, eliminate upgrade round trips, and reduce both messages and
// simulated time, while the workload still completes correctly.
func TestAccelerateMigratory(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Nodes = 8
	geom := coherence.MustGeometry(cfg.CacheBlockBytes, cfg.PageBytes, cfg.Nodes)
	app := func() workload.App {
		return workload.Migratory(cfg.Nodes, workload.NewArena(geom).Alloc(8), 20)
	}
	cmp, err := AccelerateActions(app, cfg, stache.DefaultOptions(), AttachConfig{Actions: Actions{RMW: true}, Predictor: core.Config{Depth: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Accelerated.Speculations == 0 {
		t.Fatal("no speculations fired on a migratory workload")
	}
	if cmp.Accelerated.UpgradeRequests >= cmp.Baseline.UpgradeRequests {
		t.Errorf("upgrades not reduced: %d -> %d",
			cmp.Baseline.UpgradeRequests, cmp.Accelerated.UpgradeRequests)
	}
	if cmp.MessageReduction() <= 0 {
		t.Errorf("message reduction = %v, want > 0", cmp.MessageReduction())
	}
	if cmp.TimeReduction() <= 0 {
		t.Errorf("time reduction = %v, want > 0", cmp.TimeReduction())
	}
}

// TestAccelerateIsHarmlessOnReadSharing: a workload with no upgrades
// gives the oracle nothing to predict; behaviour must be identical to
// the baseline.
func TestAccelerateHarmlessOnReadSharing(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Nodes = 4
	geom := coherence.MustGeometry(cfg.CacheBlockBytes, cfg.PageBytes, cfg.Nodes)
	app := func() workload.App {
		blocks := workload.NewArena(geom).Alloc(4)
		// One producer round, then everyone reads forever.
		return workload.ProducerConsumer(4, 1, []int{0, 2, 3}, blocks, 10)
	}
	cmp, err := AccelerateActions(app, cfg, stache.DefaultOptions(), AttachConfig{Actions: Actions{RMW: true}, Predictor: core.Config{Depth: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Producer-consumer has no upgrade_requests (writes hit invalid
	// blocks), so no RMW speculation should fire...
	if cmp.Accelerated.Speculations != 0 {
		t.Errorf("speculations = %d on upgrade-free workload", cmp.Accelerated.Speculations)
	}
	if cmp.Accelerated.Messages != cmp.Baseline.Messages {
		t.Errorf("messages changed: %d -> %d", cmp.Baseline.Messages, cmp.Accelerated.Messages)
	}
}

// TestComparisonMath covers the reduction helpers.
func TestComparisonMath(t *testing.T) {
	c := Comparison{
		Baseline:    RunStats{Messages: 100, FinalTime: 200},
		Accelerated: RunStats{Messages: 80, FinalTime: 150},
	}
	if got := c.MessageReduction(); got < 0.199 || got > 0.201 {
		t.Errorf("MessageReduction = %v, want ~0.2", got)
	}
	if got := c.TimeReduction(); got < 0.249 || got > 0.251 {
		t.Errorf("TimeReduction = %v, want ~0.25", got)
	}
	var zero Comparison
	if zero.MessageReduction() != 0 || zero.TimeReduction() != 0 {
		t.Error("zero comparison should reduce by 0")
	}
}

// TestAccelerateDSIProducerConsumer: Cosmos-driven self-invalidation
// on a producer-consumer workload removes the producer from the
// consumer's critical path: simulated time drops while the workload
// still completes coherently.
func TestAccelerateDSI(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Nodes = 8
	geom := coherence.MustGeometry(cfg.CacheBlockBytes, cfg.PageBytes, cfg.Nodes)
	app := func() workload.App {
		return workload.ProducerConsumer(8, 1, []int{2}, workload.NewArena(geom).Alloc(16), 30)
	}
	cmp, err := AccelerateActions(app, cfg, stache.DefaultOptions(), AttachConfig{Actions: Actions{DSI: true}, Predictor: core.Config{Depth: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Accelerated.Speculations == 0 {
		t.Fatal("no self-invalidations fired on a producer-consumer workload")
	}
	if cmp.TimeReduction() <= 0 {
		t.Errorf("time reduction = %.3f, want > 0 (base %v, dsi %v)",
			cmp.TimeReduction(), cmp.Baseline.FinalTime, cmp.Accelerated.FinalTime)
	}
	// The fetch-back invalidations largely disappear.
	if cmp.Accelerated.Invalidations >= cmp.Baseline.Invalidations {
		t.Errorf("invalidations not reduced: %d -> %d",
			cmp.Baseline.Invalidations, cmp.Accelerated.Invalidations)
	}
}

// TestSelfInvalidationHarmlessOnMigratory: on a migratory workload the
// predicted next message at the owner's cache is a read-triggered
// inval_rw_request too, so self-invalidation may fire; the run must
// stay correct and complete either way.
func TestSelfInvalidationStaysCoherent(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Nodes = 4
	geom := coherence.MustGeometry(cfg.CacheBlockBytes, cfg.PageBytes, cfg.Nodes)
	app := func() workload.App {
		return workload.Migratory(4, workload.NewArena(geom).Alloc(8), 12)
	}
	if _, err := AccelerateActions(app, cfg, stache.DefaultOptions(), AttachConfig{Actions: Actions{DSI: true}, Predictor: core.Config{Depth: 1}}); err != nil {
		t.Fatal(err)
	}
}
