package faults

import (
	"flag"
	"math"
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

func TestZeroPlanDisabled(t *testing.T) {
	var p Plan
	if p.Enabled() {
		t.Fatal("zero plan reports enabled")
	}
	in, err := NewInjector(p)
	if err != nil {
		t.Fatal(err)
	}
	if in != nil {
		t.Fatal("disabled plan built a non-nil injector")
	}
	// Seed alone perturbs nothing.
	p.Seed = 99
	if p.Enabled() {
		t.Fatal("seed-only plan reports enabled")
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		ok   bool
	}{
		{"zero", Plan{}, true},
		{"full", Plan{DropProb: 0.5, DupProb: 0.5, JitterNs: 100}, true},
		{"drop too high", Plan{DropProb: 1.5}, false},
		{"drop negative", Plan{DropProb: -0.1}, false},
		{"dup NaN", Plan{DupProb: math.NaN()}, false},
		{"empty blackout", Plan{Blackouts: []Blackout{{FromNs: 10, UntilNs: 10}}}, false},
		{"forever blackout", Plan{Blackouts: []Blackout{{Src: 1, Dst: 2}}}, true},
	}
	for _, c := range cases {
		if err := c.plan.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestDecideDeterministic(t *testing.T) {
	plan := Plan{Seed: 42, DropProb: 0.1, DupProb: 0.05, JitterNs: 200}
	a, err := NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(0); seq < 10_000; seq++ {
		da := a.Decide(3, 7, seq, seq*13)
		db := b.Decide(3, 7, seq, seq*13)
		if da != db {
			t.Fatalf("seq %d: decisions differ: %+v vs %+v", seq, da, db)
		}
	}
}

func TestDecideRates(t *testing.T) {
	plan := Plan{Seed: 7, DropProb: 0.10, DupProb: 0.05, JitterNs: 100}
	in, err := NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200_000
	var drops, dups int
	var jitterSum uint64
	for seq := uint64(0); seq < n; seq++ {
		d := in.Decide(0, 1, seq, 0)
		if d.Drop {
			drops++
		}
		if d.Duplicate {
			dups++
		}
		if d.JitterNs > plan.JitterNs {
			t.Fatalf("jitter %d exceeds max %d", d.JitterNs, plan.JitterNs)
		}
		jitterSum += d.JitterNs
	}
	if rate := float64(drops) / n; rate < 0.08 || rate > 0.12 {
		t.Errorf("drop rate %.4f far from 0.10", rate)
	}
	if rate := float64(dups) / n; rate < 0.035 || rate > 0.065 {
		t.Errorf("dup rate %.4f far from 0.05", rate)
	}
	if mean := float64(jitterSum) / n; mean < 40 || mean > 60 {
		t.Errorf("mean jitter %.1f far from 50", mean)
	}
}

func TestSeedsIndependent(t *testing.T) {
	a, _ := NewInjector(Plan{Seed: 1, DropProb: 0.5})
	b, _ := NewInjector(Plan{Seed: 2, DropProb: 0.5})
	same := 0
	const n = 10_000
	for seq := uint64(0); seq < n; seq++ {
		if a.Decide(0, 1, seq, 0).Drop == b.Decide(0, 1, seq, 0).Drop {
			same++
		}
	}
	if same > n*6/10 || same < n*4/10 {
		t.Errorf("different seeds agree on %d/%d drops; streams look correlated", same, n)
	}
}

func TestLinksIndependent(t *testing.T) {
	in, _ := NewInjector(Plan{Seed: 5, DropProb: 0.5})
	same := 0
	const n = 10_000
	for seq := uint64(0); seq < n; seq++ {
		if in.Decide(0, 1, seq, 0).Drop == in.Decide(1, 0, seq, 0).Drop {
			same++
		}
	}
	if same > n*6/10 || same < n*4/10 {
		t.Errorf("links (0,1) and (1,0) agree on %d/%d drops; streams look correlated", same, n)
	}
}

func TestBlackout(t *testing.T) {
	plan := Plan{Blackouts: []Blackout{
		{Src: 1, Dst: 2, FromNs: 100, UntilNs: 200},
		{Src: -1, Dst: 3}, // everything into node 3, forever
	}}
	in, err := NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		src, dst int16
		now      uint64
		drop     bool
	}{
		{1, 2, 150, true},  // inside the window
		{1, 2, 99, false},  // before
		{1, 2, 200, false}, // at the exclusive end
		{2, 1, 150, false}, // reverse link unaffected
		{0, 3, 0, true},    // wildcard src
		{5, 3, 1 << 40, true},
		{3, 0, 150, false},
	}
	for _, c := range cases {
		d := in.Decide(coherence.NodeID(c.src), coherence.NodeID(c.dst), 0, c.now)
		if d.Drop != c.drop {
			t.Errorf("Decide(%d->%d @%d): drop=%v, want %v", c.src, c.dst, c.now, d.Drop, c.drop)
		}
	}
}

func TestFlagsPlan(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := AddFlags(fs)
	if err := fs.Parse([]string{"-fault-drop=0.02", "-fault-dup=0.01", "-fault-jitter=150", "-fault-seed=9"}); err != nil {
		t.Fatal(err)
	}
	got := f.Plan()
	want := Plan{Seed: 9, DropProb: 0.02, DupProb: 0.01, JitterNs: 150}
	if got.Seed != want.Seed || got.DropProb != want.DropProb || got.DupProb != want.DupProb || got.JitterNs != want.JitterNs {
		t.Errorf("Plan() = %+v, want %+v", got, want)
	}
	if !got.Enabled() {
		t.Error("parsed plan should be enabled")
	}
}
