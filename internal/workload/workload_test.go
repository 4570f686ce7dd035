package workload

import (
	"testing"
	"testing/quick"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

func TestRegistryAndByName(t *testing.T) {
	apps := Registry(16, ScaleSmall)
	want := []string{"appbt", "barnes", "dsmc", "moldyn", "unstructured"}
	if len(apps) != len(want) {
		t.Fatalf("Registry returned %d apps", len(apps))
	}
	for i, a := range apps {
		if a.Name() != want[i] {
			t.Errorf("Registry[%d] = %s, want %s", i, a.Name(), want[i])
		}
		if a.Procs() != 16 {
			t.Errorf("%s Procs = %d", a.Name(), a.Procs())
		}
	}
	for _, name := range want {
		a, err := ByName(name, 16, ScaleSmall)
		if err != nil || a.Name() != name {
			t.Errorf("ByName(%s) = %v, %v", name, a, err)
		}
	}
	if _, err := ByName("nope", 16, ScaleSmall); err == nil {
		t.Error("ByName accepted unknown name")
	}
}

func TestScaleString(t *testing.T) {
	if ScaleSmall.String() != "small" || ScaleMedium.String() != "medium" || ScaleFull.String() != "full" {
		t.Error("Scale strings wrong")
	}
	if Scale(9).String() != "Scale(9)" {
		t.Error("out-of-range Scale string wrong")
	}
}

// TestDeterminism: Accesses must return identical sequences on repeated
// calls — the foundation of reproducible traces.
func TestAppsDeterministic(t *testing.T) {
	for _, mk := range []func() App{
		func() App { return NewAppBT(16, ScaleSmall) },
		func() App { return NewBarnes(16, ScaleSmall) },
		func() App { return NewDSMC(16, ScaleSmall) },
		func() App { return NewMoldyn(16, ScaleSmall) },
		func() App { return NewUnstructured(16, ScaleSmall) },
	} {
		a1, a2 := mk(), mk()
		if a1.Name() != a2.Name() {
			t.Fatal("constructor nondeterministic")
		}
		for iter := 0; iter < a1.Iterations(); iter++ {
			for p := 0; p < a1.Procs(); p++ {
				s1 := a1.Accesses(p, iter)
				s2 := a2.Accesses(p, iter)
				if len(s1) != len(s2) {
					t.Fatalf("%s p%d iter%d: lengths %d vs %d", a1.Name(), p, iter, len(s1), len(s2))
				}
				for i := range s1 {
					if s1[i] != s2[i] {
						t.Fatalf("%s p%d iter%d access %d differs", a1.Name(), p, iter, i)
					}
				}
				// Re-query the same instance: memoization must not
				// change results.
				s3 := a1.Accesses(p, iter)
				for i := range s1 {
					if s1[i] != s3[i] {
						t.Fatalf("%s p%d iter%d: re-query differs", a1.Name(), p, iter)
					}
				}
			}
		}
	}
}

// TestAppsShapeInvariants: every app reports consistent phase
// structure and block-aligned addresses.
func TestAppsShapeInvariants(t *testing.T) {
	for _, a := range Registry(16, ScaleSmall) {
		if a.PhasesPerIteration() < 1 {
			t.Errorf("%s: PhasesPerIteration = %d", a.Name(), a.PhasesPerIteration())
		}
		if a.Iterations()%a.PhasesPerIteration() != 0 {
			t.Errorf("%s: %d phases not divisible by %d", a.Name(), a.Iterations(), a.PhasesPerIteration())
		}
		if n := a.Iterations() / a.PhasesPerIteration(); n < 2 {
			t.Errorf("%s: only %d app iterations", a.Name(), n)
		}
		total := 0
		for iter := 0; iter < a.Iterations(); iter++ {
			for p := 0; p < a.Procs(); p++ {
				for _, acc := range a.Accesses(p, iter) {
					if uint64(acc.Addr)%DefaultBlockSize != 0 {
						t.Fatalf("%s: unaligned address %#x", a.Name(), uint64(acc.Addr))
					}
					total++
				}
			}
		}
		if total == 0 {
			t.Errorf("%s generated no accesses", a.Name())
		}
	}
}

// TestAppsShareData: each app must actually induce sharing — some
// block must be touched by at least two processors.
func TestAppsShareData(t *testing.T) {
	for _, a := range Registry(16, ScaleSmall) {
		touched := make(map[coherence.Addr]map[int]bool)
		for iter := 0; iter < a.Iterations(); iter++ {
			for p := 0; p < a.Procs(); p++ {
				for _, acc := range a.Accesses(p, iter) {
					if touched[acc.Addr] == nil {
						touched[acc.Addr] = make(map[int]bool)
					}
					touched[acc.Addr][p] = true
				}
			}
		}
		shared := 0
		for _, procs := range touched {
			if len(procs) > 1 {
				shared++
			}
		}
		if shared == 0 {
			t.Errorf("%s has no shared blocks", a.Name())
		}
	}
}

// TestAppsHaveWritesAndReads: coherence traffic needs both.
func TestAppsMixReadsAndWrites(t *testing.T) {
	for _, a := range Registry(16, ScaleSmall) {
		var reads, writes int
		for iter := 0; iter < a.Iterations(); iter++ {
			for p := 0; p < a.Procs(); p++ {
				for _, acc := range a.Accesses(p, iter) {
					if acc.Write {
						writes++
					} else {
						reads++
					}
				}
			}
		}
		if reads == 0 || writes == 0 {
			t.Errorf("%s: reads=%d writes=%d", a.Name(), reads, writes)
		}
	}
}

func TestArenaAndRegions(t *testing.T) {
	g := coherence.MustGeometry(64, 4096, 16)
	a := NewArena(g)
	r1 := a.Alloc(10)
	r2 := a.Alloc(100)
	if r1.Blocks() != 10 || r2.Blocks() != 100 {
		t.Fatal("block counts wrong")
	}
	// Regions are page-aligned and disjoint.
	if uint64(r2.Block(0))%4096 != 0 {
		t.Errorf("r2 not page aligned: %#x", uint64(r2.Block(0)))
	}
	for i := 0; i < r1.Blocks(); i++ {
		if r2.Contains(r1.Block(i)) {
			t.Fatalf("regions overlap at %#x", uint64(r1.Block(i)))
		}
	}
	// Block addresses are sequential within a region.
	if r1.Block(1)-r1.Block(0) != 64 {
		t.Error("blocks not contiguous")
	}
	if !r1.Contains(r1.Block(9)) || r1.Contains(r2.Block(0)) {
		t.Error("Contains wrong")
	}
	if a.Geometry() != g {
		t.Error("Geometry accessor wrong")
	}
}

func TestArenaAndRegionPanics(t *testing.T) {
	g := coherence.MustGeometry(64, 4096, 16)
	a := NewArena(g)
	assertPanics(t, "Alloc(0)", func() { a.Alloc(0) })
	r := a.Alloc(4)
	assertPanics(t, "Block(-1)", func() { r.Block(-1) })
	assertPanics(t, "Block(4)", func() { r.Block(4) })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

func TestScriptDefaults(t *testing.T) {
	s := &Script{NumProcs: 4}
	if s.Name() != "script" {
		t.Errorf("Name = %q", s.Name())
	}
	if s.PhasesPerIteration() != 1 {
		t.Errorf("PhasesPerIteration = %d", s.PhasesPerIteration())
	}
	if s.Accesses(0, 5) != nil {
		t.Error("out-of-range Accesses not nil")
	}
	s2 := &Script{ScriptName: "x", NumProcs: 2, Phases: 3}
	if s2.Name() != "x" || s2.PhasesPerIteration() != 3 {
		t.Error("Script fields not honoured")
	}
}

func TestMicroWorkloads(t *testing.T) {
	g := coherence.MustGeometry(64, 4096, 8)
	pc := ProducerConsumer(8, 0, []int{1, 2}, NewArena(g).Alloc(4), 5)
	if pc.Iterations() != 10 || pc.PhasesPerIteration() != 2 {
		t.Errorf("pc shape: %d phases, %d per iter", pc.Iterations(), pc.PhasesPerIteration())
	}
	// Producer writes in even phases; consumers read in odd phases.
	if len(pc.Accesses(0, 0)) != 4 || len(pc.Accesses(1, 0)) != 0 {
		t.Error("producer phase wrong")
	}
	if len(pc.Accesses(1, 1)) != 4 || len(pc.Accesses(0, 1)) != 0 {
		t.Error("consumer phase wrong")
	}
	for _, acc := range pc.Accesses(0, 0) {
		if !acc.Write {
			t.Error("producer issued a read")
		}
	}

	mig := Migratory(8, NewArena(g).Alloc(8), 6)
	// Each block is touched by exactly one proc per iteration, RMW.
	for iter := 0; iter < mig.Iterations(); iter++ {
		byBlock := make(map[coherence.Addr][]int)
		for p := 0; p < 8; p++ {
			for _, acc := range mig.Accesses(p, iter) {
				byBlock[acc.Addr] = append(byBlock[acc.Addr], p)
			}
		}
		for addr, procs := range byBlock {
			if len(procs) != 2 || procs[0] != procs[1] {
				t.Fatalf("iter %d block %#x touched by %v", iter, uint64(addr), procs)
			}
		}
	}

	rmw := ReadModifyWrite(4, 2, NewArena(g), 3)
	if rmw.Iterations() != 6 {
		t.Errorf("rmw phases = %d", rmw.Iterations())
	}
	if rmw.Name() != "read-modify-write" {
		t.Errorf("rmw name = %q", rmw.Name())
	}
}

func TestFactor3(t *testing.T) {
	cases := map[int][3]int{
		16: {4, 2, 2},
		8:  {2, 2, 2},
		12: {3, 2, 2},
		7:  {7, 1, 1},
		1:  {1, 1, 1},
		64: {4, 4, 4},
	}
	for procs, want := range cases {
		px, py, pz := factor3(procs)
		if px*py*pz != procs {
			t.Errorf("factor3(%d) = %d*%d*%d does not multiply back", procs, px, py, pz)
		}
		if [3]int{px, py, pz} != want {
			t.Errorf("factor3(%d) = %v, want %v", procs, [3]int{px, py, pz}, want)
		}
	}
}

func TestGridNeighbors(t *testing.T) {
	pairs := gridNeighbors(4, 2, 2)
	// x: 3*2*2=12, y: 4*1*2=8, z: 4*2*1=8 -> 28 pairs.
	if len(pairs) != 28 {
		t.Fatalf("gridNeighbors(4,2,2) = %d pairs, want 28", len(pairs))
	}
	seen := make(map[[2]int]bool)
	for _, pr := range pairs {
		if pr[0] == pr[1] || pr[0] < 0 || pr[1] >= 16 {
			t.Fatalf("bad pair %v", pr)
		}
		if seen[pr] {
			t.Fatalf("duplicate pair %v", pr)
		}
		seen[pr] = true
	}
}

func TestPickDistinct(t *testing.T) {
	r := newRNG(7)
	prefix := []int{5, 5}
	got := pickDistinctInto(prefix, r, 8, 3, 5)
	if len(got) != 5 || got[0] != 5 || got[1] != 5 {
		t.Fatalf("pickDistinctInto lost its prefix: %v", got)
	}
	// The prefix is not part of the distinct set: only the new picks
	// must be distinct and differ from exclude.
	seen := map[int]bool{}
	for _, p := range got[2:] {
		if p == 5 || p < 0 || p >= 8 || seen[p] {
			t.Fatalf("bad pick %v", got)
		}
		seen[p] = true
	}
	// n capped at procs-1.
	if got := pickDistinctInto(nil, r, 4, 10, 0); len(got) != 3 {
		t.Errorf("cap failed: %v", got)
	}
}

func TestRNG(t *testing.T) {
	// Deterministic per seed, different across seeds.
	a, b, c := newRNG(1), newRNG(1), newRNG(2)
	for i := 0; i < 10; i++ {
		va, vb, vc := a.next(), b.next(), c.next()
		if va != vb {
			t.Fatal("same seed diverged")
		}
		if va == vc {
			t.Fatal("different seeds collided")
		}
	}
	// Zero seed is remapped, not degenerate.
	z := newRNG(0)
	if z.next() == 0 && z.next() == 0 {
		t.Error("zero seed produced zeros")
	}
	assertPanics(t, "intn(0)", func() { newRNG(1).intn(0) })
}

func TestRNGPermProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%32) + 1
		p := newRNG(seed).permInto(nil, n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGFloatRange(t *testing.T) {
	r := newRNG(3)
	for i := 0; i < 1000; i++ {
		v := r.float()
		if v < 0 || v >= 1 {
			t.Fatalf("float out of range: %v", v)
		}
	}
}

// TestRecurringOrderProperties: variant 0 recurs exactly; all outputs
// are permutations; the dominant variant appears most often.
func TestRecurringOrder(t *testing.T) {
	const n, k = 12, 3
	counts := map[string]int{}
	keyOf := func(p []int) string {
		b := make([]byte, len(p))
		for i, v := range p {
			b[i] = byte(v)
		}
		return string(b)
	}
	for iter := 0; iter < 300; iter++ {
		o := recurringOrderInto(nil, 42, 7, iter, n, k, 0.7)
		seen := make([]bool, n)
		for _, v := range o {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("iter %d: not a permutation: %v", iter, o)
			}
			seen[v] = true
		}
		counts[keyOf(o)]++
	}
	if len(counts) > k {
		t.Fatalf("%d distinct orders, want <= %d", len(counts), k)
	}
	// The base order dominates (~70%).
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 150 {
		t.Errorf("dominant order only %d/300", max)
	}
	// Same (seed, id, iter) always yields the same order.
	a := recurringOrderInto(nil, 42, 7, 5, n, k, 0.7)
	b := recurringOrderInto(nil, 42, 7, 5, n, k, 0.7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("recurringOrder not deterministic")
		}
	}
}

func TestBarnesAssignmentsArePermutations(t *testing.T) {
	b := NewBarnes(16, ScaleSmall)
	for iter := 0; iter < b.iters; iter++ {
		assign := b.assignment(iter)
		seen := make([]bool, len(assign))
		for _, slot := range assign {
			if slot < 0 || slot >= len(assign) || seen[slot] {
				t.Fatalf("iter %d: assignment not a permutation", iter)
			}
			seen[slot] = true
		}
	}
	// Consecutive assignments actually differ (the rebuild moves cells).
	a0, a1 := b.assignment(0), b.assignment(1)
	same := 0
	for i := range a0 {
		if a0[i] == a1[i] {
			same++
		}
	}
	if same == len(a0) {
		t.Error("rebuild moved no cells")
	}
}

func TestDSMCTransfersSettle(t *testing.T) {
	d := NewDSMC(16, ScaleSmall)
	// After settling, a block's activity is stationary: the same
	// (flow, block) pair queried in two late iterations has a fixed
	// activity class, meaning its long-run rate is one of the three
	// tiers rather than the warm-up value.
	active := 0
	total := 0
	for f := range d.flows {
		for b := 0; b < d.flows[f].blocks.Blocks(); b++ {
			hits := 0
			for iter := d.settleIters; iter < d.settleIters+40; iter++ {
				if d.transfers(f, b, iter) {
					hits++
				}
			}
			total++
			if hits > 20 {
				active++
			}
		}
	}
	if active == 0 || active == total {
		t.Errorf("activity tiers missing: %d/%d active", active, total)
	}
}

// TestAppsAcrossNodeCounts: the generators must produce valid workloads
// for machine sizes other than the paper's 16 (the full-map limit is
// 64).
func TestAppsAcrossNodeCounts(t *testing.T) {
	for _, procs := range []int{2, 4, 8, 27, 32} {
		for _, a := range Registry(procs, ScaleSmall) {
			if a.Procs() != procs {
				t.Fatalf("%s@%d: Procs = %d", a.Name(), procs, a.Procs())
			}
			total := 0
			for iter := 0; iter < a.Iterations(); iter++ {
				for p := 0; p < procs; p++ {
					total += len(a.Accesses(p, iter))
				}
			}
			if total == 0 {
				t.Errorf("%s@%d generated no accesses", a.Name(), procs)
			}
		}
	}
}
