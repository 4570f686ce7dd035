package experiments

import (
	"reflect"
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/stats"
)

// emptyMemo returns a suite over s's already-loaded traces with an
// empty result memo.
func emptyMemo(s *Suite) *Suite {
	n := NewSuite(s.cfg).SetWorkers(s.workers)
	s.mu.Lock()
	for app, e := range s.traces {
		n.traces[app] = e
	}
	s.mu.Unlock()
	return n
}

// memoSnapshot deep-copies every memoized Result, keyed as the memo is.
func memoSnapshot(t *testing.T, s *Suite) map[resultKey]stats.Result {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[resultKey]stats.Result, len(s.results))
	for k, e := range s.results {
		<-e.done
		if e.err != nil {
			t.Fatalf("%+v: %v", k, e.err)
		}
		r := *e.res
		r.PerIter = append([]stats.Counter(nil), r.PerIter...)
		if e.res.Arcs != nil {
			r.Arcs = make(map[stats.Arc]*stats.Counter, len(e.res.Arcs))
			for a, c := range e.res.Arcs {
				cc := *c
				r.Arcs[a] = &cc
			}
		}
		out[k] = r
	}
	return out
}

// TestTablesShareOneWalk: whichever of Tables 5-7 runs first evaluates
// the eight paper configurations for every benchmark; the other two
// read the memo and add nothing to it. A memo hit returns the same
// Result whatever the pool width, and equals a fresh evaluation.
func TestTablesShareOneWalk(t *testing.T) {
	s := emptyMemo(smallSuite).SetWorkers(2)
	if _, err := Table6(s); err != nil {
		t.Fatal(err)
	}
	if got, want := len(s.results), len(paperConfigs)*len(s.Apps()); got != want {
		t.Fatalf("Table 6 memoized %d results, want %d", got, want)
	}
	before := make(map[resultKey]*resultEntry, len(s.results))
	for k, e := range s.results {
		before[k] = e
	}
	if _, err := Table5(s); err != nil {
		t.Fatal(err)
	}
	if _, err := Table7(s); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, s.results) {
		t.Errorf("Tables 5 and 7 changed the memo Table 6 filled: %d entries, then %d", len(before), len(s.results))
	}

	cfg := core.Config{Depth: 2, FilterMax: 1}
	hit, err := s.Evaluate("barnes", cfg, stats.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e := s.results[resultKey{app: "barnes", cfg: cfg}]; e == nil || e.res != hit {
		t.Error("a serial request did not hit the result a 2-worker walk memoized")
	}
	tr, err := s.Trace("barnes")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := stats.Evaluate(tr, cfg, stats.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hit, fresh) {
		t.Error("memoized result differs from a fresh evaluation")
	}
}

// TestMemoizedResultsUnmodified runs every driver that reads the memo
// twice over one suite: no driver may modify a shared Result, so the
// memo must read the same after the second pass as after the first.
func TestMemoizedResultsUnmodified(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every memo-reading driver twice")
	}
	s := emptyMemo(smallSuite)
	drivers := func() {
		t.Helper()
		for _, run := range []func() error{
			func() error { _, err := Table5(s); return err },
			func() error { _, err := Table6(s); return err },
			func() error { _, err := Table7(s); return err },
			func() error { _, err := Table8(s); return err },
			func() error { _, err := TimeToAdapt(s, 0.02); return err },
			func() error { _, err := FilterDepth(s); return err },
			func() error { _, err := SignaturePanels(s, s.Apps(), 8); return err },
		} {
			if err := run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	drivers()
	first := memoSnapshot(t, s)
	drivers()
	if second := memoSnapshot(t, s); !reflect.DeepEqual(first, second) {
		t.Error("a driver modified a memoized Result")
	}
}

// TestResultHoldsNoBank: a kept Result must not keep an evaluation's
// banks alive. No type reachable from stats.Result may be a bank, its
// layout or a free list of banks.
func TestResultHoldsNoBank(t *testing.T) {
	banned := map[reflect.Type]bool{
		reflect.TypeOf(core.Bank{}):   true,
		reflect.TypeOf(core.Layout{}): true,
		reflect.TypeOf(stats.Banks{}): true,
	}
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type, string)
	walk = func(typ reflect.Type, path string) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		if banned[typ] {
			t.Errorf("stats.Result reaches %v through %s", typ, path)
		}
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Map:
			walk(typ.Key(), path+"{key}")
			walk(typ.Elem(), path+"{}")
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		case reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
			t.Errorf("stats.Result has an opaque field at %s (%v) that could hold a bank", path, typ)
		}
	}
	walk(reflect.TypeOf(stats.Result{}), "Result")
}

// TestVariantSharesTraceKey: an edit that leaves the trace key alone
// yields the receiver itself, so its memo is shared; any other edit
// yields a distinct suite at the receiver's pool width.
func TestVariantSharesTraceKey(t *testing.T) {
	s := NewSuite(smallConfig()).SetWorkers(3)
	for name, edit := range map[string]func(*Config){
		"no-op":      func(*Config) {},
		"Workers":    func(c *Config) { c.Workers = 8 },
		"TraceCache": func(c *Config) { c.TraceCache = t.TempDir() },
	} {
		if v := s.variant(edit); v != s {
			t.Errorf("%s edit: variant is a new suite, want the receiver", name)
		}
	}
	v := s.variant(func(c *Config) { c.Machine.NetworkLatencyNs = 1000 })
	if v == s {
		t.Fatal("a 1000 ns variant is the 40 ns receiver")
	}
	if v.Workers() != s.Workers() {
		t.Errorf("variant pool width %d, want the receiver's %d", v.Workers(), s.Workers())
	}
	if got := v.Config().Machine.NetworkLatencyNs; got != 1000 {
		t.Errorf("variant latency %d ns, want 1000", got)
	}
}

// TestBaseVariantReadsMemo: the sweep point that is the suite's own
// machine reports exactly what the suite's memoized trace and depth-1
// evaluation give, and adds only that evaluation to the memo.
func TestBaseVariantReadsMemo(t *testing.T) {
	lat, err := LatencySweep(smallSuite, []uint64{40, 1000})
	if err != nil {
		t.Fatal(err)
	}
	abl, err := HalfMigratoryAblation(smallSuite)
	if err != nil {
		t.Fatal(err)
	}
	want := func(app string) (float64, uint64) {
		t.Helper()
		res, err := smallSuite.Evaluate(app, core.Config{Depth: 1}, stats.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := smallSuite.Trace(app)
		if err != nil {
			t.Fatal(err)
		}
		_, dir := tr.CountBySide()
		return 100 * res.Overall.Accuracy(), dir
	}
	var base int
	for _, r := range lat {
		if r.LatencyNs != 40 {
			continue
		}
		base++
		if acc, _ := want(r.App); r.Overall != acc {
			t.Errorf("%s at 40 ns: %v, suite's depth-1 evaluation gives %v", r.App, r.Overall, acc)
		}
	}
	for _, r := range abl {
		if !r.HalfMigratory {
			continue
		}
		base++
		if acc, dir := want(r.App); r.Overall != acc || r.DirMessages != dir {
			t.Errorf("%s half-migratory on: %v%% / %d dir messages, suite gives %v%% / %d",
				r.App, r.Overall, r.DirMessages, acc, dir)
		}
	}
	if n := 2 * len(smallSuite.Apps()); base != n {
		t.Errorf("%d base-machine rows, want %d", base, n)
	}

	s := emptyMemo(smallSuite)
	if _, err := LatencySweep(s, []uint64{40}); err != nil {
		t.Fatal(err)
	}
	for _, app := range s.Apps() {
		if s.results[resultKey{app: app, cfg: core.Config{Depth: 1}}] == nil {
			t.Errorf("%s: the 40 ns sweep point left no depth-1 result in the suite's memo", app)
		}
	}
	if len(s.results) != len(s.Apps()) {
		t.Errorf("memo holds %d results after one sweep point, want %d", len(s.results), len(s.Apps()))
	}
}

// TestFaultFreePointReadsMemo: the fault sweep's drop-0 point, whose
// plan is the suite's own, reports the suite's memoized depth-1
// evaluation and trace length with zero transport counters, and adds
// only that evaluation to the memo; a drop-0 plan with another seed (a
// fresh variant suite) reports the same row.
func TestFaultFreePointReadsMemo(t *testing.T) {
	s := emptyMemo(smallSuite)
	rows, err := FaultSweep(s, []float64{0}, s.cfg.Machine.Faults.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(s.Apps()) {
		t.Fatalf("%d rows, want %d", len(rows), len(s.Apps()))
	}
	for _, r := range rows {
		res := s.results[resultKey{app: r.App, cfg: core.Config{Depth: 1}}]
		if res == nil {
			t.Fatalf("%s: the drop-0 point left no depth-1 result in the suite's memo", r.App)
		}
		tr, err := s.Trace(r.App)
		if err != nil {
			t.Fatal(err)
		}
		if r.Overall != 100*res.res.Overall.Accuracy() || r.Messages != uint64(len(tr.Records)) ||
			r.Dropped != 0 || r.Duplicated != 0 || r.Retransmits != 0 {
			t.Errorf("%s: drop-0 row %+v, suite gives %v%% over %d messages", r.App, r, 100*res.res.Overall.Accuracy(), len(tr.Records))
		}
	}
	if len(s.results) != len(s.Apps()) {
		t.Errorf("memo holds %d results after the drop-0 point, want %d", len(s.results), len(s.Apps()))
	}
	fresh, err := FaultSweep(s, []float64{0}, s.cfg.Machine.Faults.Seed+42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, rows) {
		t.Errorf("drop-0 rows on a fresh variant %+v, on the suite %+v", fresh, rows)
	}
}
