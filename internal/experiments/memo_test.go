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
