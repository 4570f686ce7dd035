package workload

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestByNameMatchesRegistry: ByName builds only the named generator,
// and what it builds is exactly the matching Registry entry.
func TestByNameMatchesRegistry(t *testing.T) {
	for _, procs := range []int{16, 64, 1024} {
		for _, scale := range []Scale{ScaleSmall, ScaleMedium, ScaleFull} {
			for _, want := range Registry(procs, scale) {
				got, err := ByName(want.Name(), procs, scale)
				if err != nil {
					t.Fatalf("ByName(%s, %d, %s): %v", want.Name(), procs, scale, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("ByName(%s, %d, %s) differs from its Registry entry", want.Name(), procs, scale)
				}
			}
		}
	}
	_, err := ByName("nope", 16, ScaleSmall)
	const msg = `workload: unknown benchmark "nope" (want appbt, barnes, dsmc, moldyn, or unstructured)`
	if err == nil || err.Error() != msg {
		t.Errorf("ByName(nope) error = %v, want %s", err, msg)
	}
}

// paperAppenders builds fresh instances of every paper generator for
// the given machine, asserting each implements Appender.
func paperAppenders(t testing.TB, procs int, scale Scale) []App {
	t.Helper()
	apps := Registry(procs, scale)
	for _, a := range apps {
		if _, ok := a.(Appender); !ok {
			t.Fatalf("%s does not implement Appender", a.Name())
		}
	}
	return apps
}

// sweep appends every (phase, processor) sequence of app into buf in
// machine order and returns the grown buffer.
func sweep(app App, buf []Access) []Access {
	ap := app.(Appender)
	for phase := 0; phase < app.Iterations(); phase++ {
		for p := 0; p < app.Procs(); p++ {
			buf = ap.AppendAccesses(buf[:0], p, phase)
		}
	}
	return buf
}

// inOrder returns app's sequences indexed [phase][processor], generated
// in machine order.
func inOrder(app App) [][][]Access {
	out := make([][][]Access, app.Iterations())
	for phase := range out {
		out[phase] = make([][]Access, app.Procs())
		for p := range out[phase] {
			out[phase][p] = app.Accesses(p, phase)
		}
	}
	return out
}

// TestAppendAccessesAllocationFree: once a generator's scratch, epoch
// memo and the caller's buffer have grown, a full sweep over every
// (processor, phase) allocates nothing.
func TestAppendAccessesAllocationFree(t *testing.T) {
	for _, app := range paperAppenders(t, 64, ScaleMedium) {
		t.Run(app.Name(), func(t *testing.T) {
			buf := sweep(app, nil)
			if n := testing.AllocsPerRun(1, func() { buf = sweep(app, buf) }); n != 0 {
				t.Errorf("second sweep allocated %v times", n)
			}
		})
	}
}

// TestAppendAccessesCallOrder: a phase's sequence does not depend on
// which phases were generated before it — reverse and shuffled call
// orders reproduce the in-order streams, so no memo (moldyn's epoch
// index, barnes' assignments) leaks state between phases.
func TestAppendAccessesCallOrder(t *testing.T) {
	for _, procs := range []int{16, 64} {
		want := make(map[string][][][]Access)
		for _, app := range paperAppenders(t, procs, ScaleMedium) {
			want[app.Name()] = inOrder(app)
		}
		orders := map[string]func(app App) [][2]int{
			"reverse": func(app App) [][2]int {
				var calls [][2]int
				for phase := app.Iterations() - 1; phase >= 0; phase-- {
					for p := app.Procs() - 1; p >= 0; p-- {
						calls = append(calls, [2]int{phase, p})
					}
				}
				return calls
			},
			"shuffled": func(app App) [][2]int {
				var calls [][2]int
				for phase := 0; phase < app.Iterations(); phase++ {
					for p := 0; p < app.Procs(); p++ {
						calls = append(calls, [2]int{phase, p})
					}
				}
				rand.New(rand.NewSource(int64(procs))).Shuffle(len(calls), func(i, j int) {
					calls[i], calls[j] = calls[j], calls[i]
				})
				return calls
			},
		}
		for order, calls := range orders {
			for _, app := range paperAppenders(t, procs, ScaleMedium) {
				t.Run(fmt.Sprintf("%s/nodes%d/%s", app.Name(), procs, order), func(t *testing.T) {
					ap := app.(Appender)
					var buf []Access
					for _, c := range calls(app) {
						phase, p := c[0], c[1]
						buf = ap.AppendAccesses(buf[:0], p, phase)
						if !slices.Equal(buf, want[app.Name()][phase][p]) {
							t.Fatalf("phase %d proc %d differs from the in-order stream", phase, p)
						}
					}
				})
			}
		}
	}
}

// TestAppendAccessesKeepsPrefix: appending onto a non-empty dst keeps
// the prefix and appends exactly what Accesses returns.
func TestAppendAccessesKeepsPrefix(t *testing.T) {
	prefix := []Access{Write(0x40), Read(0x80)}
	for _, app := range paperAppenders(t, 16, ScaleMedium) {
		t.Run(app.Name(), func(t *testing.T) {
			ref, err := ByName(app.Name(), 16, ScaleMedium)
			if err != nil {
				t.Fatal(err)
			}
			want := inOrder(ref)
			ap := app.(Appender)
			dst := make([]Access, 0, 64)
			for phase := 0; phase < app.Iterations(); phase++ {
				for p := 0; p < app.Procs(); p++ {
					dst = ap.AppendAccesses(append(dst[:0], prefix...), p, phase)
					if !slices.Equal(dst[:len(prefix)], prefix) {
						t.Fatalf("phase %d proc %d: prefix overwritten", phase, p)
					}
					if !slices.Equal(dst[len(prefix):], want[phase][p]) {
						t.Fatalf("phase %d proc %d: appended sequence differs from Accesses", phase, p)
					}
				}
			}
		})
	}
}

// BenchmarkAppendAccesses measures workload generation alone: one op is
// a full machine-order sweep of every (phase, processor) at medium
// scale, appending into one reused buffer as the machine does.
func BenchmarkAppendAccesses(b *testing.B) {
	for _, name := range []string{"appbt", "barnes", "dsmc", "moldyn", "unstructured"} {
		for _, procs := range []int{16, 1024} {
			b.Run(fmt.Sprintf("%s/nodes%d", name, procs), func(b *testing.B) {
				app, err := ByName(name, procs, ScaleMedium)
				if err != nil {
					b.Fatal(err)
				}
				buf := sweep(app, nil)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf = sweep(app, buf)
				}
			})
		}
	}
}
