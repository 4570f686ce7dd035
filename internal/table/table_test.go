package table

import (
	"math/rand"
	"sort"
	"testing"
)

// check compares every observable of t against the reference map.
func check(t *testing.T, tb *Table[int], ref map[uint64]int, step int) {
	t.Helper()
	if tb.Len() != len(ref) {
		t.Fatalf("step %d: Len = %d, reference holds %d", step, tb.Len(), len(ref))
	}
	for k, v := range ref {
		if got := tb.Find(k); got == nil || *got != v {
			t.Fatalf("step %d: Find(%#x) = %v, want %d", step, k, got, v)
		}
	}
	seen := 0
	tb.Each(func(k uint64, v *int) {
		seen++
		if want, ok := ref[k]; !ok || *v != want {
			t.Fatalf("step %d: Each yields %#x=%d, reference has %d (present %v)", step, k, *v, want, ok)
		}
	})
	if seen != len(ref) {
		t.Fatalf("step %d: Each visited %d entries, want %d", step, seen, len(ref))
	}
}

// TestTableMatchesMap drives random inserts, updates, deletes and
// resets against a Go map. Keys come from a small universe that
// includes 0, so probe runs collide, deletions shift entries across
// the array's wrap-around point, and the table grows repeatedly.
func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tb Table[int]
	ref := map[uint64]int{}
	universe := []uint64{0}
	for len(universe) < 600 {
		universe = append(universe, rng.Uint64()>>rng.Intn(64))
	}
	for step := 0; step < 40000; step++ {
		k := universe[rng.Intn(len(universe))]
		switch op := rng.Intn(100); {
		case op < 55:
			if p := tb.Find(k); p != nil {
				*p = step
			} else if got := tb.Insert(k, step); *got != step {
				t.Fatalf("step %d: Insert returned %d", step, *got)
			}
			ref[k] = step
		case op < 95:
			_, had := ref[k]
			if got := tb.Delete(k); got != had {
				t.Fatalf("step %d: Delete(%#x) = %v, want %v", step, k, got, had)
			}
			delete(ref, k)
		case op < 96:
			tb.Reset()
			clear(ref)
		default:
			if _, ok := ref[k]; (tb.Find(k) != nil) != ok {
				t.Fatalf("step %d: Find(%#x) disagrees with reference", step, k)
			}
		}
		if step%97 == 0 {
			check(t, &tb, ref, step)
		}
	}
	check(t, &tb, ref, -1)
}

// TestDeleteAcrossWrap fills one probe run that crosses the end of the
// array and deletes each member in turn: every survivor must stay
// reachable after the backward shift.
func TestDeleteAcrossWrap(t *testing.T) {
	var probe Table[int]
	probe.Insert(1, 0) // allocate the initial 8 slots
	mask := uint64(len(probe.slots) - 1)
	// Keys whose home is one of the last two slots: their run wraps.
	var keys []uint64
	for k := uint64(1); len(keys) < 5; k++ {
		if h := hash(k) & mask; h >= mask-1 {
			keys = append(keys, k)
		}
	}
	for del := range keys {
		var tb Table[int]
		for i, k := range keys {
			tb.Insert(k, i)
		}
		if len(tb.slots) != len(probe.slots) {
			t.Fatalf("table grew to %d slots; the run no longer wraps", len(tb.slots))
		}
		if !tb.Delete(keys[del]) {
			t.Fatalf("Delete(%#x) missed", keys[del])
		}
		for i, k := range keys {
			got := tb.Find(k)
			if i == del {
				if got != nil {
					t.Fatalf("deleted key %#x still found", k)
				}
				continue
			}
			if got == nil || *got != i {
				t.Fatalf("after deleting %#x: Find(%#x) = %v, want %d", keys[del], k, got, i)
			}
		}
	}
}

// TestZeroKeyAndZeroValue: key 0 is an ordinary key, and the zero Table
// allocates nothing until its first insert.
func TestZeroKeyAndZeroValue(t *testing.T) {
	var tb Table[int]
	if tb.Find(0) != nil || tb.Find(7) != nil || tb.Delete(0) || tb.Delete(7) || tb.Len() != 0 {
		t.Fatal("empty table reports content")
	}
	if tb.slots != nil {
		t.Fatal("lookups on the zero Table allocated")
	}
	tb.Insert(0, 5)
	if tb.slots != nil {
		t.Fatal("key 0 should not need the arrays")
	}
	tb.Insert(8, 6)
	if p := tb.Find(0); p == nil || *p != 5 || tb.Len() != 2 {
		t.Fatal("key 0 lost")
	}
	var keys []uint64
	tb.Each(func(k uint64, _ *int) { keys = append(keys, k) })
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if len(keys) != 2 || keys[0] != 0 || keys[1] != 8 {
		t.Fatalf("Each keys = %v", keys)
	}
}

// TestSteadyStateAllocatesNothing: once grown, lookups, updates,
// deletes, re-inserts and resets allocate nothing.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	var tb Table[int]
	for k := uint64(0); k < 1000; k++ {
		tb.Insert(k*64, int(k))
	}
	allocs := testing.AllocsPerRun(10, func() {
		tb.Reset()
		for k := uint64(0); k < 1000; k++ {
			tb.Insert(k*64, int(k))
		}
		for k := uint64(0); k < 1000; k += 2 {
			tb.Delete(k * 64)
		}
		for k := uint64(1); k < 1000; k += 2 {
			*tb.Find(k * 64)++
		}
	})
	if allocs != 0 {
		t.Fatalf("steady state allocates %.1f times per run", allocs)
	}
}
