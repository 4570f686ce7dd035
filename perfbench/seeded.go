package main

import (
	"time"

	"github.com/cosmos-coherence/cosmos/internal/workload"
)

// seededApp is a paper application whose processor-to-node assignment
// is varied by the workload seed: node p runs the access stream written
// for processor perm[p]. The seed applies one random transposition per
// 256 nodes (at least one), which moves a few processors' data away
// from their home nodes — enough to change the message stream, not enough to change
// the run's character, so figures from different seeds stay
// comparable. Seed 0 is the identity and reproduces cosmos-tables
// exactly.
//
// It also times, for the traced run, the access generation the machine
// asks for: gen is an aggregate span handle on tr (tr nil = untraced).
type seededApp struct {
	workload.App
	perm []int
	tr   *tracer
	gen  int
}

// newSeededApp wraps app for the given workload seed. index tells the
// applications of one workload apart, so each gets its own swap.
func newSeededApp(app workload.App, seed int64, index int) *seededApp {
	n := app.Procs()
	a := &seededApp{App: app, perm: make([]int, n), gen: -1}
	for p := range a.perm {
		a.perm[p] = p
	}
	if seed == 0 || n < 2 {
		return a
	}
	x := uint64(seed)<<8 ^ uint64(index)
	for k := 0; k < max(1, n/256); k++ {
		x = splitmix(x)
		p := int(x % uint64(n))
		q := int((x >> 32) % uint64(n-1))
		if q >= p {
			q++
		}
		a.perm[p], a.perm[q] = a.perm[q], a.perm[p]
	}
	return a
}

func (a *seededApp) proc(p int) int { return a.perm[p] }

func (a *seededApp) Accesses(p, iter int) []workload.Access {
	return a.App.Accesses(a.proc(p), iter)
}

// AppendAccesses forwards through workload.AppendAccesses so the
// wrapped generator's buffer-reusing path is kept: without this method
// the machine would fall back to the allocating Accesses path and the
// benchmark would measure a different program.
func (a *seededApp) AppendAccesses(dst []workload.Access, p, iter int) []workload.Access {
	if a.tr == nil {
		return workload.AppendAccesses(a.App, dst, a.proc(p), iter)
	}
	t0 := time.Now()
	dst = workload.AppendAccesses(a.App, dst, a.proc(p), iter)
	a.tr.add(a.gen, time.Since(t0))
	return dst
}

// splitmix is the SplitMix64 finalizer: a fixed, well-mixed map from
// seed to input choices, independent of math/rand's evolution.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
