package stache

import (
	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/table"
)

// blocks holds per-block state (cache lines, directory entries) by
// address, by value in segments that double in size and never move: a
// *T stays valid for the whole run. Blocks are never removed.
type blocks[T any] struct {
	index table.Table[*T]
	seg   []T // the segment being filled
}

// get returns addr's state, or nil if the block was never added.
//
//cosmosvet:hotpath
func (b *blocks[T]) get(addr coherence.Addr) *T {
	if v := b.index.Find(uint64(addr)); v != nil {
		return *v
	}
	return nil
}

// add stores init as the state of absent block addr.
//
//cosmosvet:hotpath
func (b *blocks[T]) add(addr coherence.Addr, init T) *T {
	if len(b.seg) == cap(b.seg) {
		//cosmosvet:allow hotpath doubling segment; earlier segments never move
		b.seg = make([]T, 0, max(8, 2*cap(b.seg)))
	}
	b.seg = b.seg[:len(b.seg)+1]
	v := &b.seg[len(b.seg)-1]
	*v = init
	return *b.index.Insert(uint64(addr), v)
}

func (b *blocks[T]) len() int { return b.index.Len() }

// each calls fn for every block, in table order (callers sort).
func (b *blocks[T]) each(fn func(addr coherence.Addr, v *T)) {
	b.index.Each(func(k uint64, v **T) { fn(coherence.Addr(k), *v) })
}
