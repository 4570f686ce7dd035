// Package table is the one open-addressed hash table keyed by uint64:
// stache's cache lines and directory entries, core's Message History
// Table (by block address) and each block's PHT (by packed history).
// Keys and values share one slot array, so a hit usually costs one
// cache miss. Linear probing at 3/4 load; deletion shifts the probe run
// back (no tombstones). Key 0 is real (block address 0 exists) and has
// its own slot, so 0 marks empty slots. A zero Table allocates nothing
// until its first insert. Each walks in an order fixed by the sequence
// of inserts and deletes: deterministic, but unsorted.
package table

// Table maps uint64 keys to values of type V.
type Table[V any] struct {
	slots   []slot[V]
	n       int
	hasZero bool
	zero    V
}

type slot[V any] struct {
	key uint64
	val V
}

// hash is the splitmix64 finalizer: block addresses share low bits.
func hash(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Len returns the number of stored keys.
func (t *Table[V]) Len() int { return t.n }

// probe returns key's array slot, or the empty slot that ends its
// probe run (-1 before the first insert).
func (t *Table[V]) probe(key uint64) (int, bool) {
	if len(t.slots) == 0 {
		return -1, false
	}
	mask := len(t.slots) - 1
	for i := int(hash(key)) & mask; ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case key:
			return i, true
		case 0:
			return i, false
		}
	}
}

// Find returns the value stored under key, or nil. The pointer is valid
// until the next Insert, Delete or Reset.
//
//cosmosvet:hotpath
func (t *Table[V]) Find(key uint64) *V {
	if key == 0 {
		if t.hasZero {
			return &t.zero
		}
		return nil
	}
	if i, ok := t.probe(key); ok {
		return &t.slots[i].val
	}
	return nil
}

// Insert stores v under key, which the caller has checked is absent,
// and returns a pointer to the stored value (valid as Find's).
//
//cosmosvet:hotpath
func (t *Table[V]) Insert(key uint64, v V) *V {
	t.n++
	if key == 0 {
		t.hasZero, t.zero = true, v
		return &t.zero
	}
	if 4*t.n > 3*len(t.slots) {
		t.grow()
	}
	i, _ := t.probe(key)
	t.slots[i] = slot[V]{key, v}
	return &t.slots[i].val
}

// Delete removes key, reporting whether it was present.
//
//cosmosvet:hotpath
func (t *Table[V]) Delete(key uint64) bool {
	var zero V
	if key == 0 {
		had := t.hasZero
		if had {
			t.n, t.hasZero, t.zero = t.n-1, false, zero
		}
		return had
	}
	hole, ok := t.probe(key)
	if !ok {
		return false
	}
	mask := len(t.slots) - 1
	for j := (hole + 1) & mask; t.slots[j].key != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole only if the hole lies on its
		// probe path, from its home slot up to j.
		if home := int(hash(t.slots[j].key)) & mask; (hole-home)&mask < (j-home)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = slot[V]{}
	t.n--
	return true
}

// Reset empties the table but keeps its slot array.
//
//cosmosvet:hotpath
func (t *Table[V]) Reset() {
	var zero V
	clear(t.slots)
	t.n, t.hasZero, t.zero = 0, false, zero
}

// Each calls fn for every entry, in table order. fn must not insert or
// delete.
func (t *Table[V]) Each(fn func(key uint64, v *V)) {
	if t.hasZero {
		fn(0, &t.zero)
	}
	for i := range t.slots {
		if s := &t.slots[i]; s.key != 0 {
			fn(s.key, &s.val)
		}
	}
}

// grow doubles the table (initially 8 slots) and rehashes.
func (t *Table[V]) grow() {
	old := t.slots
	//cosmosvet:allow hotpath doubling rehash; growth is amortized across inserts
	t.slots = make([]slot[V], max(8, 2*len(old)))
	for _, s := range old {
		if s.key != 0 {
			i, _ := t.probe(s.key)
			t.slots[i] = s
		}
	}
}
