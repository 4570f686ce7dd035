package core

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

// drive feeds n pseudo-random observations from r into p over a small
// block pool and returns the observation stream for replay elsewhere.
func drive(t testing.TB, p *Predictor, r *rand.Rand, n int) []struct {
	addr coherence.Addr
	tup  coherence.Tuple
} {
	t.Helper()
	obs := make([]struct {
		addr coherence.Addr
		tup  coherence.Tuple
	}, n)
	for i := range obs {
		obs[i].addr = coherence.Addr(r.Intn(12) * 64)
		obs[i].tup = coherence.Tuple{
			Sender: coherence.NodeID(r.Intn(16)),
			Type:   coherence.MsgType(1 + r.Intn(int(coherence.NumMsgTypes)-1)),
		}
		p.Observe(obs[i].addr, obs[i].tup)
	}
	return obs
}

// TestSnapshotRoundTrip pins the core durability contract: restore
// rebuilds byte-identical canonical state, and a restored predictor
// predicts exactly like the original on subsequent traffic.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, cfg := range []Config{{Depth: 1}, {Depth: 2, FilterMax: 1}, {Depth: 3, FilterMax: 2}, {Depth: 4, FilterMax: 1}} {
		p := MustNew(cfg)
		drive(t, p, rand.New(rand.NewSource(int64(cfg.Depth)*100+int64(cfg.FilterMax))), 4000)

		snap := p.Snapshot()
		q := MustNew(Config{Depth: 1})
		if err := q.Restore(snap); err != nil {
			t.Fatalf("cfg %+v: Restore: %v", cfg, err)
		}
		if q.Config() != cfg {
			t.Fatalf("restored config %+v, want %+v", q.Config(), cfg)
		}
		if got := q.Snapshot(); !bytes.Equal(got, snap) {
			t.Fatalf("cfg %+v: re-snapshot differs from original (%d vs %d bytes)", cfg, len(got), len(snap))
		}
		if p.StateDigest() != q.StateDigest() {
			t.Fatalf("cfg %+v: digests differ after restore", cfg)
		}
		if p.MHREntries() != q.MHREntries() || p.PHTEntries() != q.PHTEntries() {
			t.Fatalf("cfg %+v: table sizes differ: (%d,%d) vs (%d,%d)",
				cfg, p.MHREntries(), p.PHTEntries(), q.MHREntries(), q.PHTEntries())
		}

		// The restored predictor must behave identically from here on.
		r := rand.New(rand.NewSource(99))
		for i := 0; i < 2000; i++ {
			addr := coherence.Addr(r.Intn(12) * 64)
			tup := coherence.Tuple{
				Sender: coherence.NodeID(r.Intn(16)),
				Type:   coherence.MsgType(1 + r.Intn(int(coherence.NumMsgTypes)-1)),
			}
			p1, ok1, c1 := p.Observe(addr, tup)
			p2, ok2, c2 := q.Observe(addr, tup)
			if p1 != p2 || ok1 != ok2 || c1 != c2 {
				t.Fatalf("cfg %+v: step %d diverged: (%v,%v,%v) vs (%v,%v,%v)",
					cfg, i, p1, ok1, c1, p2, ok2, c2)
			}
		}
	}
}

// TestSnapshotCanonical checks the encoding is a function of logical
// state, not construction history: a predictor grown by observation and
// one built by restore emit identical bytes, and forgetting then
// re-learning a block yields the same bytes as never having forgotten
// an untouched one.
func TestSnapshotCanonical(t *testing.T) {
	cfg := Config{Depth: 2, FilterMax: 1}
	p := MustNew(cfg)
	drive(t, p, rand.New(rand.NewSource(7)), 3000)

	q := MustNew(cfg)
	if err := q.Restore(p.Snapshot()); err != nil {
		t.Fatal(err)
	}
	// Same further traffic through differently-constructed predictors.
	r1, r2 := rand.New(rand.NewSource(8)), rand.New(rand.NewSource(8))
	drive(t, p, r1, 1000)
	drive(t, q, r2, 1000)
	if !bytes.Equal(p.Snapshot(), q.Snapshot()) {
		t.Fatal("grown and restored predictors diverged under identical traffic")
	}
}

// TestSnapshotEmpty covers the trivial states.
func TestSnapshotEmpty(t *testing.T) {
	p := MustNew(Config{Depth: 2})
	snap := p.Snapshot()
	q := MustNew(Config{Depth: 4, FilterMax: 2})
	if err := q.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if q.Config() != p.Config() || q.MHREntries() != 0 || q.PHTEntries() != 0 {
		t.Fatalf("restored empty predictor wrong: cfg=%+v mhr=%d pht=%d",
			q.Config(), q.MHREntries(), q.PHTEntries())
	}
}

// TestRestoreRejectsDamage walks every truncation length and a bit
// flip in every byte: Restore must reject all of them (or, for the
// handful of flips that land in "don't care" bits and still decode to
// a self-consistent snapshot, at least never panic), and a failed
// Restore must leave the receiver usable.
func TestRestoreRejectsDamage(t *testing.T) {
	p := MustNew(Config{Depth: 2, FilterMax: 1})
	drive(t, p, rand.New(rand.NewSource(3)), 600)
	snap := p.Snapshot()

	damage := damaged(snap, 0x40)
	for cut := 0; cut < len(snap); cut++ {
		q := MustNew(Config{Depth: 1})
		if err := q.Restore(damage[cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes not rejected", cut, len(snap))
		}
	}

	rejected := 0
	for _, mut := range damage[len(snap):] {
		q := MustNew(Config{Depth: 1})
		if err := q.Restore(mut); err != nil {
			rejected++
		}
	}
	// Most single-bit flips must be caught by structural validation
	// (order, masks, ranges, lengths); flips confined to stored values
	// like MHR contents are legal states and cannot be told apart
	// without the CPSS checksum, which the serve codec layers on top.
	if rejected*2 < len(snap) {
		t.Fatalf("only %d of %d bit flips rejected by structural validation", rejected, len(snap))
	}

	// A rejecting Restore leaves the receiver in its prior state.
	q := MustNew(Config{Depth: 3})
	drive(t, q, rand.New(rand.NewSource(4)), 100)
	before := q.Snapshot()
	if err := q.Restore(snap[:len(snap)-1]); err == nil {
		t.Fatal("damaged restore unexpectedly succeeded")
	}
	if !bytes.Equal(q.Snapshot(), before) {
		t.Fatal("failed Restore mutated the receiver")
	}
}

// TestRestoreAfterForget pins interaction with Forget: a snapshot taken
// after forgetting blocks restores without resurrecting them.
func TestRestoreAfterForget(t *testing.T) {
	p := MustNew(Config{Depth: 2})
	obs := drive(t, p, rand.New(rand.NewSource(5)), 2000)
	p.Forget(obs[0].addr)
	snap := p.Snapshot()
	q := MustNew(Config{Depth: 2})
	if err := q.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if q.MHREntries() != p.MHREntries() || q.PHTEntriesFor(obs[0].addr) != 0 {
		t.Fatalf("forgotten block leaked through restore: mhr=%d want %d, pht=%d",
			q.MHREntries(), p.MHREntries(), q.PHTEntriesFor(obs[0].addr))
	}
}

// damaged returns every truncation of enc (index cut holds enc[:cut])
// followed by enc with each byte in turn XORed with mask: the damage
// TestRestoreRejectsDamage walks and FuzzRestore starts from.
func damaged(enc []byte, mask byte) [][]byte {
	out := make([][]byte, 0, 2*len(enc))
	for cut := 0; cut < len(enc); cut++ {
		out = append(out, enc[:cut])
	}
	for i := range enc {
		mut := bytes.Clone(enc)
		mut[i] ^= mask
		out = append(out, mut)
	}
	return out
}

// TestSnapshotSizeExact: SnapshotSize is the snapshot's exact length in
// every state, and AppendSnapshot leaves what buf already held intact.
func TestSnapshotSizeExact(t *testing.T) {
	p := MustNew(Config{Depth: 2, FilterMax: 1})
	check := func(when string) {
		t.Helper()
		snap := p.Snapshot()
		if len(snap) != p.SnapshotSize() {
			t.Fatalf("%s: snapshot is %d bytes, SnapshotSize says %d", when, len(snap), p.SnapshotSize())
		}
		prefix := []byte("prefix")
		got := p.AppendSnapshot(prefix)
		if !bytes.Equal(got[:len(prefix)], []byte("prefix")) || !bytes.Equal(got[len(prefix):], snap) {
			t.Fatalf("%s: AppendSnapshot onto a prefix is not prefix+Snapshot", when)
		}
	}
	check("empty")
	obs := drive(t, p, rand.New(rand.NewSource(11)), 1500)
	check("driven")
	p.Forget(obs[0].addr)
	check("after Forget")
	if err := p.Restore(p.Snapshot()); err != nil {
		t.Fatal(err)
	}
	check("restored")
}

// TestAppendSnapshotAllocs: with SnapshotSize bytes of spare capacity
// and its sort scratch warmed, AppendSnapshot allocates nothing.
func TestAppendSnapshotAllocs(t *testing.T) {
	p := MustNew(Config{Depth: 2, FilterMax: 1})
	drive(t, p, rand.New(rand.NewSource(12)), 2000)
	buf := make([]byte, 0, p.SnapshotSize())
	if allocs := testing.AllocsPerRun(20, func() { buf = p.AppendSnapshot(buf[:0]) }); allocs != 0 {
		t.Fatalf("AppendSnapshot: %v allocs, want 0", allocs)
	}
}

// FuzzRestore: whatever bytes Restore accepts must snapshot back to
// exactly those bytes, so a predictor state has one encoding and a
// restore is never a lossy reading. The seeds are the truncations and
// byte flips of TestRestoreRejectsDamage, on a smaller predictor.
func FuzzRestore(f *testing.F) {
	p := MustNew(Config{Depth: 2, FilterMax: 1})
	drive(f, p, rand.New(rand.NewSource(3)), 40)
	for _, d := range damaged(p.Snapshot(), 0x40) {
		f.Add(d)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q := MustNew(Config{Depth: 1})
		if err := q.Restore(data); err != nil {
			return
		}
		if got := q.Snapshot(); !bytes.Equal(got, data) {
			t.Fatalf("Restore accepted %d bytes that snapshot back as %d different bytes", len(data), len(got))
		}
	})
}
