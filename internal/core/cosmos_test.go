package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

func tup(sender int, t coherence.MsgType) coherence.Tuple {
	return coherence.Tuple{Sender: coherence.NodeID(sender), Type: t}
}

func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{{Depth: 0}, {Depth: 5}, {Depth: -1}, {Depth: 2, FilterMax: -1}} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted invalid config", cfg)
		}
	}
	for d := 1; d <= MaxDepth; d++ {
		if _, err := New(Config{Depth: d}); err != nil {
			t.Errorf("New(depth=%d): %v", d, err)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic on invalid config")
		}
	}()
	MustNew(Config{Depth: 0})
}

// TestFigure3Example reproduces the worked example of Figure 3: after
// observing the shared_counter's directory stream, seeing
// <P2, get_ro_request> predicts <P1, inval_rw_response>.
func TestFigure3Example(t *testing.T) {
	p := MustNew(Config{Depth: 1})
	const addr = coherence.Addr(0x1000)
	// Figure 2's directory stream for one producer (P1), one consumer
	// (P2): producer writes, consumer reads, repeatedly.
	round := []coherence.Tuple{
		tup(1, coherence.GetRWReq),
		tup(2, coherence.InvalROResp),
		tup(2, coherence.GetROReq),
		tup(1, coherence.InvalRWResp),
	}
	for r := 0; r < 3; r++ {
		for _, tu := range round {
			p.Update(addr, tu)
		}
	}
	// History is now <P1, inval_rw_response>; next in pattern is
	// <P1, get_rw_request>.
	pred, ok := p.Predict(addr)
	if !ok || pred != tup(1, coherence.GetRWReq) {
		t.Fatalf("Predict = %v, %v; want <P1, get_rw_request>", pred, ok)
	}
	// Walk one more round, checking each step predicts the next.
	for i, tu := range round {
		pred, ok := p.Predict(addr)
		if !ok || pred != tu {
			t.Fatalf("step %d: Predict = %v, %v; want %v", i, pred, ok, tu)
		}
		p.Update(addr, tu)
	}
}

// TestNoPredictionBeforeWarmup: a block needs more protocol references
// than the MHR depth before Cosmos predicts (and before a PHT exists —
// the Table 7 allocation rule).
func TestNoPredictionBeforeWarmup(t *testing.T) {
	for depth := 1; depth <= MaxDepth; depth++ {
		p := MustNew(Config{Depth: depth})
		const addr = coherence.Addr(0x40)
		for i := 0; i < depth; i++ {
			if _, ok := p.Predict(addr); ok {
				t.Fatalf("depth %d: prediction available after %d messages", depth, i)
			}
			p.Update(addr, tup(i, coherence.GetROReq))
			if i < depth && p.PHTEntriesFor(addr) != 0 {
				t.Fatalf("depth %d: PHT allocated after %d messages (refs <= depth)", depth, i+1)
			}
		}
		// After depth messages the history is full but the pattern has
		// no entry yet.
		if _, ok := p.Predict(addr); ok {
			t.Fatalf("depth %d: prediction with empty PHT", depth)
		}
		p.Update(addr, tup(14, coherence.GetRWReq))
		if p.PHTEntriesFor(addr) != 1 {
			t.Fatalf("depth %d: PHT entries = %d, want 1", depth, p.PHTEntriesFor(addr))
		}
	}
}

// TestOutOfOrderAdaptation reproduces Section 3.5's two-consumer
// scenario: the get_ro_requests of two consumers arrive in either
// order, and Cosmos adapts — once an order has been seen, the arrival
// of the first consumer's request "suggests strongly" the other
// consumer's request, and Cosmos predicts it. When the order flips, the
// first round mispredicts and the next same-order round is correct
// again (depth-1 entries retrain; this retraining churn is precisely
// the depth-1 noise that Table 5 shows history depth removing).
func TestOutOfOrderAdaptation(t *testing.T) {
	p := MustNew(Config{Depth: 1})
	const addr = coherence.Addr(0x80)
	read1, read2 := tup(1, coherence.GetROReq), tup(2, coherence.GetROReq)
	lead := tup(3, coherence.InvalRWResp) // the message preceding the reads

	round := func(first, second coherence.Tuple) (secondPredicted bool) {
		p.Update(addr, lead)
		p.Update(addr, first)
		pred, ok := p.Predict(addr)
		p.Update(addr, second)
		return ok && pred == second
	}

	// Two rounds of order A: the second A round predicts the second
	// consumer from the first.
	round(read1, read2)
	if !round(read1, read2) {
		t.Error("repeated order A: second read not predicted")
	}
	// Order flips: first B round may miss, but the next B round hits.
	round(read2, read1)
	if !round(read2, read1) {
		t.Error("repeated order B: second read not predicted")
	}
	// And back to A: one adaptation round, then correct again.
	round(read1, read2)
	if !round(read1, read2) {
		t.Error("order A after B: second read not predicted")
	}
}

// TestDepthDisambiguates reproduces the second Section 3.5 example:
// three consumers arriving in rotating order defeat depth 1 on the
// repeated tuple type but a depth-2 history predicts the third reader
// correctly.
func TestDepthDisambiguates(t *testing.T) {
	const addr = coherence.Addr(0xc0)
	rounds := [][]coherence.Tuple{
		{tup(1, coherence.GetROReq), tup(2, coherence.GetROReq), tup(3, coherence.GetROReq)},
		{tup(2, coherence.GetROReq), tup(1, coherence.GetROReq), tup(3, coherence.GetROReq)},
	}
	// With depth 2, history <a,b> identifies the missing third reader.
	p := MustNew(Config{Depth: 2})
	lead := tup(4, coherence.InvalRWResp)
	for r := 0; r < 6; r++ {
		p.Update(addr, lead)
		for _, tu := range rounds[r%2] {
			p.Update(addr, tu)
		}
	}
	// Replay: after <lead, P1>, with depth 2 the history (lead, P1-read)
	// appeared only in rounds[0], followed by P2's read.
	p.Update(addr, lead)
	p.Update(addr, rounds[0][0])
	p.Update(addr, rounds[0][1])
	// History <P1-read, P2-read> -> P3's read.
	if pred, ok := p.Predict(addr); !ok || pred != rounds[0][2] {
		t.Errorf("depth 2: Predict = %v, %v; want %v", pred, ok, rounds[0][2])
	}
}

// TestFilterAbsorbsNoise reproduces Section 3.6's A,B vs A,C,B
// example: with a single-bit filter (max 1), a rare interloper does
// not destroy the learned A->B prediction; it takes two consecutive
// mis-predictions to retrain.
func TestFilterAbsorbsNoise(t *testing.T) {
	a, b, c := tup(1, coherence.GetROReq), tup(2, coherence.InvalROResp), tup(3, coherence.GetRWReq)
	const addr = coherence.Addr(0x100)

	p := MustNew(Config{Depth: 1, FilterMax: 1})
	// Train A -> B several times (counter saturates).
	for i := 0; i < 3; i++ {
		p.Update(addr, a)
		p.Update(addr, b)
	}
	// Noise: A -> C once.
	p.Update(addr, a)
	p.Update(addr, c)
	// The prediction for history A must still be B.
	p.Update(addr, a)
	if pred, ok := p.Predict(addr); !ok || pred != b {
		t.Fatalf("after one noisy round: Predict = %v, %v; want %v (filtered)", pred, ok, b)
	}
	p.Update(addr, b)

	// Without a filter, one mis-prediction retrains immediately.
	q := MustNew(Config{Depth: 1, FilterMax: 0})
	for i := 0; i < 3; i++ {
		q.Update(addr, a)
		q.Update(addr, b)
	}
	q.Update(addr, a)
	q.Update(addr, c)
	q.Update(addr, a)
	if pred, ok := q.Predict(addr); !ok || pred != c {
		t.Fatalf("unfiltered: Predict = %v, %v; want %v", pred, ok, c)
	}
}

// TestFilterRetrainsAfterConsecutiveMisses: two consecutive
// mis-predictions replace the prediction even with the single-bit
// filter (the paper's stated behaviour).
func TestFilterRetrainsAfterConsecutiveMisses(t *testing.T) {
	a, b, c := tup(1, coherence.GetROReq), tup(2, coherence.InvalROResp), tup(3, coherence.GetRWReq)
	const addr = coherence.Addr(0x140)
	p := MustNew(Config{Depth: 1, FilterMax: 1})
	for i := 0; i < 3; i++ {
		p.Update(addr, a)
		p.Update(addr, b)
	}
	// The pattern changes for good: A -> C.
	for i := 0; i < 2; i++ {
		p.Update(addr, a)
		p.Update(addr, c) // first miss decrements, second replaces
	}
	p.Update(addr, a)
	if pred, ok := p.Predict(addr); !ok || pred != c {
		t.Fatalf("after two misses: Predict = %v, %v; want %v", pred, ok, c)
	}
}

// TestObserveAccounting: Observe returns (prediction, predicted,
// correct) consistently with Predict+Update.
func TestObserve(t *testing.T) {
	p := MustNew(Config{Depth: 1})
	const addr = coherence.Addr(0x180)
	a, b := tup(1, coherence.GetROReq), tup(2, coherence.GetRWReq)

	if _, predicted, _ := p.Observe(addr, a); predicted {
		t.Error("first message predicted")
	}
	if _, predicted, _ := p.Observe(addr, b); predicted {
		t.Error("second message predicted (PHT was empty)")
	}
	p.Observe(addr, a) // trains b->a
	if pred, predicted, correct := p.Observe(addr, b); !predicted || !correct || pred != b {
		t.Errorf("Observe = %v,%v,%v; want b,true,true", pred, predicted, correct)
	}
	if pred, predicted, correct := p.Observe(addr, b); !predicted || correct || pred != a {
		t.Errorf("Observe = %v,%v,%v; want a,true,false", pred, predicted, correct)
	}
}

// TestBlocksIndependent: histories and PHTs are per-block.
func TestBlocksIndependent(t *testing.T) {
	p := MustNew(Config{Depth: 1})
	a1, a2 := coherence.Addr(0x40), coherence.Addr(0x80)
	x, y, z := tup(1, coherence.GetROReq), tup(2, coherence.GetRWReq), tup(3, coherence.UpgradeReq)
	p.Update(a1, x)
	p.Update(a1, y) // a1: x->y
	p.Update(a2, x)
	p.Update(a2, z) // a2: x->z
	p.Update(a1, x)
	p.Update(a2, x)
	if pred, ok := p.Predict(a1); !ok || pred != y {
		t.Errorf("a1 Predict = %v, %v; want %v", pred, ok, y)
	}
	if pred, ok := p.Predict(a2); !ok || pred != z {
		t.Errorf("a2 Predict = %v, %v; want %v", pred, ok, z)
	}
}

func TestHistory(t *testing.T) {
	p := MustNew(Config{Depth: 3})
	const addr = coherence.Addr(0x200)
	if h := p.History(addr); h != nil {
		t.Errorf("History of unseen block = %v", h)
	}
	seq := []coherence.Tuple{
		tup(1, coherence.GetROReq),
		tup(2, coherence.GetRWReq),
		tup(3, coherence.UpgradeReq),
		tup(4, coherence.InvalROResp),
	}
	p.Update(addr, seq[0])
	h := p.History(addr)
	if len(h) != 1 || h[0] != seq[0] {
		t.Fatalf("History after 1 = %v", h)
	}
	for _, tu := range seq[1:] {
		p.Update(addr, tu)
	}
	h = p.History(addr)
	want := seq[1:] // last three, oldest first
	if len(h) != 3 {
		t.Fatalf("History = %v", h)
	}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("History = %v, want %v", h, want)
		}
	}
}

// TestMemoryStats checks the Table 7 accounting formula.
func TestMemoryStats(t *testing.T) {
	p := MustNew(Config{Depth: 1})
	// Block A: 4 messages in a 2-cycle -> 2 PHT entries.
	a := coherence.Addr(0x40)
	for i := 0; i < 2; i++ {
		p.Update(a, tup(1, coherence.GetROReq))
		p.Update(a, tup(2, coherence.GetRWReq))
	}
	// Block B: 1 message -> MHR entry, no PHT.
	p.Update(coherence.Addr(0x80), tup(1, coherence.GetROReq))

	var m MemoryStats
	m.Add(p)
	if m.MHREntries != 2 || m.PHTEntries != 2 {
		t.Fatalf("MemoryStats = %+v", m)
	}
	if got := m.Ratio(); got != 1.0 {
		t.Errorf("Ratio = %v, want 1.0", got)
	}
	// Ovhd = 2 * (1 + 1*(1+1)) * 100 / 128 = 4.6875%.
	if got := m.Overhead(1, 128); got < 4.68 || got > 4.69 {
		t.Errorf("Overhead = %v, want ~4.6875", got)
	}
	var empty MemoryStats
	if empty.Ratio() != 0 {
		t.Error("empty Ratio != 0")
	}
}

// TestTupleBitsRoundTrip: the 16-bit packing is injective over the
// machine's domain (property-based).
func TestTupleBitsInjective(t *testing.T) {
	f := func(s1, s2 uint16, t1, t2 uint8) bool {
		a := coherence.Tuple{Sender: coherence.NodeID(s1 % 4096), Type: coherence.MsgType(t1%14) + 1}
		b := coherence.Tuple{Sender: coherence.NodeID(s2 % 4096), Type: coherence.MsgType(t2%14) + 1}
		ab, err1 := tupleBits(a)
		bb, err2 := tupleBits(b)
		if err1 != nil || err2 != nil {
			return false
		}
		return (a == b) == (ab == bb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

func TestTupleBitsRejectsOutOfRange(t *testing.T) {
	if _, err := tupleBits(coherence.Tuple{Sender: 4096, Type: coherence.GetROReq}); err == nil {
		t.Error("sender 4096 accepted")
	}
	if _, err := tupleBits(coherence.Tuple{Sender: -1, Type: coherence.GetROReq}); err == nil {
		t.Error("negative sender accepted")
	}
	if _, err := tupleBits(coherence.Tuple{Sender: 0, Type: coherence.MsgType(16)}); err == nil {
		t.Error("type 16 accepted")
	}
}

// TestPeriodicStreamFullyPredictable (property): any periodic tuple
// stream whose period-position is identified by depth-length context
// is predicted perfectly once trained for two periods.
func TestPeriodicStreamProperty(t *testing.T) {
	f := func(raw []uint8, depthSel uint8) bool {
		depth := int(depthSel%MaxDepth) + 1
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 8 {
			raw = raw[:8]
		}
		// Build a period of distinct tuples (distinctness makes every
		// context unique at any depth).
		seen := map[uint8]bool{}
		var period []coherence.Tuple
		for _, r := range raw {
			r %= 64
			if seen[r] {
				continue
			}
			seen[r] = true
			period = append(period, tup(int(r), coherence.MsgType(1+r%14)))
		}
		if len(period) < 2 {
			return true
		}
		p := MustNew(Config{Depth: depth})
		const addr = coherence.Addr(0x40)
		// Train two periods plus depth (so every context exists).
		for i := 0; i < 2*len(period)+depth+1; i++ {
			p.Update(addr, period[i%len(period)])
		}
		// Everything is now predicted correctly.
		for i := 2*len(period) + depth + 1; i < 4*len(period); i++ {
			actual := period[i%len(period)]
			_, predicted, correct := p.Observe(addr, actual)
			if !predicted || !correct {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

// TestPHTEntriesBounded (property): the number of PHT entries for a
// block never exceeds the number of distinct depth-length contexts
// observed, and MHR entries never exceed distinct blocks.
func TestPHTEntriesBounded(t *testing.T) {
	f := func(stream []uint16) bool {
		p := MustNew(Config{Depth: 2})
		blocks := map[coherence.Addr]bool{}
		for _, s := range stream {
			addr := coherence.Addr(s%4) * 0x40
			blocks[addr] = true
			p.Update(addr, tup(int(s%16), coherence.MsgType(1+s%14)))
		}
		if p.MHREntries() != uint64(len(blocks)) {
			return false
		}
		var sum int
		for b := range blocks {
			sum += p.PHTEntriesFor(b)
		}
		return uint64(sum) == p.PHTEntries()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Error(err)
	}
}

func TestForget(t *testing.T) {
	p := MustNew(Config{Depth: 1})
	a, b := coherence.Addr(0x40), coherence.Addr(0x80)
	for i := 0; i < 3; i++ {
		p.Update(a, tup(1, coherence.GetROReq))
		p.Update(a, tup(2, coherence.GetRWReq))
		p.Update(b, tup(1, coherence.GetROReq))
		p.Update(b, tup(2, coherence.GetRWReq))
	}
	if p.MHREntries() != 2 || p.PHTEntries() != 4 {
		t.Fatalf("pre-forget: MHR=%d PHT=%d", p.MHREntries(), p.PHTEntries())
	}
	p.Forget(a)
	if p.MHREntries() != 1 || p.PHTEntries() != 2 {
		t.Fatalf("post-forget: MHR=%d PHT=%d", p.MHREntries(), p.PHTEntries())
	}
	if _, ok := p.Predict(a); ok {
		t.Error("forgotten block still predicts")
	}
	if _, ok := p.Predict(b); !ok {
		t.Error("unrelated block lost its prediction")
	}
	p.Forget(a) // idempotent on absent blocks
	p.Forget(coherence.Addr(0xc0))
	if p.MHREntries() != 1 {
		t.Error("Forget of absent block changed state")
	}
}

// stream returns n random receptions over blocks distinct block
// addresses, block address 0 included.
func stream(n, blocks int, seed int64) (addrs []coherence.Addr, tuples []coherence.Tuple) {
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		addrs = append(addrs, coherence.Addr(r.Intn(blocks)*64))
		tuples = append(tuples, tup(r.Intn(4), coherence.GetROReq+coherence.MsgType(r.Intn(3))))
	}
	return addrs, tuples
}

// TestResetReobserveAllocatesNothing pins Reset's promise: a reset
// predictor that re-observes the same stream reuses every array the
// first pass grew.
func TestResetReobserveAllocatesNothing(t *testing.T) {
	addrs, tuples := stream(20000, 700, 1)
	cfg := Config{Depth: 2, FilterMax: 1}
	p := MustNew(cfg)
	for i := range addrs {
		p.Observe(addrs[i], tuples[i])
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := p.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		for i := range addrs {
			p.Observe(addrs[i], tuples[i])
		}
	})
	if allocs != 0 {
		t.Fatalf("reset and re-observe allocates %.1f times per run", allocs)
	}
}

// TestForgetManyBlocks forgets every third of several hundred blocks.
// The address index deletes by shifting probe runs back, so each kept
// block must still answer exactly as in a predictor that never forgot.
func TestForgetManyBlocks(t *testing.T) {
	addrs, tuples := stream(20000, 500, 2)
	p, ref := MustNew(Config{Depth: 2}), MustNew(Config{Depth: 2})
	for i := range addrs {
		p.Observe(addrs[i], tuples[i])
		ref.Observe(addrs[i], tuples[i])
	}
	for b := 0; b < 500; b += 3 {
		p.Forget(coherence.Addr(b * 64))
	}
	if want := ref.MHREntries() - 167; p.MHREntries() != want {
		t.Fatalf("MHREntries = %d, want %d", p.MHREntries(), want)
	}
	for b := 0; b < 500; b++ {
		a := coherence.Addr(b * 64)
		got, gotOK := p.Predict(a)
		if b%3 == 0 {
			if gotOK || p.History(a) != nil || p.PHTEntriesFor(a) != 0 {
				t.Fatalf("forgotten block %#x kept state", uint64(a))
			}
			continue
		}
		want, wantOK := ref.Predict(a)
		if got != want || gotOK != wantOK || p.PHTEntriesFor(a) != ref.PHTEntriesFor(a) ||
			!reflect.DeepEqual(p.History(a), ref.History(a)) {
			t.Fatalf("kept block %#x diverged after Forget", uint64(a))
		}
	}
}
