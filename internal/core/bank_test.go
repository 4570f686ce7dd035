package core

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

// bankCase is a configuration set and a message stream decoded from
// fuzz bytes.
type bankCase struct {
	cfgs []Config
	ops  []bankOp
}

// bankOp is one message, or a Forget of its block.
type bankOp struct {
	addr   coherence.Addr
	forget bool
	tup    coherence.Tuple
}

// decodeBankCase reads one byte of configuration count, one byte per
// configuration (depth in the low two bits, one of four filters in the
// next two, so any set fits one bank), then two bytes per operation:
// the block (one of eight) with a Forget marker, and the tuple (one of
// four senders, every valid 4-bit type). Small alphabets make patterns
// recur, so filters and deep histories get exercised.
func decodeBankCase(data []byte) (bankCase, bool) {
	if len(data) < 2 {
		return bankCase{}, false
	}
	n := 1 + int(data[0])%8
	data = data[1:]
	if len(data) < n {
		return bankCase{}, false
	}
	var c bankCase
	for _, b := range data[:n] {
		c.cfgs = append(c.cfgs, Config{Depth: 1 + int(b&3), FilterMax: int(b>>2) & 3})
	}
	data = data[n:]
	for ; len(data) >= 2; data = data[2:] {
		c.ops = append(c.ops, bankOp{
			addr:   coherence.Addr(data[0]&7) * 64,
			forget: data[0]&0xf8 == 0xf8,
			tup:    coherence.Tuple{Sender: coherence.NodeID(data[1] & 3), Type: coherence.MsgType(1 + (data[1]>>2)%15)},
		})
	}
	return c, true
}

// checkBank drives a bank over every configuration, one Predictor per
// configuration and one reference per configuration through the same
// operations, and fails on the first difference from the reference in
// outcome, prediction, MHR count or PHT count.
func checkBank(t *testing.T, c bankCase) {
	t.Helper()
	lay, err := NewLayout(c.cfgs)
	if err != nil {
		t.Fatal(err)
	}
	var bank Bank
	bank.Reset(lay)
	preds := make([]*Predictor, len(c.cfgs))
	refs := make([]*refCosmos, len(c.cfgs))
	for i, cfg := range c.cfgs {
		preds[i], refs[i] = MustNew(cfg), newRefCosmos(cfg)
	}
	for step, op := range c.ops {
		var correct uint32
		if op.forget {
			bank.Forget(op.addr)
		} else {
			correct = bank.Observe(op.addr, op.tup)
		}
		for i, ref := range refs {
			p := preds[i]
			var want, got observation
			if op.forget {
				ref.forget(op.addr)
				p.Forget(op.addr)
			} else {
				peek, peekOK := p.Predict(op.addr)
				want = observe(ref.observe(op.addr, op.tup))
				got = observe(p.Observe(op.addr, op.tup))
				if peek != got.pred || peekOK != got.predicted {
					t.Fatalf("step %d %+v: config %+v Predict = %v, %v but Observe saw %+v", step, op, c.cfgs[i], peek, peekOK, got)
				}
			}
			if got != want {
				t.Fatalf("step %d %+v: config %+v predictor says %+v, reference %+v", step, op, c.cfgs[i], got, want)
			}
			if inBank := correct>>lay.Lane(i)&1 == 1; inBank != want.correct {
				t.Fatalf("step %d %+v: config %+v correct = %v in the bank, reference says %v", step, op, c.cfgs[i], inBank, want.correct)
			}
			mhr, pht := ref.mhrEntries(), ref.phtEntries()
			if bank.MHREntries() != mhr || bank.PHTEntries(i) != pht || p.MHREntries() != mhr || p.PHTEntries() != pht {
				t.Fatalf("step %d: config %+v holds %d MHR / %d PHT entries in the bank, %d / %d in the predictor, reference %d / %d",
					step, c.cfgs[i], bank.MHREntries(), bank.PHTEntries(i), p.MHREntries(), p.PHTEntries(), mhr, pht)
			}
		}
	}
}

// observation is one Observe result, comparable in one step.
type observation struct {
	pred               coherence.Tuple
	predicted, correct bool
}

func observe(pred coherence.Tuple, predicted, correct bool) observation {
	return observation{pred, predicted, correct}
}

// randomBankBytes is a seed input: configuration bytes then random
// operations.
func randomBankBytes(rng *rand.Rand, cfgBytes []byte, ops int) []byte {
	data := append([]byte{byte(len(cfgBytes) - 1)}, cfgBytes...)
	for i := 0; i < ops; i++ {
		data = append(data, byte(rng.Intn(256)), byte(rng.Intn(24)))
	}
	return data
}

// TestBankMatchesPredictors runs the fuzz property (the bank and a
// Predictor per configuration match the map-based reference) over
// seeded random streams: the paper's eight-configuration set, single configurations
// at every depth, and a set with a repeated configuration.
func TestBankMatchesPredictors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	paper := []byte{0, 1, 2, 3, 4, 8, 5, 9} // depths 1-4, then filters 1-2 at depths 1-2
	for _, cfgBytes := range [][]byte{paper, {0}, {1}, {2}, {3}, {5, 0, 5}} {
		c, ok := decodeBankCase(randomBankBytes(rng, cfgBytes, 3000))
		if !ok {
			t.Fatal("seed does not decode")
		}
		checkBank(t, c)
	}
}

// TestLayoutLanes: equal configurations share a lane, and a depth
// with more than BankLanes filters is refused.
func TestLayoutLanes(t *testing.T) {
	lay, err := NewLayout([]Config{{Depth: 2, FilterMax: 1}, {Depth: 1}, {Depth: 2, FilterMax: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if lay.Lanes() != 2 || lay.Lane(0) != lay.Lane(2) || lay.Lane(0) == lay.Lane(1) {
		t.Errorf("lanes = %d, lane of each config = %d %d %d", lay.Lanes(), lay.Lane(0), lay.Lane(1), lay.Lane(2))
	}
	var wide []Config
	for f := 0; f <= BankLanes; f++ {
		wide = append(wide, Config{Depth: 3, FilterMax: f})
	}
	if _, err := NewLayout(wide); err == nil || !strings.Contains(err.Error(), "filter settings") {
		t.Errorf("NewLayout(%d filters at one depth) = %v, want a capacity error", len(wide), err)
	}
	for _, bad := range [][]Config{nil, {{Depth: 0}}, {{Depth: 1, FilterMax: MaxFilter + 1}}} {
		if _, err := NewLayout(bad); err == nil {
			t.Errorf("NewLayout(%v) accepted an unusable set", bad)
		}
	}
}

// TestBankRejectsTypeZero: a type-0 tuple could encode to a zero lane
// and let keys of different depths collide, so the bank refuses it.
func TestBankRejectsTypeZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Observe accepted a type-0 tuple")
		}
	}()
	var b Bank
	b.Reset(mustLayout(t, Config{Depth: 2}))
	b.Observe(0x40, coherence.Tuple{})
}

// TestPredictorRejectsTypeZero: a Predictor is a one-configuration
// bank, so Observe and Update refuse type 0 as the bank does.
func TestPredictorRejectsTypeZero(t *testing.T) {
	for name, step := range map[string]func(*Predictor){
		"Observe": func(p *Predictor) { p.Observe(0x40, coherence.Tuple{Sender: 1}) },
		"Update":  func(p *Predictor) { p.Update(0x40, coherence.Tuple{Sender: 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a type-0 tuple", name)
				}
			}()
			step(MustNew(Config{Depth: 1}))
		}()
	}
}

func mustLayout(t *testing.T, cfgs ...Config) *Layout {
	t.Helper()
	lay, err := NewLayout(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	return lay
}

// TestBankResetMatchesNew: a bank reset onto another layout behaves as
// a new one, keeping its arrays.
func TestBankResetMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	first, _ := decodeBankCase(randomBankBytes(rng, []byte{3, 0, 4}, 2000))
	var bank Bank
	bank.Reset(mustLayout(t, first.cfgs...))
	for _, op := range first.ops {
		bank.Observe(op.addr, op.tup)
	}
	lay := mustLayout(t, Config{Depth: 1, FilterMax: 1})
	bank.Reset(lay)
	var fresh Bank
	fresh.Reset(lay)
	for step, op := range first.ops {
		if got, want := bank.Observe(op.addr, op.tup), fresh.Observe(op.addr, op.tup); got != want {
			t.Fatalf("step %d: reset bank says %b, new bank %b", step, got, want)
		}
	}
	if bank.MHREntries() != fresh.MHREntries() || bank.PHTEntries(0) != fresh.PHTEntries(0) {
		t.Error("reset bank's counts differ from a new bank's")
	}
}

// TestBankResetReobserveAllocatesNothing: a bank reset onto the same
// layout reuses every array its first pass grew, which is what lets an
// evaluation's free list of banks serve every slot and benchmark.
func TestBankResetReobserveAllocatesNothing(t *testing.T) {
	addrs, tuples := stream(20000, 700, 1)
	lay := mustLayout(t, Config{Depth: 1}, Config{Depth: 2, FilterMax: 1}, Config{Depth: 4})
	var b Bank
	b.Reset(lay)
	for i := range addrs {
		b.Observe(addrs[i], tuples[i])
	}
	allocs := testing.AllocsPerRun(5, func() {
		b.Reset(lay)
		for i := range addrs {
			b.Observe(addrs[i], tuples[i])
		}
	})
	if allocs != 0 {
		t.Fatalf("reset and re-observe allocates %.1f times per run", allocs)
	}
}

// FuzzBank: for any configuration set and message stream, with Forget
// calls mixed in, a bank and one Predictor per configuration report
// exactly what the map-based reference reports.
func FuzzBank(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	f.Add(randomBankBytes(rng, []byte{0, 1, 2, 3, 4, 8, 5, 9}, 300))
	f.Add(randomBankBytes(rng, []byte{3, 7}, 200))
	f.Add(randomBankBytes(rng, []byte{1}, 100))
	f.Fuzz(func(t *testing.T, data []byte) {
		if c, ok := decodeBankCase(data); ok {
			checkBank(t, c)
		}
	})
}
