package stache

import (
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

// fixedOracle predicts a constant tuple for every block.
type fixedOracle struct {
	pred coherence.Tuple
	ok   bool
}

func (o fixedOracle) PredictNext(coherence.Addr) (coherence.Tuple, bool) { return o.pred, o.ok }
func (fixedOracle) Train(coherence.Addr, coherence.Tuple)                {}

// TestSpeculativeGrantOnIdleBlock: a read miss to an idle block with a
// matching upgrade prediction is answered exclusively, and the later
// write hits without any message.
func TestSpeculativeGrantOnIdleBlock(t *testing.T) {
	l := newSystem(t, 4, DefaultOptions())
	addr := blockHomedAt(l.geom, 0)
	l.dirs[0].AttachSpeculation(fixedOracle{
		pred: coherence.Tuple{Sender: 1, Type: coherence.UpgradeReq}, ok: true,
	}, nil, SpecActions{RMW: true})

	l.access(1, addr, false) // read
	want := []coherence.MsgType{coherence.GetROReq, coherence.GetRWResp}
	if !eqTypes(l.types(), want) {
		t.Fatalf("flow = %v, want %v", l.types(), want)
	}
	if got := l.caches[1].State(addr); got != CacheReadWrite {
		t.Fatalf("P1 state = %v, want read-write", got)
	}
	l.reset()
	l.access(1, addr, true) // the predicted write: pure hit
	if len(l.log) != 0 {
		t.Fatalf("predicted write generated messages: %v", l.log)
	}
	if l.dirs[0].Speculations() != 1 {
		t.Errorf("Speculations = %d, want 1", l.dirs[0].Speculations())
	}
}

// TestSpeculativeGrantAfterFetchBack: the migratory case — the block
// is fetched back from a remote owner and the requestor is granted
// exclusive directly, skipping the upgrade round trip.
func TestSpeculativeGrantAfterFetchBack(t *testing.T) {
	l := newSystem(t, 4, DefaultOptions())
	addr := blockHomedAt(l.geom, 0)
	l.access(1, addr, false)
	l.access(1, addr, true) // P1 owns exclusive
	l.dirs[0].AttachSpeculation(fixedOracle{
		pred: coherence.Tuple{Sender: 2, Type: coherence.UpgradeReq}, ok: true,
	}, nil, SpecActions{RMW: true})
	l.reset()

	l.access(2, addr, false) // P2 reads; upgrade predicted
	want := []coherence.MsgType{
		coherence.GetROReq,
		coherence.InvalRWReq,
		coherence.InvalRWResp,
		coherence.GetRWResp, // exclusive instead of shared
	}
	if !eqTypes(l.types(), want) {
		t.Fatalf("flow = %v, want %v", l.types(), want)
	}
	l.reset()
	l.access(2, addr, true)
	if len(l.log) != 0 {
		t.Fatalf("upgrade round trip not eliminated: %v", l.log)
	}
}

// TestNoSpeculationWhenPredictionMismatches: predictions for a
// different node or type leave the protocol alone.
func TestNoSpeculationOnMismatch(t *testing.T) {
	cases := []fixedOracle{
		{}, // no prediction
		{pred: coherence.Tuple{Sender: 2, Type: coherence.UpgradeReq}, ok: true}, // wrong node
		{pred: coherence.Tuple{Sender: 1, Type: coherence.GetROReq}, ok: true},   // wrong type
	}
	for i, o := range cases {
		l := newSystem(t, 4, DefaultOptions())
		addr := blockHomedAt(l.geom, 0)
		l.dirs[0].AttachSpeculation(o, nil, SpecActions{RMW: true})
		l.access(1, addr, false)
		want := []coherence.MsgType{coherence.GetROReq, coherence.GetROResp}
		if !eqTypes(l.types(), want) {
			t.Errorf("case %d: flow = %v, want plain read", i, l.types())
		}
		if l.dirs[0].Speculations() != 0 {
			t.Errorf("case %d: speculated", i)
		}
	}
}

// TestNoSpeculationWithSharersPresent: the RMW action only fires when
// the requestor would be the sole holder; with other sharers the read
// is served shared.
func TestNoSpeculationWithSharers(t *testing.T) {
	l := newSystem(t, 4, DefaultOptions())
	addr := blockHomedAt(l.geom, 0)
	l.access(3, addr, false) // P3 is a sharer
	l.dirs[0].AttachSpeculation(fixedOracle{
		pred: coherence.Tuple{Sender: 1, Type: coherence.UpgradeReq}, ok: true,
	}, nil, SpecActions{RMW: true})
	l.reset()
	l.access(1, addr, false)
	want := []coherence.MsgType{coherence.GetROReq, coherence.GetROResp}
	if !eqTypes(l.types(), want) {
		t.Fatalf("flow = %v, want shared grant", l.types())
	}
	if got := l.caches[1].State(addr); got != CacheReadOnly {
		t.Errorf("P1 state = %v, want read-only", got)
	}
}

// TestMisSpeculationIsRecoveryFree: a wrong exclusive grant (the
// predicted upgrade never comes; another node reads instead) costs one
// extra invalidation but stays coherent — Section 4.3's first recovery
// class.
func TestMisSpeculationRecoveryFree(t *testing.T) {
	l := newSystem(t, 4, DefaultOptions())
	addr := blockHomedAt(l.geom, 0)
	l.dirs[0].AttachSpeculation(fixedOracle{
		pred: coherence.Tuple{Sender: 1, Type: coherence.UpgradeReq}, ok: true,
	}, nil, SpecActions{RMW: true})
	l.access(1, addr, false) // speculative exclusive grant to P1
	l.reset()
	// P1 never writes; P2 reads: the mis-speculation surfaces as a
	// fetch-back that a shared grant would have avoided.
	l.access(2, addr, false)
	want := []coherence.MsgType{
		coherence.GetROReq,
		coherence.InvalRWReq,
		coherence.InvalRWResp,
		coherence.GetROResp,
	}
	if !eqTypes(l.types(), want) {
		t.Fatalf("flow = %v, want %v", l.types(), want)
	}
	if got := l.caches[2].State(addr); got != CacheReadOnly {
		t.Errorf("P2 state = %v", got)
	}
	if got := l.caches[1].State(addr); got != CacheInvalid {
		t.Errorf("P1 state = %v", got)
	}
}

// TestNoSpeculationForHomeNode: home-node accesses never speculate
// (they are message-free already).
func TestNoSpeculationForHomeNode(t *testing.T) {
	l := newSystem(t, 4, DefaultOptions())
	addr := blockHomedAt(l.geom, 2)
	l.dirs[2].AttachSpeculation(fixedOracle{
		pred: coherence.Tuple{Sender: 2, Type: coherence.UpgradeReq}, ok: true,
	}, nil, SpecActions{RMW: true})
	l.access(2, addr, false)
	if len(l.log) != 0 || l.dirs[2].Speculations() != 0 {
		t.Errorf("home access speculated: log=%v", l.log)
	}
}

// oracleEvent is one call seen by TestDirectoryScoresThenTrainsOracle:
// a delivery through the sender, or a call on an oracle or the gate.
type oracleEvent struct {
	kind    string // "deliver", "predict", "observe" or "train"
	node    coherence.NodeID
	msg     coherence.Msg // deliver
	addr    coherence.Addr
	tuple   coherence.Tuple // predict (the prediction), train
	correct bool            // observe
}

// orderLog records every delivery, oracle call and gate.Observe in one
// sequence.
type orderLog struct {
	l      *loopback
	events []oracleEvent
}

func (r *orderLog) Send(msg coherence.Msg) {
	r.events = append(r.events, oracleEvent{kind: "deliver", node: msg.Dst, msg: msg, addr: msg.Addr})
	r.l.Send(msg)
}

func (r *orderLog) Observe(addr coherence.Addr, correct bool) {
	r.events = append(r.events, oracleEvent{kind: "observe", addr: addr, correct: correct})
}

// Allow refuses every action, so the run follows the base protocol.
func (r *orderLog) Allow(SpecAction, coherence.Addr) bool { return false }

func (r *orderLog) Record(SpecAction, coherence.Addr, bool) {}

// lastOracle predicts that a block's next message repeats its last one
// (after a fixed guess for a block never seen), logging every call.
type lastOracle struct {
	node coherence.NodeID
	log  *orderLog
	last map[coherence.Addr]coherence.Tuple
}

func (o *lastOracle) PredictNext(addr coherence.Addr) (coherence.Tuple, bool) {
	t, ok := o.last[addr]
	if !ok {
		t = coherence.Tuple{Sender: 1, Type: coherence.GetROReq}
	}
	o.log.events = append(o.log.events, oracleEvent{kind: "predict", node: o.node, addr: addr, tuple: t})
	return t, true
}

func (o *lastOracle) Train(addr coherence.Addr, t coherence.Tuple) {
	o.log.events = append(o.log.events, oracleEvent{kind: "train", node: o.node, addr: addr, tuple: t})
	o.last[addr] = t
}

// TestDirectoryScoresThenTrainsOracle pins the order the governor's
// breaker depends on: for every directory-bound delivery the directory
// first asks its oracle for the standing prediction and scores it
// through gate.Observe, then trains the oracle on the message, once,
// before it acts on the message. Cache-bound deliveries train nothing.
func TestDirectoryScoresThenTrainsOracle(t *testing.T) {
	const n = 4
	geom := coherence.MustGeometry(64, 256, n)
	rec := &orderLog{}
	l := &loopback{t: t, geom: geom, caches: make([]*Cache, n), dirs: make([]*Directory, n)}
	rec.l = l
	for i := 0; i < n; i++ {
		node := coherence.NodeID(i)
		l.dirs[i] = NewDirectory(node, geom, rec, DefaultOptions())
		l.caches[i] = NewCache(node, geom, rec, l.dirs[i], DefaultOptions())
		l.dirs[i].AttachSpeculation(&lastOracle{node: node, log: rec, last: map[coherence.Addr]coherence.Tuple{}}, rec, SpecActions{RMW: true})
	}
	a, b := blockHomedAt(geom, 0), blockHomedAt(geom, 2)
	for _, step := range []struct {
		node  int
		addr  coherence.Addr
		write bool
	}{
		{1, a, false}, {1, a, false}, {2, a, false}, {1, a, true}, {3, a, false},
		{2, a, true}, {1, b, true}, {3, b, false}, {0, b, true}, {2, a, false},
	} {
		l.access(step.node, step.addr, step.write)
	}
	l.caches[3].Evict(a)

	// Split the log into one segment per delivery: the delivery and the
	// calls that follow it up to the next delivery. A synchronous
	// loopback nests each reply inside its request's handling, so a
	// Train made after dispatch would land in a later segment.
	var dirs, cacheMsgs, trains, observes, hits int
	for i := 0; i < len(rec.events); {
		d := rec.events[i]
		if d.kind != "deliver" {
			t.Fatalf("event %d: %+v before any delivery", i, d)
		}
		j := i + 1
		for j < len(rec.events) && rec.events[j].kind != "deliver" {
			j++
		}
		seg := rec.events[i+1 : j]
		for _, e := range seg {
			switch e.kind {
			case "train":
				trains++
			case "observe":
				observes++
				if e.correct {
					hits++
				}
			}
		}
		if d.msg.Type.CacheBound() {
			cacheMsgs++
			for _, e := range seg {
				if e.kind == "train" || e.kind == "observe" {
					t.Errorf("cache delivery %v was followed by %+v", d.msg, e)
				}
			}
			i = j
			continue
		}
		dirs++
		if len(seg) < 3 || seg[0].kind != "predict" || seg[1].kind != "observe" || seg[2].kind != "train" {
			t.Fatalf("directory delivery %v: calls %+v, want predict, observe, train first", d.msg, seg)
		}
		if seg[0].node != d.msg.Dst || seg[0].addr != d.msg.Addr || seg[1].addr != d.msg.Addr {
			t.Errorf("directory delivery %v scored %+v / %+v", d.msg, seg[0], seg[1])
		}
		if seg[1].correct != (seg[0].tuple == d.msg.Tuple()) {
			t.Errorf("directory delivery %v scored prediction %v as correct=%v", d.msg, seg[0].tuple, seg[1].correct)
		}
		if tr := seg[2]; tr.node != d.msg.Dst || tr.addr != d.msg.Addr || tr.tuple != d.msg.Tuple() {
			t.Errorf("directory delivery %v trained %+v", d.msg, tr)
		}
		for _, e := range seg[3:] {
			if e.kind == "train" || e.kind == "observe" {
				t.Errorf("directory delivery %v: second %s %+v", d.msg, e.kind, e)
			}
		}
		i = j
	}
	if dirs == 0 || cacheMsgs == 0 {
		t.Fatalf("saw %d directory and %d cache deliveries; want both kinds", dirs, cacheMsgs)
	}
	if trains != dirs || observes != dirs {
		t.Errorf("%d trains and %d scores for %d directory deliveries", trains, observes, dirs)
	}
	if hits == 0 || hits == observes {
		t.Errorf("%d of %d predictions correct; want both outcomes scored", hits, observes)
	}
}
