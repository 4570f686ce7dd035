package stats

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/trace"
)

// messyTrace builds a pseudo-random multi-node, multi-block trace that
// exercises every aggregate: both sides, writebacks, several
// iterations, repeated arcs.
func messyTrace(nodes, records int) *trace.Trace {
	rng := rand.New(rand.NewSource(7))
	types := []coherence.MsgType{
		coherence.GetROReq, coherence.GetROResp, coherence.GetRWReq,
		coherence.GetRWResp, coherence.InvalRWResp, coherence.WritebackAck,
	}
	tr := &trace.Trace{App: "messy", Nodes: nodes}
	for i := 0; i < records; i++ {
		iter := int32(i * 8 / records)
		tr.Records = append(tr.Records, trace.Record{
			Node:   coherence.NodeID(rng.Intn(nodes)),
			Side:   trace.Side(rng.Intn(2)),
			Sender: coherence.NodeID(rng.Intn(nodes)),
			Type:   types[rng.Intn(len(types))],
			Addr:   coherence.Addr(uint64(rng.Intn(16)) * 64),
			Iter:   iter,
		})
		if int(iter)+1 > tr.Iterations {
			tr.Iterations = int(iter) + 1
		}
	}
	return tr
}

// TestEvaluateStreamMatchesSerial pins the three evaluation paths to
// one another, with arcs on and ForgetOnWriteback and MaxIterations
// each on and off: EvaluateAll over the paper's eight configurations
// at 1 worker (the serial walk), 2 and 8 workers (sharded), and a
// windowed evaluation of each configuration over the encoded stream
// for window sizes that split records at every awkward boundary, each
// produce Results identical to the serial walk's.
func TestEvaluateStreamMatchesSerial(t *testing.T) {
	tr := messyTrace(5, 4000)
	var enc bytes.Buffer
	if err := trace.Write(&enc, tr); err != nil {
		t.Fatal(err)
	}
	for _, forget := range []bool{false, true} {
		for _, maxIter := range []int{0, 5} {
			opts := Options{TrackArcs: true, ForgetOnWriteback: forget, MaxIterations: maxIter}
			want, err := EvaluateAll(tr, paperSet, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 8} {
				o := opts
				o.Workers = workers
				got, err := EvaluateAll(tr, paperSet, o)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%+v workers %d: sharded results diverge from serial", opts, workers)
				}
			}
			for i, cfg := range paperSet {
				for _, win := range []int{1, 7, 4000, 10000} {
					sr, err := trace.NewStreamReader(bytes.NewReader(enc.Bytes()))
					if err != nil {
						t.Fatal(err)
					}
					windows := 0
					got, err := EvaluateStream(sr, sr.App(), sr.Nodes(), cfg, StreamOptions{
						Options:    opts,
						WindowSize: win,
						OnWindow:   func(int) { windows++ },
					})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want[i]) {
						t.Errorf("%+v %+v window %d: streaming result diverges from serial", opts, cfg, win)
					}
					if wantWindows := (len(tr.Records) + win - 1) / win; windows != wantWindows {
						t.Errorf("window %d: OnWindow ran %d times, want %d", win, windows, wantWindows)
					}
				}
			}
		}
	}
}

// TestEvaluateStreamMaxIterations checks the windowed path honors the
// iteration cutoff the same way the serial path does.
func TestEvaluateStreamMaxIterations(t *testing.T) {
	tr := messyTrace(3, 800)
	cfg := core.Config{Depth: 1}
	opts := Options{MaxIterations: 3}
	want, err := Evaluate(tr, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	if err := trace.Write(&enc, tr); err != nil {
		t.Fatal(err)
	}
	sr, err := trace.NewStreamReader(bytes.NewReader(enc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvaluateStream(sr, sr.App(), sr.Nodes(), cfg, StreamOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("streaming MaxIterations result diverges from serial")
	}
}

// TestEvaluateStreamRejectsOutOfRangeNode guards against a source
// whose records disagree with its claimed node count.
func TestEvaluateStreamRejectsOutOfRangeNode(t *testing.T) {
	tr := messyTrace(4, 32)
	var enc bytes.Buffer
	if err := trace.Write(&enc, tr); err != nil {
		t.Fatal(err)
	}
	sr, err := trace.NewStreamReader(bytes.NewReader(enc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvaluateStream(sr, "messy", 2, core.Config{Depth: 1}, StreamOptions{}); err == nil {
		t.Fatal("accepted records beyond the declared node count")
	}
}
