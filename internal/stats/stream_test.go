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
		iter := uint16(i * 8 / records)
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

// shortReads is a RecordSource that hands EvaluateStream at most max
// records per Next, however large its buffer, so a test can put the
// window boundaries wherever it likes. reads counts the non-empty
// reads.
type shortReads struct {
	src   RecordSource
	max   int
	reads int
}

func (s *shortReads) Next(buf []trace.Record) (int, error) {
	if len(buf) > s.max {
		buf = buf[:s.max]
	}
	n, err := s.src.Next(buf)
	if n > 0 {
		s.reads++
	}
	return n, err
}

// TestEvaluateStreamMatchesSerial pins the two evaluation walks to one
// another, with arcs on and ForgetOnWriteback and MaxIterations each on
// and off: EvaluateAll's per-slot walk over the paper's eight
// configurations at 1, 2 and 8 workers, and the serial arrival-order
// walk of EvaluateStream over the encoded stream of each configuration,
// for window sizes that split records at every awkward boundary, each
// produce Results identical to EvaluateAll's at 1 worker.
func TestEvaluateStreamMatchesSerial(t *testing.T) {
	tr := messyTrace(5, 4000)
	var enc bytes.Buffer
	if err := trace.Write(&enc, tr); err != nil {
		t.Fatal(err)
	}
	for _, forget := range []bool{false, true} {
		for _, maxIter := range []int{0, 5} {
			opts := Options{TrackArcs: true, ForgetOnWriteback: forget, MaxIterations: maxIter}
			o := opts
			o.Workers = 1
			want, err := EvaluateAll(tr, paperSet, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 8} {
				o.Workers = workers
				got, err := EvaluateAll(tr, paperSet, o)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%+v workers %d: results diverge from 1 worker", opts, workers)
				}
			}
			for i, cfg := range paperSet {
				for _, win := range []int{1, 7, 4000, 10000} {
					sr, err := trace.NewStreamReader(bytes.NewReader(enc.Bytes()))
					if err != nil {
						t.Fatal(err)
					}
					src := &shortReads{src: sr, max: win}
					got, err := EvaluateStream(src, sr.App(), sr.Nodes(), cfg, StreamOptions{Options: opts})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want[i]) {
						t.Errorf("%+v %+v window %d: streaming result diverges from the batch walk", opts, cfg, win)
					}
					if wantWindows := (len(tr.Records) + win - 1) / win; src.reads != wantWindows {
						t.Errorf("window %d: evaluated %d windows, want %d", win, src.reads, wantWindows)
					}
				}
			}
		}
	}
}

// TestEvaluateStreamMaxIterations checks the windowed path honors the
// iteration cutoff the same way the batch walk does.
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
		t.Error("streaming MaxIterations result diverges from the batch walk")
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
