package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

func sampleTrace() *Trace {
	return &Trace{
		App:        "sample",
		Nodes:      16,
		Iterations: 3,
		Records: []Record{
			{Node: 0, Side: DirectorySide, Sender: 1, Type: coherence.GetRWReq, Addr: 0x1000, Iter: 0},
			{Node: 1, Side: CacheSide, Sender: 0, Type: coherence.GetRWResp, Addr: 0x1000, Iter: 0},
			{Node: 0, Side: DirectorySide, Sender: 2, Type: coherence.GetROReq, Addr: 0x1000, Iter: 1},
			{Node: 1, Side: CacheSide, Sender: 0, Type: coherence.InvalRWReq, Addr: 0x1000, Iter: 1},
			{Node: 0, Side: DirectorySide, Sender: 1, Type: coherence.InvalRWResp, Addr: 0x1000, Iter: 2},
			{Node: 2, Side: CacheSide, Sender: 0, Type: coherence.GetROResp, Addr: 0x1040, Iter: 2},
		},
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	orig := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.App != orig.App || got.Nodes != orig.Nodes || got.Iterations != orig.Iterations {
		t.Fatalf("header mismatch: %+v vs %+v", got, orig)
	}
	if len(got.Records) != len(orig.Records) {
		t.Fatalf("record count %d, want %d", len(got.Records), len(orig.Records))
	}
	for i := range got.Records {
		if got.Records[i] != orig.Records[i] {
			t.Errorf("record %d: %+v != %+v", i, got.Records[i], orig.Records[i])
		}
	}
}

// garbageInputs are byte strings no decoder may accept; FuzzRead seeds
// its corpus with them.
var garbageInputs = [][]byte{
	nil,
	[]byte("XXXX"),
	[]byte("CTRC"),                     // truncated header
	[]byte("CTRC\xff\xff____________"), // bad version
}

func TestReadRejectsGarbage(t *testing.T) {
	for i, c := range garbageInputs {
		if _, err := Read(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: Read accepted garbage", i)
		}
	}
}

func TestReadRejectsTruncatedRecords(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := Read(bytes.NewReader(b[:len(b)-5])); err == nil {
		t.Error("Read accepted truncated stream")
	}
}

func TestWriteText(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteText(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "app=sample") {
		t.Errorf("missing header: %q", out)
	}
	if !strings.Contains(out, "directory@P0 P1 get_rw_request 0x1000") {
		t.Errorf("missing record line: %q", out)
	}
	if got := strings.Count(out, "\n"); got != 7 { // header + 6 records
		t.Errorf("line count = %d", got)
	}
}

func TestRecorderExcludesStartup(t *testing.T) {
	rec := NewRecorder("x", 4, 2, 1) // 2 phases/iter, skip 1 iteration
	msg := coherence.Msg{Src: 1, Dst: 0, Type: coherence.GetROReq, Addr: 0x40}

	rec.ObserveDirectory(0, msg) // phase 0 -> iter -1: excluded
	rec.EndIteration(0)
	rec.ObserveDirectory(0, msg) // phase 1 -> iter -1: excluded
	rec.EndIteration(1)
	rec.ObserveDirectory(0, msg) // phase 2 -> iter 0: kept
	rec.EndIteration(2)
	rec.EndIteration(3) // phase 4 -> iter 1
	rec.ObserveCache(1, coherence.Msg{Src: 0, Dst: 1, Type: coherence.GetROResp, Addr: 0x40})

	tr := rec.Trace()
	if len(tr.Records) != 2 {
		t.Fatalf("records = %d, want 2 (startup excluded)", len(tr.Records))
	}
	if tr.Records[0].Iter != 0 || tr.Records[1].Iter != 1 {
		t.Errorf("iters = %d, %d; want 0, 1", tr.Records[0].Iter, tr.Records[1].Iter)
	}
	if tr.Iterations != 2 {
		t.Errorf("Iterations = %d, want 2", tr.Iterations)
	}
}

func TestRecorderSides(t *testing.T) {
	rec := NewRecorder("x", 4, 1, 0)
	rec.ObserveCache(2, coherence.Msg{Src: 0, Dst: 2, Type: coherence.GetROResp, Addr: 0x40})
	rec.ObserveDirectory(0, coherence.Msg{Src: 2, Dst: 0, Type: coherence.GetROReq, Addr: 0x40})
	tr := rec.Trace()
	cache, dir := tr.CountBySide()
	if cache != 1 || dir != 1 {
		t.Errorf("CountBySide = %d, %d", cache, dir)
	}
	if tr.Records[0].Side != CacheSide || tr.Records[0].Node != 2 {
		t.Errorf("record 0 = %+v", tr.Records[0])
	}
	if tr.Records[0].Tuple() != (coherence.Tuple{Sender: 0, Type: coherence.GetROResp}) {
		t.Errorf("Tuple = %v", tr.Records[0].Tuple())
	}
}

func TestSideString(t *testing.T) {
	if CacheSide.String() != "cache" || DirectorySide.String() != "directory" {
		t.Error("Side strings wrong")
	}
	if Side(9).String() != "Side(9)" {
		t.Error("out-of-range Side string wrong")
	}
}

// TestBinaryRoundTripProperty fuzzes the codec with random traces.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(app string, raw []uint32) bool {
		if len(app) > 200 {
			app = app[:200]
		}
		// Records draw nodes in [0, 64), so the header must cover them.
		tr := &Trace{App: app, Nodes: 64}
		for _, v := range raw {
			rec := Record{
				Node:   coherence.NodeID(v % 64),
				Side:   Side(v % 2),
				Sender: coherence.NodeID((v >> 6) % 64),
				Type:   coherence.MsgType(1 + (v>>12)%14),
				Addr:   coherence.Addr(v) * 64,
				Iter:   int32(v % 1000),
			}
			tr.Records = append(tr.Records, rec)
			if int(rec.Iter)+1 > tr.Iterations {
				tr.Iterations = int(rec.Iter) + 1
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if got.App != tr.App || got.Nodes != tr.Nodes || got.Iterations != tr.Iterations ||
			len(got.Records) != len(tr.Records) {
			return false
		}
		for i := range got.Records {
			if got.Records[i] != tr.Records[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}

// TestReadRejectsHostileInputs: crafted files must fail cleanly, never
// panic downstream evaluators or attempt giant allocations.
func TestReadRejectsHostileInputs(t *testing.T) {
	base := sampleTrace()

	mutate := func(f func(*Trace)) []byte {
		tr := sampleTrace()
		f(tr)
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("Write: %v", err)
		}
		return buf.Bytes()
	}

	// Node out of the header's range.
	bad := mutate(func(tr *Trace) { tr.Records[0].Node = 999 })
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("accepted node beyond header count")
	}
	// Sender beyond the 12-bit tuple encoding.
	bad = mutate(func(tr *Trace) { tr.Records[0].Sender = 5000 })
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("accepted sender beyond 12 bits")
	}
	// Negative iteration.
	bad = mutate(func(tr *Trace) { tr.Records[0].Iter = -1 })
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("accepted negative iteration")
	}
	// Giant record count with a tiny body: must fail on the short read,
	// not by allocating count*recordSize bytes.
	var buf bytes.Buffer
	if err := Write(&buf, base); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	countOff := 4 + 14 + len(base.App)
	for i := 0; i < 8; i++ {
		raw[countOff+i] = 0xff
	}
	raw[countOff+7] = 0x00 // 2^56-ish, still > maxRecords -> count check
	if _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Error("accepted implausible record count")
	}
	// A large-but-plausible count (1M) with a 6-record body: short read.
	for i := 0; i < 8; i++ {
		raw[countOff+i] = 0
	}
	raw[countOff] = 0x40
	raw[countOff+2] = 0x0f // 0x0f0040 ~ 983k records claimed
	if _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Error("accepted truncated body under inflated count")
	}
}

func TestWriteRejectsUnencodableHeaders(t *testing.T) {
	tr := sampleTrace()
	tr.App = strings.Repeat("x", 1<<16)
	if err := Write(&bytes.Buffer{}, tr); err == nil {
		t.Error("accepted 64KiB app name")
	}
	tr = sampleTrace()
	tr.Nodes = 1 << 20
	if err := Write(&bytes.Buffer{}, tr); err == nil {
		t.Error("accepted node count beyond uint16")
	}
}
