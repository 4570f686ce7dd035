package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

// bigTrace returns a trace of n records that spans several Read
// windows and Recorder chunks.
func bigTrace(n int) *Trace {
	tr := &Trace{App: "big", Nodes: 16}
	for i := 0; i < n; i++ {
		tr.Records = append(tr.Records, Record{
			Node:   coherence.NodeID(i % 16),
			Side:   Side(i % 2),
			Sender: coherence.NodeID((i / 16) % 16),
			Type:   coherence.MsgType(1 + i%14),
			Addr:   coherence.Addr(i) * 64,
			Iter:   int32(i / 1000),
		})
	}
	tr.Iterations = (n-1)/1000 + 1
	return tr
}

// writeFile encodes b under a fresh temporary directory and reopens it
// for reading.
func writeFile(t *testing.T, b []byte) *os.File {
	t.Helper()
	p := filepath.Join(t.TempDir(), "t.ctrc")
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func encode(t testing.TB, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sameTrace(t *testing.T, got, want *Trace) {
	t.Helper()
	if got.App != want.App || got.Nodes != want.Nodes || got.Iterations != want.Iterations ||
		len(got.Records) != len(want.Records) {
		t.Fatalf("header or length mismatch: %s/%d/%d/%d vs %s/%d/%d/%d",
			got.App, got.Nodes, got.Iterations, len(got.Records),
			want.App, want.Nodes, want.Iterations, len(want.Records))
	}
	for i := range got.Records {
		if got.Records[i] != want.Records[i] {
			t.Fatalf("record %d: %+v != %+v", i, got.Records[i], want.Records[i])
		}
	}
}

// TestReadFromFileSizesRecordsOnce pins Read's allocation contract for
// the trace cache's input: Records is allocated once, at its final
// size, from the file's real length.
func TestReadFromFileSizesRecordsOnce(t *testing.T) {
	want := bigTrace(3*chunkRecords + 7)
	f := writeFile(t, encode(t, want))
	got, err := Read(f)
	if err != nil {
		t.Fatal(err)
	}
	sameTrace(t, got, want)
	if cap(got.Records) != len(got.Records) {
		t.Fatalf("cap(Records) = %d, want len %d", cap(got.Records), len(got.Records))
	}
}

// TestReadHugeClaimAllocatesLittle hands Read a ~100-byte file whose
// header claims 2^31-1 records: it must fail at the short read, having
// allocated for the records the file can hold, not for the claim.
func TestReadHugeClaimAllocatesLittle(t *testing.T) {
	raw := encodeSample(t)
	countOff := headerSize + len(sampleTrace().App)
	binary.LittleEndian.PutUint64(raw[countOff:], 1<<31-1)
	f := writeFile(t, raw[:100])

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(f)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Read accepted a 100-byte file claiming 2^31-1 records")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("Read allocated %d bytes for a 100-byte file", got)
	}
}

// lenless hides every method but Read, so Read cannot learn the input's
// length and must grow Records as it decodes.
type lenless struct{ r io.Reader }

func (l lenless) Read(p []byte) (int, error) { return l.r.Read(p) }

// TestReadWithoutKnownLength decodes from a bytes.Buffer and from a
// reader that hides its length: both must match the file path.
func TestReadWithoutKnownLength(t *testing.T) {
	want := bigTrace(2*chunkRecords + 3)
	raw := encode(t, want)
	for name, r := range map[string]io.Reader{
		"bytes.Buffer": bytes.NewBuffer(bytes.Clone(raw)),
		"lenless":      lenless{bytes.NewReader(raw)},
	} {
		got, err := Read(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameTrace(t, got, want)
	}
}

// TestReadRejectsNonCanonical covers the two ways bytes could decode
// yet re-encode differently: nonzero reserved header bytes and bytes
// after the footer.
func TestReadRejectsNonCanonical(t *testing.T) {
	raw := encodeSample(t)
	if _, err := Read(bytes.NewReader(append(bytes.Clone(raw), 0))); err == nil {
		t.Error("Read accepted a byte after the footer")
	}
	if err := Verify(bytes.NewReader(append(bytes.Clone(raw), 0))); err == nil {
		t.Error("Verify accepted a byte after the footer")
	}
	mut := bytes.Clone(raw)
	mut[14] = 1
	if _, err := Read(bytes.NewReader(mut)); err == nil {
		t.Error("Read accepted a nonzero reserved header byte")
	}
}

// TestRecorderAcrossChunks records more than one chunk and checks that
// Trace returns every record in order, exactly sized, and that
// recording after a Trace call extends the same trace.
func TestRecorderAcrossChunks(t *testing.T) {
	want := bigTrace(2*recorderChunk + 5)
	rec := NewRecorder(want.App, want.Nodes, 1, 0)
	feed := func(rs []Record) {
		for _, r := range rs {
			for int32(rec.currentPhase) < r.Iter {
				rec.EndIteration(rec.currentPhase)
			}
			msg := coherence.Msg{Src: r.Sender, Dst: r.Node, Type: r.Type, Addr: r.Addr}
			if r.Side == CacheSide {
				rec.ObserveCache(r.Node, msg)
			} else {
				rec.ObserveDirectory(r.Node, msg)
			}
		}
	}
	half := recorderChunk + 1
	feed(want.Records[:half])
	if got := rec.Trace(); len(got.Records) != half {
		t.Fatalf("mid-run Trace has %d records, want %d", len(got.Records), half)
	}
	feed(want.Records[half:])
	got := rec.Trace()
	sameTrace(t, got, want)
	if cap(got.Records) != len(got.Records) {
		t.Fatalf("cap(Records) = %d, want len %d", cap(got.Records), len(got.Records))
	}
	if rec.Trace() != got {
		t.Fatal("Trace is not idempotent")
	}
}

// FuzzRead feeds the decoder arbitrary bytes. Read must either fail or
// return a trace that Write re-encodes to exactly the input: the codec
// has one encoding per trace, and nothing it accepts is lost.
func FuzzRead(f *testing.F) {
	full := encodeSample(f)
	f.Add(full)
	for cut := 0; cut < len(full); cut++ {
		f.Add(full[:cut])
	}
	for i := range full {
		mut := bytes.Clone(full)
		mut[i] ^= 0x40
		f.Add(mut)
	}
	for _, c := range garbageInputs {
		f.Add(c)
	}
	f.Add(encode(f, &Trace{App: "", Nodes: 0}))
	f.Fuzz(func(t *testing.T, b []byte) {
		tr, err := Read(bytes.NewReader(b))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, tr); err != nil {
			t.Fatalf("Read accepted a trace Write refuses: %v", err)
		}
		if !bytes.Equal(out.Bytes(), b) {
			t.Fatalf("Write(Read(b)) differs from b:\n got %x\nwant %x", out.Bytes(), b)
		}
	})
}
