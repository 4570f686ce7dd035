package trace

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"testing"
	"unsafe"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

// TestRecordSize pins Record's layout: 16 bytes with no padding, the
// size every decoded, partitioned, recorded and windowed trace copy
// pays per record.
func TestRecordSize(t *testing.T) {
	if size := unsafe.Sizeof(Record{}); size != 16 {
		t.Errorf("Record is %d bytes, want 16", size)
	}
}

// maxIterTrace is sampleTrace with its last record at MaxIter.
func maxIterTrace() *Trace {
	tr := sampleTrace()
	tr.Records[len(tr.Records)-1].Iter = MaxIter
	tr.Iterations = MaxIter + 1
	return tr
}

// reseal rewrites b's footer over its (patched) payload, so a crafted
// field reaches the record and header checks instead of failing the
// checksum.
func reseal(b []byte) []byte {
	payload := len(b) - footerSize
	foot := encodeFooter(uint64(payload), crc32.Checksum(b[:payload], crcTable))
	copy(b[payload:], foot[:])
	return b
}

// patchRecordIter encodes tr and overwrites record i's wire iter.
func patchRecordIter(t testing.TB, tr *Trace, i int, iter uint32) []byte {
	t.Helper()
	b := encode(t, tr)
	off := headerSize + len(tr.App) + 8 + i*recordSize + 14
	binary.LittleEndian.PutUint32(b[off:], iter)
	return reseal(b)
}

// patchHeaderIters encodes tr and overwrites the header's iteration
// count.
func patchHeaderIters(t testing.TB, tr *Trace, iters uint32) []byte {
	t.Helper()
	b := encode(t, tr)
	binary.LittleEndian.PutUint32(b[8:], iters)
	return reseal(b)
}

// overCapEncodings are well-sealed CTRC files whose only fault is an
// iteration Record cannot hold: a record iter of MaxIter+1 or of
// 0xffffffff, and a header counting MaxIter+2 iterations. FuzzRead
// seeds its corpus with them.
func overCapEncodings(t testing.TB) map[string][]byte {
	return map[string][]byte{
		"record iter MaxIter+1":       patchRecordIter(t, maxIterTrace(), 5, MaxIter+1),
		"record iter 0xffffffff":      patchRecordIter(t, sampleTrace(), 0, 0xffffffff),
		"header iterations MaxIter+2": patchHeaderIters(t, maxIterTrace(), MaxIter+2),
	}
}

// TestMaxIterRoundTrip: a record at MaxIter survives Write/Read and the
// streaming codec, and both encoders produce the same bytes.
func TestMaxIterRoundTrip(t *testing.T) {
	want := maxIterTrace()
	b := encode(t, want)
	got, err := Read(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	sameTrace(t, got, want)

	if sb := streamEncode(t, want); !bytes.Equal(sb, b) {
		t.Fatal("StreamWriter encoding differs from Write at MaxIter")
	}
	sr, err := NewStreamReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Iterations() != MaxIter+1 {
		t.Errorf("header iterations = %d, want %d", sr.Iterations(), MaxIter+1)
	}
	buf := make([]Record, len(want.Records))
	if n, err := sr.Next(buf); err != nil || n != len(buf) {
		t.Fatalf("Next = %d, %v", n, err)
	}
	if buf[len(buf)-1].Iter != MaxIter {
		t.Errorf("streamed last Iter = %d, want %d", buf[len(buf)-1].Iter, MaxIter)
	}
	if _, err := sr.Next(nil); err != io.EOF {
		t.Fatalf("drained Next = %v, want io.EOF", err)
	}
}

// TestDecodersRejectOverCap: Read and a StreamReader drain both refuse
// an iteration beyond MaxIter, in a record or in the header, and Write refuses to encode a
// header they would refuse.
func TestDecodersRejectOverCap(t *testing.T) {
	for name, b := range overCapEncodings(t) {
		if _, err := Read(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: Read accepted it", name)
		}
		sr, err := NewStreamReader(bytes.NewReader(b))
		if err == nil {
			_, err = sr.Next(make([]Record, sr.Remaining()))
		}
		if err == nil {
			t.Errorf("%s: StreamReader accepted it", name)
		}
	}
	for _, iters := range []int{-1, MaxIter + 2} {
		tr := sampleTrace()
		tr.Iterations = iters
		if err := Write(io.Discard, tr); err == nil {
			t.Errorf("Write accepted header iterations %d", iters)
		}
	}
}

func TestCheckIterations(t *testing.T) {
	for _, c := range []struct {
		phases, perIter int
		ok              bool
	}{
		{0, 1, true},
		{MaxIter + 1, 1, true},
		{MaxIter + 2, 1, false},
		{2 * (MaxIter + 1), 2, true},
		{2*(MaxIter+1) + 1, 2, false}, // a trailing partial iteration numbers MaxIter+1
		{MaxIter + 2, 0, false},       // phasesPerIter < 1 counts as 1, as in the recorders
	} {
		if err := CheckIterations("app", c.phases, c.perIter); (err == nil) != c.ok {
			t.Errorf("CheckIterations(%d phases, %d per iteration) = %v, want ok=%v", c.phases, c.perIter, err, c.ok)
		}
	}
}

// TestCaptureBackstop: a recorder stamps MaxIter and panics, rather than
// wrapping to 0, on the message after it.
func TestCaptureBackstop(t *testing.T) {
	rec := NewRecorder("app", 2, 1, 0)
	for p := 0; p < MaxIter; p++ {
		rec.EndIteration(p)
	}
	msg := coherence.Msg{Src: 1, Dst: 0, Type: coherence.GetRWReq, Addr: 0x40}
	rec.ObserveDirectory(0, msg)
	if tr := rec.Trace(); tr.Records[0].Iter != MaxIter || tr.Iterations != MaxIter+1 {
		t.Fatalf("recorded Iter %d, Iterations %d", tr.Records[0].Iter, tr.Iterations)
	}
	rec.EndIteration(MaxIter)
	defer func() {
		if recover() == nil {
			t.Error("recorder accepted an iteration beyond MaxIter")
		}
	}()
	rec.ObserveDirectory(0, msg)
}
