package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

// decodeRecord is the per-record reference decoder the batched
// decodeRecords is pinned against: it unpacks b and tests each field
// on its own, exiting at the first that fails. nodes is the header's
// node count (0 when unknown).
func decodeRecord(b *[recordSize]byte, nodes int) (Record, bool) {
	iter := binary.LittleEndian.Uint32(b[14:])
	r := Record{
		Node:   coherence.NodeID(int16(binary.LittleEndian.Uint16(b[0:]))),
		Side:   Side(b[2]),
		Sender: coherence.NodeID(int16(binary.LittleEndian.Uint16(b[3:]))),
		Type:   coherence.MsgType(b[5]),
		Addr:   coherence.Addr(binary.LittleEndian.Uint64(b[6:])),
		Iter:   uint16(iter),
	}
	ok := r.Side < numSides && r.Type.Valid() &&
		r.Node >= 0 && (nodes == 0 || int(r.Node) < nodes) &&
		r.Sender >= 0 && r.Sender < 1<<12 && iter <= MaxIter
	return r, ok
}

// sealRecords wraps raw record bytes (whole records only; a partial
// tail is dropped) in a valid header for nodes and a correct footer,
// so that only the record decoder can reject them.
func sealRecords(t testing.TB, nodes uint16, raw []byte) []byte {
	t.Helper()
	count := len(raw) / recordSize
	b, err := appendHeader(nil, "fuzz", int(nodes), 0, uint64(count))
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, raw[:count*recordSize]...)
	return reseal(append(b, make([]byte, footerSize)...))
}

// refDecode runs decodeRecord over every record of raw, returning the
// records before the first invalid one and, if there is one, the error
// a decoder must report for it.
func refDecode(raw []byte, nodes int) ([]Record, string) {
	var recs []Record
	for k := 0; (k+1)*recordSize <= len(raw); k++ {
		r, ok := decodeRecord((*[recordSize]byte)(raw[k*recordSize:]), nodes)
		if !ok {
			return recs, fmt.Sprintf("trace: corrupt record %d: %+v", k, r)
		}
		recs = append(recs, r)
	}
	return recs, ""
}

// drainStream reads b through a StreamReader window records at a time,
// returning every record Next counted and the error that ended the
// drain (nil at io.EOF).
func drainStream(b []byte, window int) ([]Record, error) {
	sr, err := NewStreamReader(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	var recs []Record
	buf := make([]Record, window)
	for {
		n, err := sr.Next(buf)
		recs = append(recs, buf[:n]...)
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
	}
}

// checkDecode requires Read and a StreamReader drained window records
// at a time to return want, or to fail with exactly wantErr after
// handing out want.
func checkDecode(t *testing.T, b []byte, window int, want []Record, wantErr string) {
	t.Helper()
	tr, err := Read(bytes.NewReader(b))
	switch {
	case wantErr == "" && err != nil:
		t.Fatalf("Read: %v, want %d records", err, len(want))
	case wantErr == "" && !slices.Equal(tr.Records, want):
		t.Fatalf("Read decoded %d records, the reference %d, or they differ", len(tr.Records), len(want))
	case wantErr != "" && (err == nil || err.Error() != wantErr):
		t.Fatalf("Read: %v, want %q", err, wantErr)
	}
	recs, err := drainStream(b, window)
	if (err == nil) != (wantErr == "") || (err != nil && err.Error() != wantErr) {
		t.Fatalf("StreamReader drain by %d: %v, want %q", window, err, wantErr)
	}
	if !slices.Equal(recs, want) {
		t.Fatalf("StreamReader drain by %d counted %d records, the reference %d, or they differ", window, len(recs), len(want))
	}
}

// badField is one way a record can fail decoding: patch overwrites
// its wire bytes, and want is the Record the decoder reports for it.
type badField struct {
	name  string
	patch func(rec []byte)
	want  func(r Record) Record
}

// badFields are the invalid values of every field the decoder checks,
// against a header of 16 nodes.
var badFields = []badField{
	{"node = header nodes", func(b []byte) { binary.LittleEndian.PutUint16(b[0:], 16) }, func(r Record) Record { r.Node = 16; return r }},
	{"negative node", func(b []byte) { binary.LittleEndian.PutUint16(b[0:], 0xffff) }, func(r Record) Record { r.Node = -1; return r }},
	{"side 2", func(b []byte) { b[2] = 2 }, func(r Record) Record { r.Side = 2; return r }},
	{"sender 4096", func(b []byte) { binary.LittleEndian.PutUint16(b[3:], 4096) }, func(r Record) Record { r.Sender = 4096; return r }},
	{"negative sender", func(b []byte) { binary.LittleEndian.PutUint16(b[3:], 0xfffe) }, func(r Record) Record { r.Sender = -2; return r }},
	{"type 0", func(b []byte) { b[5] = 0 }, func(r Record) Record { r.Type = 0; return r }},
	{"type NumMsgTypes", func(b []byte) { b[5] = byte(coherence.NumMsgTypes) }, func(r Record) Record { r.Type = coherence.NumMsgTypes; return r }},
	{"iter MaxIter+1", func(b []byte) { binary.LittleEndian.PutUint32(b[14:], MaxIter+1) }, func(r Record) Record { r.Iter = 0; return r }}, // Record.Iter keeps the low 16 bits
}

// TestDecodeErrorAtBatchEdges places one invalid record, resealed so
// only the decoder can reject it, first and last in the first chunk,
// first in the second and last in the trace. Read and StreamReader
// drains (one whole-trace buffer, and windows that straddle chunks)
// must fail with the exact per-record error text after handing out
// exactly the records before it.
func TestDecodeErrorAtBatchEdges(t *testing.T) {
	tr := bigTrace(2*chunkRecords + 5)
	clean := encode(t, tr)
	recOff := headerSize + len(tr.App) + 8
	last := len(tr.Records) - 1
	for _, f := range badFields {
		for _, k := range []int{0, chunkRecords - 1, chunkRecords, last} {
			t.Run(fmt.Sprintf("%s/%d", f.name, k), func(t *testing.T) {
				b := bytes.Clone(clean)
				f.patch(b[recOff+k*recordSize:])
				reseal(b)
				wantErr := fmt.Sprintf("trace: corrupt record %d: %+v", k, f.want(tr.Records[k]))
				if _, ref := refDecode(b[recOff:len(b)-footerSize], tr.Nodes); ref != wantErr {
					t.Fatalf("reference decoder reports %q, want %q", ref, wantErr)
				}
				for _, window := range []int{len(tr.Records), 100, 1} {
					checkDecode(t, b, window, tr.Records[:k], wantErr)
				}
			})
		}
	}
}

// FuzzDecodeRecords seals arbitrary record bytes under a header of
// the given node count, so the checksum never rejects them, and
// requires Read and a StreamReader drain to agree with the per-record
// reference decoder: the same records, or the same first invalid
// record and error text.
func FuzzDecodeRecords(f *testing.F) {
	tr := bigTrace(chunkRecords + 3)
	raw := encode(f, tr)[headerSize+len(tr.App)+8:]
	raw = raw[:len(raw)-footerSize]
	f.Add(uint16(tr.Nodes), uint16(64), raw)
	f.Add(uint16(0), uint16(chunkRecords), raw)
	f.Add(uint16(1), uint16(7), raw)
	for _, bf := range badFields {
		for _, k := range []int{0, chunkRecords - 1, chunkRecords + 2} {
			mut := bytes.Clone(raw)
			bf.patch(mut[k*recordSize:])
			f.Add(uint16(tr.Nodes), uint16(chunkRecords+1), mut)
		}
	}
	f.Add(uint16(0x8001), uint16(3), raw[:5*recordSize+4])
	f.Fuzz(func(t *testing.T, nodes, window uint16, raw []byte) {
		want, wantErr := refDecode(raw, int(nodes))
		checkDecode(t, sealRecords(t, nodes, raw), int(window)%(2*chunkRecords)+1, want, wantErr)
	})
}

// nextSteady calls Next until it has handed out n records; allocsThrough
// counts by its name.
//
//go:noinline
func nextSteady(sr *StreamReader, buf []Record, n int) {
	for got := 0; got < n; {
		k, err := sr.Next(buf)
		if err != nil {
			panic(err)
		}
		got += k
	}
}

// TestStreamReaderNextAllocationFree: once a StreamReader is open, Next
// into the caller's buffer allocates nothing per call, chunk by chunk.
// The trace outlasts the drain, so the footer check at its end, which
// is not steady state, stays out of the count. The same drain over a source whose Read allocates must
// count those allocations, so the zero is a real measurement.
func TestStreamReaderNextAllocationFree(t *testing.T) {
	b := encode(t, bigTrace(80*chunkRecords))
	const steady = 60 * chunkRecords
	for _, c := range []struct {
		name string
		src  io.Reader
		zero bool
	}{
		{"bytes.Reader", bytes.NewReader(b), true},
		{"allocating source", allocatingReader{bytes.NewReader(b)}, false},
	} {
		sr, err := NewStreamReader(c.src)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]Record, 1000)
		nextSteady(sr, buf, len(buf))
		n := allocsThrough(nextSteady, func() { nextSteady(sr, buf, steady) })
		if c.zero && n != 0 {
			t.Errorf("%s: Next over %d records allocated %d times, want 0", c.name, steady, n)
		}
		if !c.zero && n == 0 {
			t.Errorf("%s: allocsThrough counted no allocation under Next", c.name)
		}
	}
}

// allocatingReader allocates on every Read.
type allocatingReader struct{ r io.Reader }

var readSink []byte

func (a allocatingReader) Read(p []byte) (int, error) {
	readSink = make([]byte, 64)
	return a.r.Read(p)
}

// allocsThrough runs f once with every allocation sampled and returns
// how many objects were allocated on stacks passing through fn.
// testing.AllocsPerRun counts mallocs process-wide, so an allocation
// by another goroutine during f would be charged to f; here only f's
// own call chain into fn counts.
func allocsThrough(fn any, f func()) int64 {
	name := runtime.FuncForPC(reflect.ValueOf(fn).Pointer()).Name()
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	// A heap profile publishes allocations at the end of a GC cycle, so
	// a collection on each side brackets exactly f's allocations.
	runtime.GC()
	before := profiledAllocs(name)
	f()
	runtime.GC()
	return profiledAllocs(name) - before
}

// profiledAllocs sums the cumulative allocation counts of every heap
// profile record whose stack passes through the function named name.
func profiledAllocs(name string) int64 {
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	var total int64
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			fr, more := frames.Next()
			if fr.Function == name {
				total += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return total
}
