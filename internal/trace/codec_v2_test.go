package trace

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

// encodeSample returns sampleTrace encoded with the current codec.
func encodeSample(t testing.TB) []byte {
	t.Helper()
	return encode(t, sampleTrace())
}

// TestFooterCatchesTruncation truncates the encoding at every possible
// length and demands a loud error each time: the v2 footer exists so a
// partial cache file can never decode as a shorter-but-valid trace.
func TestFooterCatchesTruncation(t *testing.T) {
	full := encodeSample(t)
	for cut := 0; cut < len(full); cut++ {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("Read accepted a %d/%d-byte truncation", cut, len(full))
		}
	}
}

// TestFooterCatchesCorruption flips one bit in every byte of the
// encoding in turn; each flip must fail decoding. Payload flips are
// caught by the CRC (or record validation), footer flips by the footer
// checks themselves.
func TestFooterCatchesCorruption(t *testing.T) {
	full := encodeSample(t)
	for i := range full {
		mut := bytes.Clone(full)
		mut[i] ^= 0x40
		if _, err := Read(bytes.NewReader(mut)); err == nil {
			t.Fatalf("Read accepted a bit flip at byte %d/%d", i, len(full))
		}
	}
}

// TestReadRejectsV1 rebuilds a well-formed v1 stream (header + records,
// no footer) and demands the version error name both versions, so a
// stale cache file tells the user to regenerate rather than producing
// a confusing parse failure.
func TestReadRejectsV1(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("CTRC")
	binary.Write(&buf, binary.LittleEndian, uint16(1)) // version 1
	binary.Write(&buf, binary.LittleEndian, uint16(2)) // nodes
	binary.Write(&buf, binary.LittleEndian, uint32(1)) // iterations
	binary.Write(&buf, binary.LittleEndian, uint16(1)) // app len
	buf.WriteByte('x')
	binary.Write(&buf, binary.LittleEndian, uint64(0)) // record count
	_, err := Read(bytes.NewReader(buf.Bytes()))
	if err == nil {
		t.Fatal("Read accepted a v1 stream")
	}
	if !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("v1 error %q does not name the version", err)
	}
}

// TestPartitionMatchesSerialWalk checks the partition invariants the
// sharded evaluators rest on: every record lands in exactly its
// (node, side) slot, slots preserve original relative order, and the
// source trace is untouched.
func TestPartitionMatchesSerialWalk(t *testing.T) {
	tr := sampleTrace()
	before := append([]Record(nil), tr.Records...)
	p := tr.Partition()
	if p.Slots() != 2*tr.Nodes {
		t.Fatalf("Slots() = %d, want %d", p.Slots(), 2*tr.Nodes)
	}
	if p2 := tr.Partition(); p2 != p {
		t.Fatal("Partition not memoized")
	}

	// Reassemble by walking the trace serially and popping from each
	// slot in turn: order within a slot must match arrival order.
	next := make([]int, p.Slots())
	var total int
	for i, r := range tr.Records {
		s := SlotIndex(int(r.Node), r.Side)
		recs := p.Records(s)
		if next[s] >= len(recs) {
			t.Fatalf("record %d: slot %d exhausted early", i, s)
		}
		if recs[next[s]] != r {
			t.Fatalf("record %d: slot %d position %d holds %+v, want %+v", i, s, next[s], recs[next[s]], r)
		}
		next[s]++
		total++
	}
	for s := 0; s < p.Slots(); s++ {
		if next[s] != len(p.Records(s)) {
			t.Fatalf("slot %d has %d extra records", s, len(p.Records(s))-next[s])
		}
	}
	if total != len(tr.Records) {
		t.Fatalf("partition covers %d records, want %d", total, len(tr.Records))
	}
	for i := range before {
		if tr.Records[i] != before[i] {
			t.Fatalf("Partition mutated source record %d", i)
		}
	}
}

// TestPartitionSizesByReferencedNode covers synthetic traces whose
// header undercounts nodes.
func TestPartitionSizesByReferencedNode(t *testing.T) {
	tr := &Trace{Records: []Record{
		{Node: 5, Side: CacheSide, Sender: 1, Type: coherence.GetROReq, Addr: 64},
	}}
	p := tr.Partition()
	if p.Slots() != 12 {
		t.Fatalf("Slots() = %d, want 12", p.Slots())
	}
	if got := p.Records(SlotIndex(5, CacheSide)); len(got) != 1 {
		t.Fatalf("slot for node 5 cache side has %d records, want 1", len(got))
	}
}
