package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"slices"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

// Binary trace format (CTRC v2):
//
//	magic "CTRC" | version u16 | nodes u16 | iterations u32 |
//	appLen u16 | app bytes | count u64 | records... | footer
//
// Each record is 18 bytes little-endian: node i16, side u8, sender
// i16, type u8, addr u64, iter u32. The wire order is not Record's
// field order, and iter takes four bytes on the wire though a Record
// holds two: the decoder rejects an iter above MaxIter and a header
// iterations above MaxIter+1.
//
// The v2 footer is 16 bytes: magic "CTRE" | payload length u64 |
// CRC-32C u32, where the length and checksum cover every byte from the
// leading "CTRC" up to (excluding) the footer. A truncated file fails
// the footer read, a short or bit-flipped payload fails the length or
// checksum comparison — either way the load fails loudly instead of
// silently decoding a shorter (or corrupted) trace. The format is
// versioned so traces written by older builds also fail loudly instead
// of decoding garbage: v1 files (no footer) are rejected with a
// version-mismatch error telling the caller to regenerate.

const (
	traceMagic = "CTRC"
	// Version is the current trace format version. It participates in
	// trace-cache content keys: bumping it invalidates every cached
	// trace, because older payload layouts must never be decoded by a
	// newer build.
	Version     = 2
	recordSize  = 18
	footerMagic = "CTRE"
	footerSize  = 16
)

// headerSize is the header's fixed prefix: magic, version, nodes,
// iterations, app-name length, and four reserved bytes. The app name
// and the u64 record count follow it.
const headerSize = 18

// crcTable is the Castagnoli polynomial table (hardware-accelerated on
// amd64/arm64), shared by every encoder and decoder.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendHeader appends the CTRC header to b, refusing values the
// fixed-width fields cannot hold. StreamWriter writes zero counts here
// and patches them at Close.
func appendHeader(b []byte, app string, nodes, iters int, count uint64) ([]byte, error) {
	if len(app) > 1<<16-1 {
		return nil, fmt.Errorf("trace: app name of %d bytes does not fit the header", len(app))
	}
	if nodes < 0 || nodes > 1<<16-1 {
		return nil, fmt.Errorf("trace: node count %d does not fit the header", nodes)
	}
	if iters < 0 || iters > MaxIter+1 {
		return nil, fmt.Errorf("trace: iteration count %d is outside [0, %d]", iters, MaxIter+1)
	}
	le := binary.LittleEndian
	b = append(b, traceMagic...)
	b = le.AppendUint16(b, Version)
	b = le.AppendUint16(b, uint16(nodes))
	b = le.AppendUint32(b, uint32(iters))
	b = le.AppendUint16(b, uint16(len(app)))
	b = append(b, 0, 0, 0, 0) // reserved
	b = append(b, app...)
	return le.AppendUint64(b, count), nil
}

// encodeRecord packs r into b.
func encodeRecord(b *[recordSize]byte, r Record) {
	binary.LittleEndian.PutUint16(b[0:], uint16(r.Node))
	b[2] = byte(r.Side)
	binary.LittleEndian.PutUint16(b[3:], uint16(r.Sender))
	b[5] = byte(r.Type)
	binary.LittleEndian.PutUint64(b[6:], uint64(r.Addr))
	binary.LittleEndian.PutUint32(b[14:], uint32(r.Iter))
}

// unpackRecord writes b's fields into r from their fixed wire offsets
// and returns the wire iter, of which r.Iter holds the low 16 bits.
// It stores field by field: a Record built in a temporary and copied
// whole is written as narrow stores and read back as one wide load,
// which stalls store forwarding on every record.
func unpackRecord(r *Record, b *[recordSize]byte) uint32 {
	iter := binary.LittleEndian.Uint32(b[14:])
	r.Addr = coherence.Addr(binary.LittleEndian.Uint64(b[6:]))
	r.Node = coherence.NodeID(int16(binary.LittleEndian.Uint16(b[0:])))
	r.Sender = coherence.NodeID(int16(binary.LittleEndian.Uint16(b[3:])))
	r.Iter = uint16(iter)
	r.Side = Side(b[2])
	r.Type = coherence.MsgType(b[5])
	return iter
}

// validMask is the codec's one validity test, covering everything an
// evaluator indexes or encodes with: out-of-range nodes would index
// predictor slices out of bounds; senders beyond 12 bits would panic
// tuple packing; an iter above MaxIter does not fit Record.Iter. Its
// result has the top bit set exactly when r, read with its wire iter,
// is valid. Each field is one unsigned range compare, x < bound,
// written as x - bound, which wraps and sets the top bit exactly when
// x < bound (both are below 2^32); a negative node or sender is above
// every bound as a uint16. The terms AND together without a branch,
// so a batch of records folds into one word. nodeLim is the header's
// node count capped at 0x8000, or 0x8000 when the header says 0
// (unknown), so that a node lies in [0, nodes) or is any non-negative
// NodeID.
func validMask(r *Record, iter uint32, nodeLim uint64) uint64 {
	return (uint64(uint16(r.Node)) - nodeLim) &
		(uint64(r.Side) - uint64(numSides)) &
		(uint64(uint16(r.Sender)) - 1<<12) &
		(uint64(r.Type-1) - uint64(coherence.NumMsgTypes-1)) &
		(uint64(iter) - (MaxIter + 1))
}

// decodeRecords unpacks len(dst) records from src, which holds at
// least that many, into dst in one pass that folds every record's
// validMask into one word. It returns -1 when all are valid. Only
// when some record is not does it rescan the batch, returning the
// index of the first invalid record; dst then holds the decoded batch,
// that record and the ones after it included.
func decodeRecords(dst []Record, src []byte, nodeLim uint64) int {
	valid := ^uint64(0)
	for k := range dst {
		iter := unpackRecord(&dst[k], (*[recordSize]byte)(src[k*recordSize:]))
		valid &= validMask(&dst[k], iter, nodeLim)
	}
	if valid>>63 == 1 {
		return -1
	}
	for k := range dst {
		iter := unpackRecord(&dst[k], (*[recordSize]byte)(src[k*recordSize:]))
		if validMask(&dst[k], iter, nodeLim)>>63 == 0 {
			return k
		}
	}
	panic("trace: decodeRecords found no invalid record in a failed batch")
}

// encodeFooter builds the footer pinning the payload's length and
// checksum.
func encodeFooter(payloadLen uint64, sum uint32) [footerSize]byte {
	var foot [footerSize]byte
	copy(foot[0:], footerMagic)
	binary.LittleEndian.PutUint64(foot[4:], payloadLen)
	binary.LittleEndian.PutUint32(foot[12:], sum)
	return foot
}

// payloadSize is the byte length the footer pins: the header, the app
// name, the record count and count records.
func payloadSize(app string, count uint64) uint64 {
	return uint64(headerSize+len(app)+8) + count*recordSize
}

// writeBatch is how many records Write encodes into its buffer before
// one checksum update and one write: 72 KiB a batch, so the per-call
// costs of w and the CRC are paid per batch, not per 18-byte record.
const writeBatch = 4096

// Write serializes the trace to w in the v2 format. The header rides
// with the first batch of records and the footer with the last, so a
// trace of n records takes max(1, ceil(n/writeBatch)) writes.
func Write(w io.Writer, t *Trace) error {
	count := uint64(len(t.Records))
	buf := make([]byte, 0, payloadSize(t.App, uint64(min(len(t.Records), writeBatch)))+footerSize)
	buf, err := appendHeader(buf, t.App, t.Nodes, t.Iterations, count)
	if err != nil {
		return err
	}
	// Every payload byte flows through the checksum; the footer then
	// pins it and the payload's length.
	var sum uint32
	recs := t.Records
	for {
		n := min(len(recs), writeBatch)
		off := len(buf)
		buf = buf[:off+n*recordSize]
		for i, r := range recs[:n] {
			encodeRecord((*[recordSize]byte)(buf[off+i*recordSize:]), r)
		}
		sum = crc32.Update(sum, crcTable, buf)
		if recs = recs[n:]; len(recs) == 0 {
			break
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
		buf = buf[:0]
	}
	foot := encodeFooter(payloadSize(t.App, count), sum)
	_, err = w.Write(append(buf, foot[:]...))
	return err
}

// checksumReader feeds every byte it yields into the checksum and the
// byte counter, so the footer can be verified against what was
// actually consumed.
type checksumReader struct {
	r   io.Reader
	sum hash.Hash32
	n   uint64
}

func (c *checksumReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.sum.Write(p[:n])
		c.n += uint64(n)
	}
	return n, err
}

// Read deserializes a trace written by Write, verifying the v2 length
// and checksum footer before returning it. It drains a StreamReader,
// the codec's only decoder, straight into Records. Records is never
// sized from the header alone, so a corrupt count fails at the first
// short read instead of attempting a multi-gigabyte make(): when r
// knows its length (an *os.File, or a reader with a Len method) the
// capacity is the smaller of the count and what those bytes hold, so
// an honest trace is allocated once, exactly; otherwise Records grows.
func Read(r io.Reader) (*Trace, error) {
	avail, known := remainingBytes(r)
	sr, err := NewStreamReader(r)
	if err != nil {
		return nil, err
	}
	t := &Trace{App: sr.App(), Nodes: sr.Nodes(), Iterations: sr.Iterations()}
	if known {
		fit := (avail - int64(payloadSize(sr.App(), 0)) - footerSize) / recordSize
		t.Records = make([]Record, 0, min(sr.Remaining(), uint64(max(fit, 0))))
	}
	for {
		if len(t.Records) == cap(t.Records) && sr.Remaining() > 0 {
			t.Records = slices.Grow(t.Records, int(min(sr.Remaining(), chunkRecords)))
		}
		n, err := sr.Next(t.Records[len(t.Records):cap(t.Records)])
		t.Records = t.Records[:len(t.Records)+n]
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// remainingBytes reports how many unread bytes r holds, if r can tell.
func remainingBytes(r io.Reader) (int64, bool) {
	switch v := r.(type) {
	case interface{ Len() int }:
		return int64(v.Len()), true
	case *os.File:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() {
			off, err := v.Seek(0, io.SeekCurrent)
			return fi.Size() - off, err == nil
		}
	}
	return 0, false
}

// WriteText dumps the trace in a human-readable one-record-per-line
// form, for debugging and diffing.
func WriteText(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# trace app=%s nodes=%d iterations=%d records=%d\n",
		t.App, t.Nodes, t.Iterations, len(t.Records))
	for _, r := range t.Records {
		fmt.Fprintf(bw, "%d %s@%s %s %s %#x\n",
			r.Iter, r.Side, r.Node, r.Sender, r.Type, uint64(r.Addr))
	}
	return bw.Flush()
}
