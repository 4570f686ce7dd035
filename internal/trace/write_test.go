package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"testing"
)

// refWrite is the per-record reference encoder Write's batching is
// pinned against: every record goes through its own interface write
// and its own checksum update, as the codec encoded before it
// batched.
func refWrite(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	sum := crc32.New(crcTable)
	mw := io.MultiWriter(bw, sum)
	count := uint64(len(t.Records))
	hdr, err := appendHeader(nil, t.App, t.Nodes, t.Iterations, count)
	if err != nil {
		return err
	}
	if _, err := mw.Write(hdr); err != nil {
		return err
	}
	var rec [recordSize]byte
	for _, r := range t.Records {
		encodeRecord(&rec, r)
		if _, err := mw.Write(rec[:]); err != nil {
			return err
		}
	}
	foot := encodeFooter(payloadSize(t.App, count), sum.Sum32())
	if _, err := bw.Write(foot[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// countingWriter counts the writes it receives.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.Buffer.Write(p)
}

// TestWriteBatchEdges encodes traces on both sides of each batch edge:
// Write's bytes must equal the per-record reference's, decode back to
// the same trace, and arrive in one write per batch.
func TestWriteBatchEdges(t *testing.T) {
	for _, n := range []int{0, 1, writeBatch - 1, writeBatch, writeBatch + 1, 2*writeBatch + 1} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			tr := bigTrace(n)
			var got countingWriter
			if err := Write(&got, tr); err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := refWrite(&want, tr); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("Write of %d records differs from the per-record reference (%d vs %d bytes)",
					n, got.Len(), want.Len())
			}
			if wantWrites := max(1, (n+writeBatch-1)/writeBatch); got.writes != wantWrites {
				t.Errorf("Write of %d records made %d writes, want %d", n, got.writes, wantWrites)
			}
			back, err := Read(bytes.NewReader(got.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			sameTrace(t, back, tr)
		})
	}
}

// failingWriter accepts ok writes, then fails every later one.
type failingWriter struct{ ok int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.ok == 0 {
		return 0, io.ErrShortWrite
	}
	f.ok--
	return len(p), nil
}

// TestWriteReportsWriterErrors: a failure on a middle batch or on the
// final write (footer included) reaches Write's caller.
func TestWriteReportsWriterErrors(t *testing.T) {
	tr := bigTrace(2*writeBatch + 1)
	for ok := 0; ok < 3; ok++ {
		if err := Write(&failingWriter{ok: ok}, tr); err != io.ErrShortWrite {
			t.Errorf("writer failing after %d writes: Write returned %v, want %v", ok, err, io.ErrShortWrite)
		}
	}
}
