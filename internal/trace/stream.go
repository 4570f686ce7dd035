package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// This file adds chunked streaming over the CTRC v2 codec, so large
// machines (1024 nodes) can capture and evaluate traces without ever
// materializing the record slice: StreamWriter appends records to a
// file as they are observed, patching the header counts and computing
// the footer checksum in a sequential re-read at Close; StreamReader
// hands records out in bounded windows. Files written by StreamWriter
// and Write are byte-identical for the same records, so the trace
// cache, Read, and Verify all work on either.

// streamBufSize is the encode/decode buffer: large enough to amortize
// syscalls, small enough to keep streaming memory bounded.
const streamBufSize = 64 * 1024

// StreamWriter writes a CTRC v2 trace incrementally to a seekable
// file. The header's iteration and record counts are unknown until the
// run ends, so Close seeks back to patch them and then re-reads the
// payload sequentially to compute the footer checksum — O(1) memory
// throughout.
type StreamWriter struct {
	f      io.ReadWriteSeeker
	bw     *bufio.Writer
	app    string
	count  uint64
	iters  uint32
	closed bool
	err    error
	// rec is the per-record encode buffer. It lives on the struct
	// because a stack buffer passed to the bufio.Writer interface
	// escapes — one heap allocation per record, the single largest
	// allocation site of a 1024-node streamed capture.
	rec [recordSize]byte
}

// NewStreamWriter starts a CTRC v2 file for app over nodes on f
// (typically an *os.File positioned at offset 0).
func NewStreamWriter(f io.ReadWriteSeeker, app string, nodes int) (*StreamWriter, error) {
	w := &StreamWriter{f: f, bw: bufio.NewWriterSize(f, streamBufSize), app: app}
	// The iteration and record counts are patched by Close.
	if err := encodeHeader(w.bw, app, nodes, 0, 0); err != nil {
		return nil, err
	}
	return w, nil
}

// Append encodes one record. Errors are sticky: once a write fails,
// every subsequent Append and the final Close report it.
func (w *StreamWriter) Append(r Record) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		w.err = fmt.Errorf("trace: Append after Close")
		return w.err
	}
	encodeRecord(&w.rec, r)
	if _, err := w.bw.Write(w.rec[:]); err != nil {
		w.err = err
		return err
	}
	w.count++
	if it := uint32(r.Iter) + 1; r.Iter >= 0 && it > w.iters {
		w.iters = it
	}
	return nil
}

// Count returns how many records have been appended.
func (w *StreamWriter) Count() uint64 { return w.count }

// Close flushes the payload, patches the header's iteration and record
// counts, computes the footer checksum in one sequential re-read, and
// appends the footer. The caller still owns f (and closes/syncs it).
func (w *StreamWriter) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	w.closed = true
	fail := func(err error) error { w.err = err; return err }
	if err := w.bw.Flush(); err != nil {
		return fail(err)
	}
	// Patch iterations (offset 8 = magic + version + nodes) and the
	// record count (right after the app name).
	var buf [8]byte
	binary.LittleEndian.PutUint32(buf[:4], w.iters)
	if err := w.writeAt(buf[:4], 8); err != nil {
		return fail(err)
	}
	binary.LittleEndian.PutUint64(buf[:8], w.count)
	if err := w.writeAt(buf[:8], int64(headerSize+len(w.app))); err != nil {
		return fail(err)
	}
	// Checksum pass: the payload now on disk is exactly what Write
	// would have produced; stream it through the CRC.
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fail(err)
	}
	payloadLen := payloadSize(w.app, w.count)
	sum := crc32.New(crcTable)
	if _, err := io.CopyN(sum, bufio.NewReaderSize(w.f, streamBufSize), int64(payloadLen)); err != nil {
		return fail(fmt.Errorf("trace: checksumming streamed payload: %w", err))
	}
	if _, err := w.f.Seek(int64(payloadLen), io.SeekStart); err != nil {
		return fail(err)
	}
	foot := encodeFooter(payloadLen, sum.Sum32())
	if _, err := w.f.Write(foot[:]); err != nil {
		return fail(err)
	}
	return nil
}

func (w *StreamWriter) writeAt(p []byte, off int64) error {
	if _, err := w.f.Seek(off, io.SeekStart); err != nil {
		return err
	}
	_, err := w.f.Write(p)
	return err
}

// StreamReader decodes a CTRC v2 trace in bounded windows. It is the
// only decoder: Read drains one. The footer's length and checksum are
// verified when the last record has been consumed, so a caller that
// drains the stream gets Read's loud-corruption contract. Callers that
// must reject corruption before acting on any record run Verify first
// — a cheap sequential pass.
type StreamReader struct {
	cr   *checksumReader
	app  string
	n    int // nodes
	its  int
	left uint64
	idx  uint64
	done bool
	// chunk is the decode buffer: Next reads up to chunkRecords
	// records per call into the checksumming reader rather than one at
	// a time. It lives on the struct for the same reason as
	// StreamWriter.rec: a stack buffer passed to the reader interface
	// escapes, one allocation per Next.
	chunk [chunkRecords * recordSize]byte
}

// chunkRecords is how many encoded records StreamReader reads at once.
const chunkRecords = 256

// NewStreamReader parses the header. The reader takes over r; records
// come from Next.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	cr := &checksumReader{r: bufio.NewReaderSize(r, streamBufSize), sum: crc32.New(crcTable)}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(cr, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if magic := hdr[:len(traceMagic)]; string(magic) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != Version {
		return nil, fmt.Errorf("trace: unsupported version %d (want %d); regenerate the trace with this build", v, Version)
	}
	if r := binary.LittleEndian.Uint32(hdr[14:]); r != 0 {
		return nil, fmt.Errorf("trace: reserved header bytes hold %#x, want 0", r)
	}
	sr := &StreamReader{
		cr:  cr,
		n:   int(binary.LittleEndian.Uint16(hdr[6:])),
		its: int(binary.LittleEndian.Uint32(hdr[8:])),
	}
	app := make([]byte, binary.LittleEndian.Uint16(hdr[12:]))
	if _, err := io.ReadFull(cr, app); err != nil {
		return nil, fmt.Errorf("trace: reading app name: %w", err)
	}
	sr.app = string(app)
	var cnt [8]byte
	if _, err := io.ReadFull(cr, cnt[:]); err != nil {
		return nil, fmt.Errorf("trace: reading count: %w", err)
	}
	sr.left = binary.LittleEndian.Uint64(cnt[:])
	const maxRecords = 1 << 31
	if sr.left > maxRecords {
		return nil, fmt.Errorf("trace: implausible record count %d", sr.left)
	}
	return sr, nil
}

// App returns the workload name from the header.
func (s *StreamReader) App() string { return s.app }

// Nodes returns the node count from the header.
func (s *StreamReader) Nodes() int { return s.n }

// Iterations returns the application-iteration count from the header.
func (s *StreamReader) Iterations() int { return s.its }

// Remaining returns how many records have not yet been read.
func (s *StreamReader) Remaining() uint64 { return s.left }

// Next decodes up to len(buf) records into buf and returns how many it
// wrote. It returns (0, io.EOF) once every record has been consumed
// and the footer verified. buf may be empty only when no records
// remain; that call verifies the footer.
func (s *StreamReader) Next(buf []Record) (int, error) {
	if s.done {
		return 0, io.EOF
	}
	if len(buf) == 0 && s.left > 0 {
		return 0, fmt.Errorf("trace: StreamReader.Next with empty buffer")
	}
	want := int(min(uint64(len(buf)), s.left))
	for i := 0; i < want; {
		b := s.chunk[:min(want-i, chunkRecords)*recordSize]
		n, err := io.ReadFull(s.cr, b)
		for off := 0; off+recordSize <= n; off += recordSize {
			r, ok := decodeRecord((*[recordSize]byte)(b[off:]), s.n)
			if !ok {
				return i, fmt.Errorf("trace: corrupt record %d: %+v", s.idx, r)
			}
			buf[i] = r
			i++
			s.idx++
		}
		if err != nil {
			return i, fmt.Errorf("trace: reading record %d: %w", s.idx, err)
		}
	}
	s.left -= uint64(want)
	if s.left == 0 {
		if err := s.checkFooter(); err != nil {
			return want, err
		}
		s.done = true
	}
	if want == 0 {
		return 0, io.EOF
	}
	return want, nil
}

// checkFooter verifies the trailing length and checksum against what
// the payload pass actually consumed.
func (s *StreamReader) checkFooter() error {
	payloadLen, payloadSum := s.cr.n, s.cr.sum.Sum32()
	var foot [footerSize]byte
	if _, err := io.ReadFull(s.cr, foot[:]); err != nil {
		return fmt.Errorf("trace: reading footer (truncated file?): %w", err)
	}
	if string(foot[0:4]) != footerMagic {
		return fmt.Errorf("trace: bad footer magic %q (truncated file?)", foot[0:4])
	}
	if wantLen := binary.LittleEndian.Uint64(foot[4:]); wantLen != payloadLen {
		return fmt.Errorf("trace: payload length %d, footer says %d (truncated file?)", payloadLen, wantLen)
	}
	if wantSum := binary.LittleEndian.Uint32(foot[12:]); wantSum != payloadSum {
		return fmt.Errorf("trace: payload checksum %#x, footer says %#x (corrupted file?)", payloadSum, wantSum)
	}
	// The footer ends the trace, so every accepted input re-encodes exactly.
	if n, _ := io.ReadFull(s.cr.r, foot[:1]); n > 0 {
		return fmt.Errorf("trace: trailing bytes after the footer")
	}
	return nil
}

// Verify makes one sequential pass over a CTRC v2 stream, checking the
// header shape and the footer's length and checksum without decoding
// records. It is the cheap pre-flight the cache path runs before
// streaming a stored trace into an evaluation.
func Verify(r io.Reader) error {
	sr, err := NewStreamReader(r)
	if err != nil {
		return err
	}
	payload := sr.left * recordSize
	if _, err := io.CopyN(io.Discard, sr.cr, int64(payload)); err != nil {
		return fmt.Errorf("trace: verifying payload: %w", err)
	}
	return sr.checkFooter()
}

// StreamRecorder captures a machine run straight to a StreamWriter,
// never materializing the record slice — the allocation-flat capture
// path for large node counts. It implements machine.Observer
// structurally, like Recorder. Observer hooks cannot return errors, so
// write failures are sticky and surfaced by Close.
type StreamRecorder struct {
	capture
	w   *StreamWriter
	err error
}

// NewStreamRecorder wraps a StreamWriter with Recorder's phase
// bookkeeping (see NewRecorder for the startup-exclusion semantics).
func NewStreamRecorder(w *StreamWriter, phasesPerIter, startupIterations int) *StreamRecorder {
	r := &StreamRecorder{w: w}
	r.capture = newCapture(phasesPerIter, startupIterations, r.append)
	return r
}

func (r *StreamRecorder) append(rec Record) {
	if r.err == nil {
		r.err = r.w.Append(rec)
	}
}

// Close finishes the underlying StreamWriter and reports the first
// error encountered anywhere in the capture.
func (r *StreamRecorder) Close() error {
	if r.err != nil {
		return r.err
	}
	return r.w.Close()
}
