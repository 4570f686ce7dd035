package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

// CPSS — Cosmos Predictor State Snapshot — is the versioned container
// that makes the whole service state one durable artifact. It wraps
// the per-stream canonical predictor snapshots (internal/core) with
// the service-level cursors and the unacknowledged response tail, and
// seals everything with the CTRC v2 footer idiom: trailing payload
// length plus CRC-32C (Castagnoli). Each failure mode is loud and
// distinct — ErrTruncated, ErrCorrupt, and ErrVersion never masquerade
// as one another, so an operator (and the chaos self-check) can tell a
// torn write from bit rot from a stale build.
//
// Layout (little-endian):
//
//	magic "CPSS" | version u16 | streamCount u32 |
//	per stream:
//	  applied u64 | acked u64 |
//	  respCount u32 (must equal applied-acked) |
//	  per response: sender u16 | type u8 | ok u8 |
//	  snapLen u32 | canonical core snapshot bytes
//	footer: bytesBeforeFooter u64 | crc32c(bytesBeforeFooter) u32
//
// Like the trace codec, the decoder never sizes an allocation from an
// untrusted count: every count is bounded against the bytes that
// remain before the corresponding make.

// cpssVersion is the current container version. Bump on any layout
// change; old files then fail with ErrVersion, not garbage decodes.
const cpssVersion = 1

var cpssMagic = [4]byte{'C', 'P', 'S', 'S'}

// cpssCRCTable is the Castagnoli polynomial table (hardware-assisted
// on modern CPUs), matching the CTRC trace codec.
var cpssCRCTable = crc32.MakeTable(crc32.Castagnoli)

// Distinct CPSS failure classes. Decode errors wrap exactly one of
// these; match with errors.Is.
var (
	// ErrTruncated means the file ends before its own footer says it
	// should — a torn or partial write.
	ErrTruncated = errors.New("serve: cpss: truncated")
	// ErrCorrupt means the bytes are complete but wrong — checksum
	// mismatch, bad magic, or a structurally impossible payload.
	ErrCorrupt = errors.New("serve: cpss: corrupt")
	// ErrVersion means a well-formed container written by a different
	// CPSS version.
	ErrVersion = errors.New("serve: cpss: version mismatch")
)

// StreamState is one stream's durable state inside a CPSS container,
// as DecodeCPSS returns it. The live server never builds one: it
// encodes its streams straight into the container (Server.checkpoint),
// through the same appenders EncodeCPSS uses.
type StreamState struct {
	// Applied counts observations applied to the predictor since the
	// stream began: the stream's durable cursor.
	Applied uint64
	// Acked counts responses the client has confirmed receiving.
	Acked uint64
	// Resp is the retained response tail for sequences [Acked, Applied),
	// kept so a resynchronizing client can be re-sent everything it may
	// have missed.
	Resp []Response
	// Snap is the predictor's canonical snapshot (core.Snapshot).
	Snap []byte
}

// State is the full durable service state: one entry per stream, dense
// by stream id.
type State struct {
	Streams []StreamState
}

// EncodeCPSS serializes the state into a self-validating container.
func EncodeCPSS(st State) []byte {
	buf := appendCPSSHeader(nil, len(st.Streams))
	for i := range st.Streams {
		s := &st.Streams[i]
		buf = appendStreamHead(buf, s.Applied, s.Acked, s.Resp)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Snap)))
		buf = append(buf, s.Snap...)
	}
	return appendFooter(buf)
}

// appendCPSSHeader appends the magic, version and stream count.
func appendCPSSHeader(buf []byte, streams int) []byte {
	buf = append(buf, cpssMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, cpssVersion)
	return binary.LittleEndian.AppendUint32(buf, uint32(streams))
}

// appendStreamHead appends one stream's cursors and response tail: all
// of the stream but its snapshot length and bytes.
func appendStreamHead(buf []byte, applied, acked uint64, resp []Response) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, applied)
	buf = binary.LittleEndian.AppendUint64(buf, acked)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(resp)))
	for _, r := range resp {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(r.Pred.Sender))
		buf = append(buf, byte(r.Pred.Type))
		if r.OK {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// appendFooter seals a payload with the CTRC v2 footer: trailing
// payload length plus CRC-32C.
func appendFooter(body []byte) []byte {
	body = binary.LittleEndian.AppendUint64(body, uint64(len(body)))
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body[:len(body)-8], cpssCRCTable))
}

// Digest returns the content address of an encoded container.
func Digest(encoded []byte) [sha256.Size]byte { return sha256.Sum256(encoded) }

const cpssFooterSize = 8 + 4

// DecodeCPSS validates and decodes a container. The returned error
// wraps ErrTruncated, ErrCorrupt, or ErrVersion.
func DecodeCPSS(data []byte) (State, error) {
	if len(data) < len(cpssMagic)+2+4+cpssFooterSize {
		return State{}, fmt.Errorf("%w: %d bytes is smaller than an empty container", ErrTruncated, len(data))
	}
	if [4]byte(data[:4]) != cpssMagic {
		return State{}, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:4])
	}
	// Footer first: length pins truncation, checksum pins corruption.
	body := data[:len(data)-cpssFooterSize]
	wantLen := binary.LittleEndian.Uint64(data[len(data)-cpssFooterSize:])
	wantCRC := binary.LittleEndian.Uint32(data[len(data)-4:])
	if wantLen != uint64(len(body)) {
		if wantLen > uint64(len(body)) {
			return State{}, fmt.Errorf("%w: footer says %d payload bytes, file holds %d", ErrTruncated, wantLen, len(body))
		}
		return State{}, fmt.Errorf("%w: footer says %d payload bytes, file holds %d", ErrCorrupt, wantLen, len(body))
	}
	if got := crc32.Checksum(body, cpssCRCTable); got != wantCRC {
		return State{}, fmt.Errorf("%w: checksum %#x, footer says %#x", ErrCorrupt, got, wantCRC)
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != cpssVersion {
		return State{}, fmt.Errorf("%w: container version %d, this build reads %d", ErrVersion, v, cpssVersion)
	}

	nStreams := binary.LittleEndian.Uint32(data[6:])
	off := 10
	// Each declared stream costs at least its fixed header.
	if uint64(nStreams)*(8+8+4+4) > uint64(len(body)-off) {
		return State{}, fmt.Errorf("%w: stream count %d exceeds the %d remaining bytes", ErrCorrupt, nStreams, len(body)-off)
	}
	st := State{Streams: make([]StreamState, 0, nStreams)}
	for i := uint32(0); i < nStreams; i++ {
		if len(body)-off < 8+8+4 {
			return State{}, fmt.Errorf("%w: truncated payload at stream %d header", ErrCorrupt, i)
		}
		s := StreamState{
			Applied: binary.LittleEndian.Uint64(body[off:]),
			Acked:   binary.LittleEndian.Uint64(body[off+8:]),
		}
		nResp := binary.LittleEndian.Uint32(body[off+16:])
		off += 20
		if s.Acked > s.Applied {
			return State{}, fmt.Errorf("%w: stream %d acked %d beyond applied %d", ErrCorrupt, i, s.Acked, s.Applied)
		}
		if uint64(nResp) != s.Applied-s.Acked {
			return State{}, fmt.Errorf("%w: stream %d holds %d responses for cursor span [%d,%d)",
				ErrCorrupt, i, nResp, s.Acked, s.Applied)
		}
		if uint64(nResp)*4 > uint64(len(body)-off) {
			return State{}, fmt.Errorf("%w: stream %d response count %d exceeds the %d remaining bytes",
				ErrCorrupt, i, nResp, len(body)-off)
		}
		s.Resp = make([]Response, 0, nResp)
		for j := uint32(0); j < nResp; j++ {
			r := Response{
				Pred: coherence.Tuple{
					Sender: coherence.NodeID(int16(binary.LittleEndian.Uint16(body[off:]))),
					Type:   coherence.MsgType(body[off+2]),
				},
			}
			switch body[off+3] {
			case 1:
				r.OK = true
			case 0:
				if r.Pred != (coherence.Tuple{}) {
					return State{}, fmt.Errorf("%w: stream %d response %d: non-empty tuple without a prediction", ErrCorrupt, i, j)
				}
			default:
				return State{}, fmt.Errorf("%w: stream %d response %d: ok byte %d", ErrCorrupt, i, j, body[off+3])
			}
			off += 4
			if r.OK && (!r.Pred.Type.Valid() || r.Pred.Sender < 0 || r.Pred.Sender >= 1<<12) {
				return State{}, fmt.Errorf("%w: stream %d response %d: invalid prediction %v", ErrCorrupt, i, j, r.Pred)
			}
			s.Resp = append(s.Resp, r)
		}
		if len(body)-off < 4 {
			return State{}, fmt.Errorf("%w: truncated payload at stream %d snapshot length", ErrCorrupt, i)
		}
		snapLen := binary.LittleEndian.Uint32(body[off:])
		off += 4
		if uint64(snapLen) > uint64(len(body)-off) {
			return State{}, fmt.Errorf("%w: stream %d snapshot of %d bytes exceeds the %d remaining",
				ErrCorrupt, i, snapLen, len(body)-off)
		}
		s.Snap = append([]byte(nil), body[off:off+int(snapLen)]...)
		off += int(snapLen)
		st.Streams = append(st.Streams, s)
	}
	if off != len(body) {
		return State{}, fmt.Errorf("%w: %d trailing payload bytes after %d streams", ErrCorrupt, len(body)-off, nStreams)
	}
	return st, nil
}
