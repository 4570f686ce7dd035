package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/core"
)

// sampleState builds a plausible service state: predictors driven by
// obs observations (plus 50 more per stream id), cursors, and response
// tails consistent with them.
func sampleState(t testing.TB, streams, obs int) State {
	t.Helper()
	r := rand.New(rand.NewSource(41))
	st := State{Streams: make([]StreamState, streams)}
	for i := range st.Streams {
		p, err := core.New(core.Config{Depth: 2, FilterMax: 1})
		if err != nil {
			t.Fatal(err)
		}
		var resp []Response
		for j := 0; j < obs+50*i; j++ {
			addr := coherence.Addr(r.Intn(8) * 64)
			p.Observe(addr, coherence.Tuple{
				Sender: coherence.NodeID(r.Intn(16)),
				Type:   coherence.MsgType(1 + r.Intn(int(coherence.NumMsgTypes)-1)),
			})
			pred, ok := p.Predict(addr)
			resp = append(resp, Response{Pred: pred, OK: ok})
		}
		applied := uint64(len(resp))
		acked := applied - uint64(3+i)
		st.Streams[i] = StreamState{
			Applied: applied,
			Acked:   acked,
			Resp:    append([]Response(nil), resp[acked:]...),
			Snap:    p.Snapshot(),
		}
	}
	return st
}

func TestCPSSRoundTrip(t *testing.T) {
	st := sampleState(t, 3, 200)
	enc := EncodeCPSS(st)
	got, err := DecodeCPSS(enc)
	if err != nil {
		t.Fatalf("DecodeCPSS: %v", err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatal("round trip changed the state")
	}
	// Content addressing: the same logical state encodes identically.
	if Digest(enc) != Digest(EncodeCPSS(st)) {
		t.Fatal("re-encoding the same state yields a different digest")
	}

	// Empty state round-trips too.
	empty := State{Streams: []StreamState{}}
	got, err = DecodeCPSS(EncodeCPSS(empty))
	if err != nil || len(got.Streams) != 0 {
		t.Fatalf("empty round trip = %+v, %v", got, err)
	}
}

// refitFooter recomputes the footer after a deliberate payload edit,
// isolating the specific validation under test from the checksum.
func refitFooter(enc []byte) []byte {
	body := enc[:len(enc)-cpssFooterSize]
	out := append([]byte(nil), body...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(body)))
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, cpssCRCTable))
}

// TestCPSSDistinctErrors pins the loud-and-distinct contract: the
// three failure classes are told apart by errors.Is.
func TestCPSSDistinctErrors(t *testing.T) {
	enc := EncodeCPSS(sampleState(t, 2, 200))

	// Version mismatch: a well-formed container from a future build.
	future := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint16(future[4:], cpssVersion+1)
	future = refitFooter(future)
	if _, err := DecodeCPSS(future); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: %v, want ErrVersion", err)
	}

	// Truncation: payload bytes missing, footer intact.
	torn := append([]byte(nil), enc[:len(enc)-cpssFooterSize-5]...)
	torn = append(torn, enc[len(enc)-cpssFooterSize:]...)
	if _, err := DecodeCPSS(torn); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated payload: %v, want ErrTruncated", err)
	}
	if _, err := DecodeCPSS(enc[:8]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("stub file: %v, want ErrTruncated", err)
	}

	// Corruption: a flipped payload bit.
	flip := append([]byte(nil), enc...)
	flip[10] ^= 0x04
	if _, err := DecodeCPSS(flip); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip: %v, want ErrCorrupt", err)
	}
	// Corruption: wrong magic.
	mag := append([]byte(nil), enc...)
	mag[0] = 'X'
	if _, err := DecodeCPSS(mag); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: %v, want ErrCorrupt", err)
	}
	// The classes never overlap.
	for name, data := range map[string][]byte{"future": future, "torn": torn, "flip": flip} {
		_, err := DecodeCPSS(data)
		n := 0
		for _, cls := range []error{ErrTruncated, ErrCorrupt, ErrVersion} {
			if errors.Is(err, cls) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%s: error %v matches %d classes, want exactly 1", name, err, n)
		}
	}
}

// TestCPSSNeverPanics chops and flips everywhere: every damaged input
// must return an error (or, for flips that land in stored values,
// decode) without panicking or over-allocating.
func TestCPSSNeverPanics(t *testing.T) {
	enc := EncodeCPSS(sampleState(t, 2, 200))
	damage := damaged(enc, 0x10)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeCPSS(damage[cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded", cut, len(enc))
		}
	}
	rejected := 0
	for _, mut := range damage[len(enc):] {
		if _, err := DecodeCPSS(mut); err != nil {
			rejected++
		}
	}
	// The checksum covers every payload byte, so only flips inside the
	// footer's own length field can possibly slip through — and those
	// fail the length check. Everything must be rejected.
	if rejected != len(enc) {
		t.Fatalf("%d of %d bit flips rejected, want all", rejected, len(enc))
	}
}

// damaged returns every truncation of enc (index cut holds enc[:cut])
// followed by enc with each byte in turn XORed with mask: the damage
// TestCPSSNeverPanics walks and FuzzDecodeCPSS starts from.
func damaged(enc []byte, mask byte) [][]byte {
	out := make([][]byte, 0, 2*len(enc))
	for cut := 0; cut < len(enc); cut++ {
		out = append(out, enc[:cut])
	}
	for i := range enc {
		mut := bytes.Clone(enc)
		mut[i] ^= mask
		out = append(out, mut)
	}
	return out
}

// FuzzDecodeCPSS: whatever bytes DecodeCPSS accepts must re-encode to
// exactly those bytes, so a container has one encoding and a decoded
// state is never a lossy reading. Each input is tried as given and with
// its footer refitted, so that mutations reach the structural checks
// behind the checksum. The seeds are the truncations and byte flips of
// TestCPSSNeverPanics, on a small one-stream state.
func FuzzDecodeCPSS(f *testing.F) {
	for _, d := range damaged(EncodeCPSS(sampleState(f, 1, 16)), 0x10) {
		f.Add(d)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) >= cpssFooterSize {
			inputs = append(inputs, refitFooter(data))
		}
		for _, in := range inputs {
			st, err := DecodeCPSS(in)
			if err != nil {
				continue
			}
			if out := EncodeCPSS(st); !bytes.Equal(out, in) {
				t.Fatalf("DecodeCPSS accepted %d bytes that re-encode as %d different bytes", len(in), len(out))
			}
		}
	})
}
