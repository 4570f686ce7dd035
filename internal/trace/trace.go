// Package trace captures the coherence message streams that predictors
// are trained and evaluated on, mirroring the paper's methodology
// (Section 5): the machine is simulated once, the per-node incoming
// message traces are recorded, and predictors are then evaluated over
// the traces offline.
//
// A record notes one message reception: at which node, on which side
// (cache controller or directory controller), from which sender, of
// which type, for which block, and during which application-level
// iteration (Table 8 and the adaptation analysis are iteration-based).
package trace

import (
	"fmt"
	"sync"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
)

// Side distinguishes the two predictor locations at a node.
type Side uint8

const (
	// CacheSide marks messages received by a cache controller (sent by
	// a directory).
	CacheSide Side = iota
	// DirectorySide marks messages received by a directory controller
	// (sent by a cache).
	DirectorySide
	numSides
)

// String returns "cache" or "directory".
func (s Side) String() string {
	switch s {
	case CacheSide:
		return "cache"
	case DirectorySide:
		return "directory"
	}
	return fmt.Sprintf("Side(%d)", uint8(s))
}

// Record is one observed message reception.
type Record struct {
	Node   coherence.NodeID
	Side   Side
	Sender coherence.NodeID
	Type   coherence.MsgType
	Addr   coherence.Addr
	// Iter is the application-level iteration (phases divided by the
	// workload's PhasesPerIteration) during which the message arrived.
	Iter int32
}

// Tuple returns the <sender, type> pair the predictor at the receiving
// node consumes.
func (r Record) Tuple() coherence.Tuple {
	return coherence.Tuple{Sender: r.Sender, Type: r.Type}
}

// Trace is a complete captured run. Once captured (or decoded) a
// trace is immutable; the evaluators only read it. Because the
// partition memo embeds a sync.Once, traces are passed by pointer,
// never copied.
type Trace struct {
	App        string
	Nodes      int
	Iterations int // application-level iterations
	Records    []Record

	// Slot-sharded view, built lazily by Partition and shared by every
	// evaluation of this trace (see partition.go).
	partitionOnce sync.Once
	partition     *Partition
}

// NodeHashes returns one FNV-1a hash per node over that node's records
// in capture order. Two runs of the same configuration and seed must
// produce identical hash vectors; the determinism regression tests
// compare them, and a mismatch pinpoints which node's stream diverged.
func (t *Trace) NodeHashes() []uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := make([]uint64, t.Nodes)
	for i := range h {
		h[i] = offset64
	}
	mix := func(acc uint64, v uint64) uint64 {
		for i := 0; i < 8; i++ {
			acc = (acc ^ (v & 0xff)) * prime64
			v >>= 8
		}
		return acc
	}
	for _, r := range t.Records {
		n := int(r.Node)
		if n < 0 || n >= t.Nodes {
			continue
		}
		h[n] = mix(h[n], uint64(r.Side))
		h[n] = mix(h[n], uint64(r.Sender))
		h[n] = mix(h[n], uint64(r.Type))
		h[n] = mix(h[n], uint64(r.Addr))
		h[n] = mix(h[n], uint64(r.Iter))
	}
	return h
}

// CountBySide returns how many records were captured on each side.
func (t *Trace) CountBySide() (cache, dir uint64) {
	for _, r := range t.Records {
		if r.Side == CacheSide {
			cache++
		} else {
			dir++
		}
	}
	return cache, dir
}

// capture is the machine.Observer half shared by Recorder and
// StreamRecorder: it counts the machine's phases, stamps each message
// reception with its application iteration relative to the end of the
// startup phase, and hands the Record to emit. Startup-phase messages
// are dropped.
type capture struct {
	phasesPerIter     int
	currentPhase      int
	startupIterations int
	emit              func(Record)
}

func newCapture(phasesPerIter, startupIterations int, emit func(Record)) capture {
	if phasesPerIter < 1 {
		phasesPerIter = 1
	}
	return capture{phasesPerIter: phasesPerIter, startupIterations: startupIterations, emit: emit}
}

func (c *capture) observe(node coherence.NodeID, side Side, msg coherence.Msg) {
	it := c.currentPhase/c.phasesPerIter - c.startupIterations
	if it < 0 {
		return // startup phase: excluded
	}
	c.emit(Record{
		Node:   node,
		Side:   side,
		Sender: msg.Src,
		Type:   msg.Type,
		Addr:   msg.Addr,
		Iter:   int32(it),
	})
}

// ObserveCache implements machine.Observer.
func (c *capture) ObserveCache(node coherence.NodeID, msg coherence.Msg) {
	c.observe(node, CacheSide, msg)
}

// ObserveDirectory implements machine.Observer.
func (c *capture) ObserveDirectory(node coherence.NodeID, msg coherence.Msg) {
	c.observe(node, DirectorySide, msg)
}

// EndIteration implements machine.Observer (the machine's iterations
// are phases).
func (c *capture) EndIteration(int) { c.currentPhase++ }

// Recorder captures a machine run into a Trace. It implements
// machine.Observer structurally (the machine package is not imported,
// avoiding a dependency cycle with tests).
//
// Records land in fixed-size chunks of recorderChunk rather than one
// growing slice, so no record is copied while the run lasts; Trace
// copies them once into an exactly sized Records and drops the chunks.
type Recorder struct {
	capture
	trace  *Trace
	chunks [][]Record
	n      int // records held in chunks
}

const recorderChunk = 1 << 14

// NewRecorder creates a recorder for a run of the given app name over
// nodes, whose workload groups phasesPerIter phases into one
// application iteration. startupIterations application-level
// iterations are excluded from the trace, mirroring the paper's
// methodology ("Our traces do not contain coherence messages generated
// in this start-up phase", Section 5).
func NewRecorder(app string, nodes, phasesPerIter, startupIterations int) *Recorder {
	r := &Recorder{trace: &Trace{App: app, Nodes: nodes}}
	r.capture = newCapture(phasesPerIter, startupIterations, r.append)
	return r
}

// Trace returns the captured trace (valid once the run completes).
func (r *Recorder) Trace() *Trace {
	if r.n > 0 {
		recs := make([]Record, len(r.trace.Records)+r.n)
		k := copy(recs, r.trace.Records)
		for _, c := range r.chunks {
			k += copy(recs[k:], c)
		}
		r.trace.Records, r.chunks, r.n = recs, nil, 0
	}
	return r.trace
}

func (r *Recorder) append(rec Record) {
	if r.n%recorderChunk == 0 {
		r.chunks = append(r.chunks, make([]Record, 0, recorderChunk))
	}
	c := len(r.chunks) - 1
	r.chunks[c] = append(r.chunks[c], rec)
	r.n++
	if it := int(rec.Iter); it+1 > r.trace.Iterations {
		r.trace.Iterations = it + 1
	}
}
