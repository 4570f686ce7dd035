package serve

import (
	"encoding/binary"
	"fmt"
	"strings"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/reliable"
	"github.com/cosmos-coherence/cosmos/internal/sim"
)

// Stats counts the server's work and its shedding decisions. The
// per-stream slices are indexed by stream id.
type Stats struct {
	// Applied counts observations applied across all streams; PredHits
	// of those, how many arrived as their stream's predictor predicted.
	Applied  uint64
	PredHits uint64
	// Queries counts answered read-only lookups.
	Queries uint64
	// Shed counts queue-overflow rejections per stream; ShedQueries of
	// the total were queries (shed before any observation).
	Shed        []uint64
	ShedQueries uint64
	// TimedOut counts entries that waited past DeadlineNs per stream.
	TimedOut []uint64
	// Dropped counts observations discarded because they arrived after
	// a shed or timeout broke their stream's contiguity, per stream —
	// rejected at enqueue while the stream lags, or dropped at the
	// queue head if they were already queued when the break landed.
	Dropped []uint64
	// MaxQueueDepth is the high-water mark of the ingest queue; it can
	// never exceed Config.MaxQueue.
	MaxQueueDepth int
	// Checkpoints counts snapshots written; Resyncs, client resyncs.
	Checkpoints uint64
	Resyncs     uint64
}

// entry is one queued unit of work.
type entry struct {
	stream int
	query  bool
	addr   coherence.Addr
	tup    coherence.Tuple // observations only
	at     sim.Time        // arrival time, for deadlines
	idx    uint64          // arrival counter, for deterministic shed ties
}

// stream is one client's server-side state.
type stream struct {
	pred    *core.Predictor
	applied uint64
	acked   uint64
	resp    []Response // responses for sequences [acked, applied)
	// lagging marks a stream whose observation contiguity was broken by
	// a shed or timeout; breakIdx is the arrival index of the first lost
	// observation. Observations that arrived before the hole are still
	// contiguous and apply normally; anything that arrived after it is
	// dropped (never applied over the hole) until the client resyncs.
	lagging  bool
	breakIdx uint64
	priority int
}

// breakContiguity marks a stream lagging at the lost observation's
// arrival index, keeping the earliest hole across repeated breaks.
func breakContiguity(st *stream, idx uint64) {
	if !st.lagging || idx < st.breakIdx {
		st.breakIdx = idx
	}
	st.lagging = true
}

// Server is the crash-recoverable prediction service. Create one with
// New, which also performs recovery: if the store holds state from a
// previous life, the server restores it and replays the WAL before
// accepting traffic, so a freshly constructed server is always at the
// durable boundary of its predecessor.
type Server struct {
	cfg     Config
	eng     *sim.Engine
	tr      *reliable.Transport
	store   *Store
	wal     *WAL
	digest  [32]byte
	streams []*stream
	// enc is the checkpoint encoding buffer, reused by every checkpoint.
	enc []byte

	queue     []entry
	busy      bool
	arrivals  uint64
	processed uint64
	sinceSync int
	sinceSnap int

	watchdogArmed bool
	lastProgress  uint64

	failure   error
	onFailure func(error)
	stats     Stats

	// processKind and watchdogKind route the worker and watchdog
	// steps, registered once on the server's engine.
	processKind  sim.EventKind
	watchdogKind sim.EventKind
}

// walSyncEvery is how many appended records ride between fsyncs: the
// window a crash can tear. Recovery resynchronizes whatever it loses,
// so this trades a bounded resend span for not fsyncing every append.
const walSyncEvery = 8

// New builds a server over the transport, recovering any state the
// store holds. The transport's binding for cfg.Node is taken over.
func New(eng *sim.Engine, tr *reliable.Transport, store *Store, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, eng: eng, tr: tr, store: store}
	s.processKind = eng.RegisterHandler(func(*sim.EventRec) { s.process() })
	s.watchdogKind = eng.RegisterHandler(func(*sim.EventRec) { s.watchdog() })
	s.stats.Shed = make([]uint64, cfg.Streams)
	s.stats.TimedOut = make([]uint64, cfg.Streams)
	s.stats.Dropped = make([]uint64, cfg.Streams)

	rec, err := store.Recover()
	if err != nil {
		return nil, err
	}
	if !rec.Fresh && len(rec.Base.Streams) != cfg.Streams {
		return nil, fmt.Errorf("serve: store holds %d streams, config says %d",
			len(rec.Base.Streams), cfg.Streams)
	}
	s.streams = make([]*stream, cfg.Streams)
	for i := range s.streams {
		p, err := core.New(cfg.Predictor)
		if err != nil {
			return nil, err
		}
		st := &stream{pred: p}
		if cfg.Priority != nil {
			st.priority = cfg.Priority[i]
		}
		if !rec.Fresh {
			base := rec.Base.Streams[i]
			if err := p.Restore(base.Snap); err != nil {
				return nil, fmt.Errorf("serve: stream %d: %w", i, err)
			}
			if p.Config() != cfg.Predictor {
				return nil, fmt.Errorf("serve: stream %d snapshot built with %+v, config says %+v",
					i, p.Config(), cfg.Predictor)
			}
			st.applied, st.acked = base.Applied, base.Acked
			st.resp = append(st.resp, base.Resp...)
		}
		s.streams[i] = st
	}
	// Replay the WAL through the predictors, regenerating the exact
	// responses the crashed server produced for these observations.
	for _, r := range rec.Records {
		s.applyObservation(s.streams[r.Stream], r.Addr, r.Tup)
	}
	// Recovery is itself a checkpoint: the replayed state becomes the
	// new base and the torn generation is retired.
	if err := s.checkpoint(); err != nil {
		return nil, err
	}
	tr.Bind(cfg.Node, s.onMsg)
	return s, nil
}

// applyObservation runs one observation through a stream's predictor
// and logs the response. Shared verbatim by live serving and WAL
// replay — which is what makes replayed responses byte-identical.
func (s *Server) applyObservation(st *stream, addr coherence.Addr, tup coherence.Tuple) Response {
	_, predicted, correct := st.pred.Observe(addr, tup)
	if predicted && correct {
		s.stats.PredHits++
	}
	st.applied++
	next, ok := st.pred.Predict(addr)
	r := Response{Pred: next, OK: ok}
	st.resp = append(st.resp, r)
	s.stats.Applied++
	return r
}

// Err returns the server's terminal failure, if any.
func (s *Server) Err() error { return s.failure }

// OnFailure registers a callback invoked once on terminal failure.
func (s *Server) OnFailure(f func(error)) { s.onFailure = f }

// Stats returns a deep copy of the counters.
func (s *Server) Stats() Stats {
	st := s.stats
	st.Shed = append([]uint64(nil), s.stats.Shed...)
	st.TimedOut = append([]uint64(nil), s.stats.TimedOut...)
	st.Dropped = append([]uint64(nil), s.stats.Dropped...)
	return st
}

// Cursor returns a stream's durable-order cursor: how many of its
// observations have been applied.
func (s *Server) Cursor(streamID int) uint64 { return s.streams[streamID].applied }

// Lagging reports whether the stream needs a resync before its
// observations are accepted again.
func (s *Server) Lagging(streamID int) bool { return s.streams[streamID].lagging }

// StateDigest returns the stream's predictor state digest — the
// byte-equivalence oracle hook.
func (s *Server) StateDigest(streamID int) [32]byte {
	return s.streams[streamID].pred.StateDigest()
}

// PredictorSnapshot returns the stream's canonical predictor bytes.
func (s *Server) PredictorSnapshot(streamID int) []byte {
	return s.streams[streamID].pred.Snapshot()
}

// encodeCheckpoint encodes the live state as a CPSS container in one
// pass into the server's reused buffer: each stream's cursors and
// response tail, then its predictor snapshot written in place. The
// bytes are EncodeCPSS's for the same state; they are valid until the
// next call.
func (s *Server) encodeCheckpoint() []byte {
	buf := appendCPSSHeader(s.enc[:0], len(s.streams))
	for _, str := range s.streams {
		buf = appendStreamHead(buf, str.applied, str.acked, str.resp)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(str.pred.SnapshotSize()))
		buf = str.pred.AppendSnapshot(buf)
	}
	s.enc = appendFooter(buf)
	return s.enc
}

// checkpoint writes the current state as a new store generation.
func (s *Server) checkpoint() error {
	d, w, err := s.store.Checkpoint(s.encodeCheckpoint())
	if err != nil {
		return err
	}
	if s.wal != nil {
		s.wal.Close()
	}
	s.digest, s.wal = d, w
	s.sinceSnap, s.sinceSync = 0, 0
	s.stats.Checkpoints++
	return nil
}

// Close checkpoints once more and releases the WAL. The server must
// not be used afterwards.
func (s *Server) Close() error {
	if s.failure != nil {
		s.wal.Close()
		return s.failure
	}
	if err := s.checkpoint(); err != nil {
		return err
	}
	return s.wal.Close()
}

// Abandon releases file handles without checkpointing — the crash
// path: whatever was not yet durable is meant to be lost.
func (s *Server) Abandon() {
	if s.wal != nil {
		s.wal.Close()
	}
}

// WAL exposes the live log so the crash harness can tear its unsynced
// tail.
func (s *Server) WAL() *WAL { return s.wal }

// Resync re-admits a stream after a crash or a shed. The client
// reports how many responses it has received; the server prunes its
// retained tail to that point, clears the lagging flag, and re-sends
// every retained response the client is missing. It returns the
// stream's cursor: the client must resend observations from there.
func (s *Server) Resync(streamID int, received uint64) (uint64, error) {
	st := s.streams[streamID]
	if received < st.acked {
		return 0, fmt.Errorf("serve: stream %d resync at %d behind acknowledged %d",
			streamID, received, st.acked)
	}
	// The client may have received responses the crash un-applied
	// (sent, then the WAL tail tore); it rewinds to the durable cursor
	// and will observe the regenerated tail matching what it saw.
	eff := received
	if eff > st.applied {
		eff = st.applied
	}
	st.resp = st.resp[eff-st.acked:]
	st.acked = eff
	st.lagging = false
	s.stats.Resyncs++
	for i, r := range st.resp {
		seq := st.acked + uint64(i)
		s.tr.Send(responseMsg(s.cfg.Node, coherence.NodeID(streamID), coherence.Addr(seq), r))
	}
	return st.applied, nil
}

// onMsg dispatches one arriving frame.
func (s *Server) onMsg(m coherence.Msg) {
	if s.failure != nil {
		return
	}
	id := int(m.Src)
	if id < 0 || id >= len(s.streams) {
		s.fail(fmt.Errorf("serve: frame from %v, which is not a client stream", m.Src))
		return
	}
	switch m.Grant {
	case grantAck:
		s.ack(id, uint64(m.Addr))
	case grantObservation:
		s.enqueue(entry{stream: id, addr: m.Addr,
			tup: coherence.Tuple{Sender: m.Requestor, Type: m.Type}})
	case grantQuery:
		s.enqueue(entry{stream: id, query: true, addr: m.Addr})
	default:
		s.fail(fmt.Errorf("serve: frame from %v with unknown discriminator %v", m.Src, m.Grant))
	}
}

// ack advances a stream's acknowledged cursor and prunes the retained
// response tail. An ack is a cumulative high-water mark ("I hold every
// response below n"), and after a crash it can legitimately run ahead
// of the recovered cursor: a client that verified responses the torn
// WAL lost knows more than the server's durable state does. The server
// prunes what it can and catches back up as the client re-sends the
// lost observations — so the ack clamps to applied rather than failing.
func (s *Server) ack(id int, n uint64) {
	st := s.streams[id]
	if n > st.applied {
		n = st.applied
	}
	if n <= st.acked {
		return // stale ack, already pruned past it
	}
	st.resp = st.resp[n-st.acked:]
	st.acked = n
}

// weight ranks queue entries for shedding: observations above queries,
// then stream priority. Lowest weight sheds first. Validate bounds
// priorities to [0, maxPriority), so the offset keeps every
// observation above every query.
func (s *Server) weight(e entry) int {
	w := s.streams[e.stream].priority
	if !e.query {
		w += maxPriority
	}
	return w
}

// enqueue admits work to the bounded queue, shedding deterministically
// on overflow: the lowest-weight entry goes, and among equal weights
// the newest arrival (largest idx) — so under sustained overload the
// oldest high-priority work still drains in order.
func (s *Server) enqueue(e entry) {
	s.arrivals++
	e.at, e.idx = s.eng.Now(), s.arrivals
	st := s.streams[e.stream]
	if !e.query && st.lagging {
		s.stats.Dropped[e.stream]++
		return
	}
	if len(s.queue) >= s.cfg.MaxQueue {
		// Find the shed victim among the queued entries.
		victim := -1
		for i, q := range s.queue {
			if victim < 0 || s.weight(q) < s.weight(s.queue[victim]) ||
				(s.weight(q) == s.weight(s.queue[victim]) && q.idx > s.queue[victim].idx) {
				victim = i
			}
		}
		if s.weight(e) <= s.weight(s.queue[victim]) {
			s.shed(e) // the newcomer is the cheapest to lose
			return
		}
		s.shed(s.queue[victim])
		s.queue = append(s.queue[:victim], s.queue[victim+1:]...)
	}
	s.queue = append(s.queue, e)
	if len(s.queue) > s.stats.MaxQueueDepth {
		s.stats.MaxQueueDepth = len(s.queue)
	}
	s.armWatchdog()
	s.kick()
}

// shed records the loss of an entry. A shed observation breaks its
// stream's contiguity at its arrival index, so the stream goes lagging
// until resync; observations queued before the victim still apply.
func (s *Server) shed(e entry) {
	s.stats.Shed[e.stream]++
	if e.query {
		s.stats.ShedQueries++
		return
	}
	breakContiguity(s.streams[e.stream], e.idx)
}

// kick starts the worker if there is work and it is idle.
func (s *Server) kick() {
	if s.busy || s.failure != nil || len(s.queue) == 0 {
		return
	}
	s.busy = true
	s.eng.PostAfter(s.cfg.ProcessNs, sim.EventRec{Kind: s.processKind})
}

// process serves the queue head.
func (s *Server) process() {
	s.busy = false
	if s.failure != nil || len(s.queue) == 0 {
		return
	}
	e := s.queue[0]
	s.queue = s.queue[1:]
	if s.cfg.DeadlineNs > 0 && s.eng.Now()-e.at > s.cfg.DeadlineNs {
		s.stats.TimedOut[e.stream]++
		if e.query {
			// Answer with a distinct timeout frame rather than silence,
			// so the client can tell a timed-out query from a lost one.
			s.tr.Send(queryTimeoutMsg(s.cfg.Node, coherence.NodeID(e.stream), e.addr))
		} else {
			breakContiguity(s.streams[e.stream], e.idx)
		}
	} else if e.query {
		st := s.streams[e.stream]
		pred, ok := st.pred.Predict(e.addr)
		s.stats.Queries++
		s.tr.Send(queryRespMsg(s.cfg.Node, coherence.NodeID(e.stream), e.addr, Response{Pred: pred, OK: ok}))
	} else if st := s.streams[e.stream]; st.lagging && e.idx > st.breakIdx {
		// Queued behind the hole a shed or timeout left: the entry itself
		// may still be fresh, but applying observation n+1 after
		// observation n was lost would advance the cursor over the hole.
		// (Entries that arrived before the hole apply normally — the
		// prefix up to the break stays contiguous.)
		s.stats.Dropped[e.stream]++
	} else {
		st := s.streams[e.stream]
		// Write-ahead, then apply, then respond — all within this event,
		// so the durable log never lags the in-memory state by more than
		// the unsynced tail.
		if err := s.wal.Append(uint16(e.stream), e.addr, e.tup); err != nil {
			s.fail(err)
			return
		}
		s.sinceSync++
		if s.sinceSync >= walSyncEvery {
			if err := s.wal.Sync(); err != nil {
				s.fail(err)
				return
			}
			s.sinceSync = 0
		}
		seq := st.applied
		r := s.applyObservation(st, e.addr, e.tup)
		s.tr.Send(responseMsg(s.cfg.Node, coherence.NodeID(e.stream), coherence.Addr(seq), r))
		s.sinceSnap++
		if s.cfg.SnapshotEvery > 0 && s.sinceSnap >= s.cfg.SnapshotEvery {
			if err := s.checkpoint(); err != nil {
				s.fail(err)
				return
			}
		}
	}
	s.processed++
	s.kick()
}

// armWatchdog schedules a stall check if one is not already pending.
// The watchdog disarms itself when the queue drains, so it never keeps
// the engine alive after the work is done.
func (s *Server) armWatchdog() {
	if s.cfg.WatchdogNs == 0 || s.watchdogArmed {
		return
	}
	s.watchdogArmed = true
	s.lastProgress = s.processed
	s.eng.PostAfter(s.cfg.WatchdogNs, sim.EventRec{Kind: s.watchdogKind})
}

func (s *Server) watchdog() {
	s.watchdogArmed = false
	if s.failure != nil || len(s.queue) == 0 {
		return
	}
	if s.processed == s.lastProgress {
		s.fail(fmt.Errorf("serve: no progress for %v with %d entries queued\n%s",
			s.cfg.WatchdogNs, len(s.queue), s.diagnose()))
		return
	}
	s.armWatchdog()
}

// diagnose renders the server's state for a failure report, the
// internal/machine idiom: enough to see at a glance which stream or
// queue entry is stuck.
func (s *Server) diagnose() string {
	var b strings.Builder
	fmt.Fprintf(&b, "serve diagnostic at t=%v: queue=%d/%d processed=%d arrivals=%d checkpoints=%d\n",
		s.eng.Now(), len(s.queue), s.cfg.MaxQueue, s.processed, s.arrivals, s.stats.Checkpoints)
	for i, st := range s.streams {
		fmt.Fprintf(&b, "  stream %d: applied=%d acked=%d retained=%d lagging=%v shed=%d timedout=%d dropped=%d prio=%d\n",
			i, st.applied, st.acked, len(st.resp), st.lagging,
			s.stats.Shed[i], s.stats.TimedOut[i], s.stats.Dropped[i], st.priority)
	}
	if len(s.queue) > 0 {
		h := s.queue[0]
		fmt.Fprintf(&b, "  head: stream=%d query=%v addr=%#x queued at t=%v (%v ago)",
			h.stream, h.query, uint64(h.addr), h.at, s.eng.Now()-h.at)
	}
	return b.String()
}

// fail records the terminal failure exactly once.
func (s *Server) fail(err error) {
	if s.failure != nil {
		return
	}
	s.failure = err
	if s.onFailure != nil {
		s.onFailure(err)
	}
}
