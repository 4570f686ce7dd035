// Package machine assembles the simulated multiprocessor: N
// single-processor nodes, each with a Stache cache controller and a
// directory controller, connected by the network, executing a workload
// of barrier-separated iterations (Section 5's target system).
//
// Barriers are implemented outside the coherence protocol, matching
// Section 5.1: the paper's barriers use point-to-point messages whose
// traffic is excluded from the prediction traces, so the machine simply
// releases all processors once the last one arrives (plus a fixed
// latency), without generating coherence messages at all.
package machine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/invariant"
	"github.com/cosmos-coherence/cosmos/internal/network"
	"github.com/cosmos-coherence/cosmos/internal/reliable"
	"github.com/cosmos-coherence/cosmos/internal/sim"
	"github.com/cosmos-coherence/cosmos/internal/stache"
	"github.com/cosmos-coherence/cosmos/internal/workload"
)

// Observer watches the coherence message streams and iteration
// boundaries of a run. Implementations include trace recorders and
// online predictors.
type Observer interface {
	// ObserveCache fires when node's cache controller receives msg.
	ObserveCache(node coherence.NodeID, msg coherence.Msg)
	// ObserveDirectory fires when node's directory controller receives msg.
	ObserveDirectory(node coherence.NodeID, msg coherence.Msg)
	// EndIteration fires after all processors complete iteration iter
	// (0-based) and before any processor starts the next one.
	EndIteration(iter int)
}

// proc tracks one simulated processor's progress through the workload.
type proc struct {
	id   coherence.NodeID
	seq  []workload.Access
	next int
}

// Machine is the full simulated system.
type Machine struct {
	cfg       sim.Config
	opts      stache.Options
	geom      coherence.Geometry
	engine    *sim.Engine
	net       *network.Network
	transport *reliable.Transport // nil on the fault-free path
	caches    []*stache.Cache
	dirs      []*stache.Directory
	app       workload.App
	observers []Observer
	monitor   *invariant.Monitor // nil unless cfg.Invariants

	procs    []proc
	iter     int
	arrived  int
	accesses uint64

	// waitingSince records, per processor, the issue time of its
	// outstanding access (sim.MaxTime when none is outstanding); the
	// watchdog diagnostic uses it to name the oldest unpaired request.
	waitingSince []sim.Time

	// progress counts access completions and barrier crossings; the
	// watchdog declares a stall when it stops advancing.
	progress uint64
	// lastProgress is the simulated time of the most recent progress.
	lastProgress sim.Time
	// failure is the first hard error (transport link death, watchdog
	// stall); it halts the run.
	failure error

	// barrierLatency is the simulated cost of the barrier itself.
	barrierLatency sim.Time
	// thinkTime separates consecutive accesses by one processor.
	thinkTime sim.Time

	// kindStep and kindBarrier are the engine event kinds for the
	// processor issue loop and the barrier release; both carry their
	// whole payload (the processor id) in the EventRec, so the issue
	// loop schedules without allocating.
	kindStep    sim.EventKind
	kindBarrier sim.EventKind
	// done holds one access-completion callback per processor, built
	// once at construction; the per-access path hands the cache a
	// preallocated closure instead of minting one per reference.
	done []func()
}

// New builds a machine running app under cfg and opts. The app must
// have been built for cfg.Nodes processors.
func New(cfg sim.Config, opts stache.Options, app workload.App) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if app.Procs() != cfg.Nodes {
		return nil, fmt.Errorf("machine: app %q built for %d procs, machine has %d nodes",
			app.Name(), app.Procs(), cfg.Nodes)
	}
	if opts.DirFormat == stache.DirFullMap && cfg.Nodes > 64 {
		return nil, fmt.Errorf("machine: %d nodes exceeds the 64-node full-map limit (use a limited-pointer or coarse-vector DirFormat)", cfg.Nodes)
	}
	if cfg.Nodes > stache.MaxNodes {
		return nil, fmt.Errorf("machine: %d nodes exceeds the %d-node trace-codec limit", cfg.Nodes, stache.MaxNodes)
	}
	if opts.Speculation && opts.DirFormat != stache.DirFullMap {
		// Push reconciliation removes individual sharer bits, which
		// inexact sharer sets cannot represent.
		return nil, fmt.Errorf("machine: Speculation requires the full-map directory format")
	}
	if opts.Forwarding && opts.CacheBlocks > 0 {
		// A forwarding owner must still hold the data when the request
		// arrives; replacement could have written it back already.
		// Origin solves this with extra transient states; this model
		// scopes forwarding to no-replacement (Stache-style) caches.
		return nil, fmt.Errorf("machine: Forwarding requires unbounded caches (CacheBlocks = 0)")
	}
	if opts.Forwarding && cfg.Faults.Enabled() {
		// Forwarded data races the directory's post-ack messages; the
		// uniform-latency FIFO wire guarantees the data wins, but a
		// jittered or retransmitting wire does not (the cache.forward
		// ordering note). Origin handles this with NAK/retry machinery
		// this model deliberately omits.
		return nil, fmt.Errorf("machine: Forwarding requires a fault-free interconnect")
	}
	geom, err := coherence.NewGeometry(cfg.CacheBlockBytes, cfg.PageBytes, cfg.Nodes)
	if err != nil {
		return nil, err
	}

	engine := &sim.Engine{}
	net, err := network.New(engine, cfg)
	if err != nil {
		return nil, err
	}

	m := &Machine{
		cfg:            cfg,
		opts:           opts,
		geom:           geom,
		engine:         engine,
		net:            net,
		caches:         make([]*stache.Cache, cfg.Nodes),
		dirs:           make([]*stache.Directory, cfg.Nodes),
		app:            app,
		procs:          make([]proc, cfg.Nodes),
		waitingSince:   make([]sim.Time, cfg.Nodes),
		barrierLatency: sim.Time(cfg.Nodes) * cfg.MessageLatencyNs() / 4,
		thinkTime:      1,
	}
	for i := range m.waitingSince {
		m.waitingSince[i] = sim.MaxTime
	}
	m.kindStep = engine.RegisterHandler(func(rec *sim.EventRec) { m.step(&m.procs[rec.Dst]) })
	m.kindBarrier = engine.RegisterHandler(func(*sim.EventRec) { m.startIteration() })
	m.done = make([]func(), cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		node := coherence.NodeID(i)
		m.done[i] = func() { m.accessDone(node) }
	}

	// On a faulty wire, layer the reliable transport between the
	// protocol and the network so the protocol keeps its exactly-once,
	// per-link FIFO delivery assumptions. On the default reliable wire
	// the protocol talks to the network directly — the transport stays
	// completely out of the message flow, so the fault-free path is
	// bit-identical to a build without it.
	var sender stache.Sender = net
	if cfg.Faults.Enabled() {
		m.transport = reliable.New(engine, net, cfg)
		m.transport.OnFailure(func(err error) {
			m.fail(fmt.Errorf("%w\n%s", err, m.diagnose()))
		})
		deliver := m.deliver
		for i := 0; i < cfg.Nodes; i++ {
			m.transport.Bind(coherence.NodeID(i), deliver)
		}
		sender = m.transport
	} else {
		// With no transport to consume them, a control frame reaching
		// the protocol is a simulator bug. pkt is the engine's firing
		// event, read in place.
		net.Bind(func(pkt *network.Packet) {
			if pkt.Ctrl() {
				panic(&network.SendError{Pkt: *pkt, Reason: "control frame delivered to the protocol"})
			}
			m.deliver(pkt.Msg)
		})
	}
	// With cfg.Invariants the runtime invariant monitor is bound to the
	// machine's clock, geometry and protocol options, registered as the
	// first delivery observer, ticked by Run after every event, and every
	// protocol-level send flows through a tap so it sees that too.
	// Unmonitored runs send straight to the network or transport.
	if cfg.Invariants {
		m.monitor = invariant.New(invariant.Config{Every: cfg.InvariantEvery})
		m.monitor.Bind(engine.Now, geom, opts)
		m.AddObserver(m.monitor)
		sender = tapSender{mon: m.monitor, inner: sender}
	}

	for i := 0; i < cfg.Nodes; i++ {
		node := coherence.NodeID(i)
		m.dirs[i] = stache.NewDirectory(node, geom, sender, opts)
		m.caches[i] = stache.NewCache(node, geom, sender, m.dirs[i], opts)
		m.procs[i] = proc{id: node}
	}
	return m, nil
}

// deliver hands msg to its destination node's directory or cache
// controller. It is the one place received messages are observed: every
// observer sees msg, in registration order, before the controller acts
// on it (and in particular before a busy directory queues it), because
// that is the stream a hardware predictor sitting beside the controller
// would see. Delivery order — what predictors see — is fixed here, at
// receive; handler occupancy is not modelled.
//
//cosmosvet:hotpath
func (m *Machine) deliver(msg coherence.Msg) {
	if msg.Type.DirectoryBound() {
		for _, o := range m.observers {
			o.ObserveDirectory(msg.Dst, msg)
		}
		m.dirs[msg.Dst].Deliver(msg)
	} else {
		for _, o := range m.observers {
			o.ObserveCache(msg.Dst, msg)
		}
		m.caches[msg.Dst].Deliver(msg)
	}
}

// tapSender mirrors every protocol-level send into the invariant
// monitor before handing it to the real sender (network or reliable
// transport).
type tapSender struct {
	mon   *invariant.Monitor
	inner stache.Sender
}

// Send implements stache.Sender.
func (t tapSender) Send(msg coherence.Msg) {
	t.mon.ObserveSend(msg)
	t.inner.Send(msg)
}

// Monitor returns the invariant monitor, or nil unless cfg.Invariants.
func (m *Machine) Monitor() *invariant.Monitor { return m.monitor }

// AddObserver attaches an observer. Must be called before Run.
func (m *Machine) AddObserver(o Observer) { m.observers = append(m.observers, o) }

// Geometry returns the machine's address geometry.
func (m *Machine) Geometry() coherence.Geometry { return m.geom }

// Engine exposes the event engine (tests use it to inspect time).
func (m *Machine) Engine() *sim.Engine { return m.engine }

// Network exposes the interconnect for statistics.
func (m *Machine) Network() *network.Network { return m.net }

// Cache returns node n's cache controller (for tests).
func (m *Machine) Cache(n coherence.NodeID) *stache.Cache { return m.caches[n] }

// Directory returns node n's directory controller (for tests).
func (m *Machine) Directory(n coherence.NodeID) *stache.Directory { return m.dirs[n] }

// FormatStats sums the scalable-directory-format counters across every
// node's directory: limited-pointer overflow events and invalidations
// fanned out on the strength of an inexact sharer set.
func (m *Machine) FormatStats() (overflows, wideInvals uint64) {
	for _, d := range m.dirs {
		o, w := d.FormatStats()
		overflows += o
		wideInvals += w
	}
	return overflows, wideInvals
}

// Accesses returns the total number of memory references performed.
func (m *Machine) Accesses() uint64 { return m.accesses }

// Iteration returns the number of fully completed iterations.
func (m *Machine) Iteration() int { return m.iter }

// TotalIterations returns how many iterations the workload runs in
// total, so observers (like the speculation reconciler) can recognize
// the final barrier.
func (m *Machine) TotalIterations() int { return m.app.Iterations() }

// Transport exposes the reliable transport, or nil when the
// interconnect is fault-free and the protocol talks to the network
// directly.
func (m *Machine) Transport() *reliable.Transport { return m.transport }

// The following accessors implement invariant.View, the read-only
// window the invariant monitor checks the machine through.

// ProtocolOptions returns the protocol variant the machine runs.
func (m *Machine) ProtocolOptions() stache.Options { return m.opts }

// CacheState returns node n's stable state for block addr.
func (m *Machine) CacheState(n coherence.NodeID, addr coherence.Addr) stache.CacheState {
	return m.caches[n].State(addr)
}

// CachePending reports node n's outstanding transaction on addr.
func (m *Machine) CachePending(n coherence.NodeID, addr coherence.Addr) (string, bool) {
	return m.caches[n].Pending(addr)
}

// CacheSpec reports whether node n holds addr as an unclaimed
// speculative (pushed) copy.
func (m *Machine) CacheSpec(n coherence.NodeID, addr coherence.Addr) bool {
	return m.caches[n].Spec(addr)
}

// StateDigest hashes the protocol-visible end state of the machine:
// every directory entry and every node's stable cache state (plus
// speculative mark) for every tracked block. Two runs whose digests
// match ended in byte-equivalent coherence state — the property the
// ProtocolRollback acceptance tests check against the base protocol.
func (m *Machine) StateDigest() string {
	h := sha256.New()
	for _, addr := range m.DirectoryBlocks() {
		e, _ := m.HomeEntry(addr)
		fmt.Fprintf(h, "%#x dir=%v\n", uint64(addr), e)
		for n := range m.caches {
			node := coherence.NodeID(n)
			st := m.caches[n].State(addr)
			if st == stache.CacheInvalid && !m.caches[n].Spec(addr) {
				continue
			}
			fmt.Fprintf(h, "%#x %v=%v spec=%v\n", uint64(addr), node, st, m.caches[n].Spec(addr))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// HomeEntry returns the home directory's entry for addr.
func (m *Machine) HomeEntry(addr coherence.Addr) (stache.EntryInfo, bool) {
	return m.dirs[m.geom.Home(addr)].Entry(addr)
}

// DirectoryBlocks returns every block any directory tracks, sorted.
func (m *Machine) DirectoryBlocks() []coherence.Addr {
	var out []coherence.Addr
	for _, d := range m.dirs {
		for _, e := range d.Entries() {
			out = append(out, e.Addr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NetworkInFlight returns coherence messages currently on the wire.
func (m *Machine) NetworkInFlight() int { return m.net.InFlight() }

// TransportUndelivered returns frames the reliable transport still owes
// the protocol, or -1 on the fault-free path (no transport layered).
func (m *Machine) TransportUndelivered() int {
	if m.transport == nil {
		return -1
	}
	return m.transport.Undelivered()
}

// Run simulates the workload to completion. maxEvents bounds the event
// count (0 = unlimited) as a backstop against same-timestamp event
// loops. Stalls — no access completing within cfg.WatchdogNs of
// simulated time, or a reliable-transport link dying — fail fast with
// a diagnostic dump of pending transactions, in-flight retransmits,
// and per-node barrier state.
func (m *Machine) Run(maxEvents uint64) error {
	if m.app.Iterations() == 0 {
		return nil
	}
	m.startIteration()
	var fired uint64
	for m.failure == nil && m.iter < m.app.Iterations() {
		if maxEvents != 0 && fired >= maxEvents {
			next, _ := m.engine.NextAt()
			return fmt.Errorf("machine: event budget %d exhausted at t=%v with %d events pending (earliest at %v)\n%s",
				maxEvents, m.engine.Now(), m.engine.Pending(), next, m.diagnose())
		}
		if !m.engine.Step() {
			break
		}
		fired++
		if m.cfg.WatchdogNs > 0 && m.engine.Now() > m.lastProgress+m.cfg.WatchdogNs {
			m.fail(fmt.Errorf("machine: watchdog: no access completed between t=%v and t=%v (span %v)\n%s",
				m.lastProgress, m.engine.Now(), m.cfg.WatchdogNs, m.diagnose()))
		}
		m.tickMonitor()
	}
	if m.failure != nil {
		return m.failure
	}
	if m.iter < m.app.Iterations() {
		return fmt.Errorf("machine: deadlock: simulation drained at iteration %d of %d (t=%v)\n%s",
			m.iter, m.app.Iterations(), m.engine.Now(), m.diagnose())
	}
	if m.monitor != nil {
		// Drain stragglers (writeback acks, transport ack frames, armed
		// retransmit timers) so the quiesce check sees a settled system.
		// Only monitored runs drain: the extra events would not change any
		// results, but keeping the default path's event count bit-identical
		// to the seed is part of this simulator's contract.
		for m.failure == nil && m.engine.Step() {
			fired++
			if maxEvents != 0 && fired >= maxEvents {
				return fmt.Errorf("machine: event budget %d exhausted draining for quiesce at t=%v with %d events pending\n%s",
					maxEvents, m.engine.Now(), m.engine.Pending(), m.diagnose())
			}
			m.tickMonitor()
		}
		if m.failure != nil {
			return m.failure
		}
		if err := m.monitor.CheckQuiesce(m); err != nil {
			return fmt.Errorf("machine: %w\n%s", err, m.diagnose())
		}
	}
	return nil
}

// tickMonitor drives the invariant monitor after one fired event,
// converting a violation into a hard failure.
func (m *Machine) tickMonitor() {
	if m.monitor == nil || m.failure != nil {
		return
	}
	if err := m.monitor.Tick(m); err != nil {
		m.fail(fmt.Errorf("machine: %w\n%s", err, m.diagnose()))
	}
}

// fail records the first hard error; the run loop exits on it.
func (m *Machine) fail(err error) {
	if m.failure == nil {
		m.failure = err
	}
	m.engine.Halt()
}

// noteProgress records that the machine moved forward (an access
// completed or a barrier was crossed).
func (m *Machine) noteProgress() {
	m.progress++
	m.lastProgress = m.engine.Now()
}

// diagnose renders the stall diagnostic: which processors are stuck on
// what, which directory entries are mid-transaction, what the reliable
// transport is still retrying, and who has reached the barrier.
func (m *Machine) diagnose() string {
	var b strings.Builder
	fmt.Fprintf(&b, "diagnostic at t=%v, iteration %d of %d, %d accesses completed:\n",
		m.engine.Now(), m.iter, m.app.Iterations(), m.progress)

	fmt.Fprintf(&b, "  barrier: %d of %d processors arrived\n", m.arrived, len(m.procs))

	// Per-node outstanding coherence transactions, and the single oldest
	// request still waiting for its reply — usually the one the rest of
	// the machine is serialized behind.
	var counts []string
	oldest := -1
	for i, c := range m.caches {
		if n := len(c.PendingLines()); n > 0 {
			counts = append(counts, fmt.Sprintf("%v=%d", coherence.NodeID(i), n))
		}
		if m.waitingSince[i] != sim.MaxTime && (oldest < 0 || m.waitingSince[i] < m.waitingSince[oldest]) {
			oldest = i
		}
	}
	if len(counts) > 0 {
		fmt.Fprintf(&b, "  outstanding transactions per node: %s\n", strings.Join(counts, " "))
	}
	if oldest >= 0 {
		p := &m.procs[oldest]
		if p.next > 0 && p.next <= len(p.seq) {
			a := p.seq[p.next-1]
			op := "load"
			if a.Write {
				op = "store"
			}
			fmt.Fprintf(&b, "  oldest unpaired request: %v %s %#x (home %v), issued t=%v, waiting %v\n",
				p.id, op, uint64(a.Addr), m.geom.Home(a.Addr),
				m.waitingSince[oldest], m.engine.Now()-m.waitingSince[oldest])
		}
	}
	if n := m.net.InFlight(); n > 0 {
		fmt.Fprintf(&b, "  network: %d coherence message(s) in flight\n", n)
	}
	if m.transport != nil {
		if n := m.transport.Undelivered(); n > 0 {
			fmt.Fprintf(&b, "  transport: %d frame(s) accepted but not yet released to the protocol\n", n)
		}
	}

	for i := range m.procs {
		p := &m.procs[i]
		if p.next == 0 || p.next > len(p.seq) {
			continue
		}
		a := p.seq[p.next-1] // next was advanced when the access issued
		op := "load"
		if a.Write {
			op = "store"
		}
		fmt.Fprintf(&b, "  %v: access %d of %d last issued (%s %#x, home %v)\n",
			p.id, p.next, len(p.seq), op, uint64(a.Addr), m.geom.Home(m.geom.Block(a.Addr)))
	}

	const maxLines = 8 // keep dumps readable on big machines
	lines := 0
	for i, c := range m.caches {
		for _, pl := range c.PendingLines() {
			if lines++; lines > maxLines {
				break
			}
			fmt.Fprintf(&b, "  cache %v: %s of %#x pending (state %v)\n",
				coherence.NodeID(i), pl.Kind, uint64(pl.Addr), pl.State)
		}
	}
	lines = 0
	for i, d := range m.dirs {
		for _, be := range d.BusyEntries() {
			if lines++; lines > maxLines {
				break
			}
			fmt.Fprintf(&b, "  directory %v: %#x busy for %v (%d acks left, %d queued)\n",
				coherence.NodeID(i), uint64(be.Addr), be.Requestor, be.AcksLeft, be.Queued)
		}
	}
	if m.transport != nil {
		inflight := m.transport.Inflight()
		for i, f := range inflight {
			if i >= maxLines {
				fmt.Fprintf(&b, "  ... %d more in-flight frames\n", len(inflight)-i)
				break
			}
			fmt.Fprintf(&b, "  retransmitting %v->%v frame %d (%v, %d retries, first sent t=%v)\n",
				f.Src, f.Dst, f.TSeq, f.Msg, f.Retries, f.SentAt)
		}
	}
	return strings.TrimRight(b.String(), "\n")
}

// startIteration loads every processor's access sequence for the
// current iteration and schedules their first accesses. A small
// per-processor skew (one think-time step per node id) staggers issue
// so same-instant races resolve differently across nodes, as they would
// on real hardware.
func (m *Machine) startIteration() {
	m.arrived = 0
	for i := range m.procs {
		p := &m.procs[i]
		p.seq = workload.AppendAccesses(m.app, p.seq[:0], i, m.iter)
		p.next = 0
		skew := sim.Time(i) * m.thinkTime
		m.engine.PostAfter(skew, sim.EventRec{Kind: m.kindStep, Dst: p.id})
	}
}

// step issues processor p's next access, or reports barrier arrival
// when its iteration sequence is exhausted.
//
//cosmosvet:hotpath
func (m *Machine) step(p *proc) {
	if p.next >= len(p.seq) {
		m.barrierArrive()
		return
	}
	a := p.seq[p.next]
	p.next++
	m.accesses++
	m.waitingSince[p.id] = m.engine.Now()
	m.caches[p.id].Access(a.Addr, a.Write, m.done[p.id])
}

// accessDone completes processor id's outstanding access and schedules
// its next issue step after the think time.
//
//cosmosvet:hotpath
func (m *Machine) accessDone(id coherence.NodeID) {
	m.waitingSince[id] = sim.MaxTime
	m.noteProgress()
	m.engine.PostAfter(m.thinkTime, sim.EventRec{Kind: m.kindStep, Dst: id})
}

// barrierArrive counts arrivals; the last arrival completes the
// iteration, notifies observers, and releases everyone into the next
// iteration after the barrier latency.
func (m *Machine) barrierArrive() {
	m.noteProgress()
	m.arrived++
	if m.arrived < len(m.procs) {
		return
	}
	for _, o := range m.observers {
		o.EndIteration(m.iter)
	}
	m.iter++
	if m.iter >= m.app.Iterations() {
		return
	}
	m.engine.PostAfter(m.barrierLatency, sim.EventRec{Kind: m.kindBarrier})
}
