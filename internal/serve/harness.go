package serve

import (
	"fmt"
	"math/rand"
	"os"

	"github.com/cosmos-coherence/cosmos/internal/coherence"
	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/faults"
	"github.com/cosmos-coherence/cosmos/internal/network"
	"github.com/cosmos-coherence/cosmos/internal/reliable"
	"github.com/cosmos-coherence/cosmos/internal/sim"
)

// The crash harness: a whole service deployment in one value — engine,
// faulty wire, reliable transport, server, clients — that can be run,
// killed at an arbitrary simulated instant (tearing the WAL's unsynced
// tail at a seeded byte, the way a power cut would), restarted from
// the store, resynchronized, and run to completion. The oracle for
// correctness is deliberately independent of all of it: each stream's
// expected responses and final predictor bytes are computed by feeding
// the observation list straight into a fresh predictor, no transport,
// no server, no disk. Per-stream state depends only on that stream's
// own observation order (which the transport keeps FIFO), so the
// oracle is exact no matter how the wire interleaves streams or where
// the crashes land.

// Obs is one workload observation.
type Obs struct {
	Addr coherence.Addr
	Tup  coherence.Tuple
}

// GenWorkload builds a seeded per-stream workload: n observations per
// stream over a small block pool, with stream-skewed senders so each
// predictor learns a distinct pattern.
func GenWorkload(seed int64, streams, n int) [][]Obs {
	r := rand.New(rand.NewSource(seed))
	w := make([][]Obs, streams)
	for s := range w {
		w[s] = make([]Obs, n)
		for i := range w[s] {
			w[s][i] = Obs{
				Addr: coherence.Addr(r.Intn(8) * 64),
				Tup: coherence.Tuple{
					Sender: coherence.NodeID((s + r.Intn(4)) % 16),
					Type:   coherence.MsgType(1 + r.Intn(int(coherence.NumMsgTypes)-1)),
				},
			}
		}
	}
	return w
}

// Oracle replays one stream's observations through a fresh predictor
// and returns the response sequence and final canonical predictor
// bytes the service must reproduce.
func Oracle(cfg core.Config, obs []Obs) ([]Response, []byte, error) {
	p, err := core.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	resp := make([]Response, len(obs))
	for i, o := range obs {
		p.Observe(o.Addr, o.Tup)
		pred, ok := p.Predict(o.Addr)
		resp[i] = Response{Pred: pred, OK: ok}
	}
	return resp, p.Snapshot(), nil
}

// Client is one harness stream: it paces its observation list onto the
// wire, acknowledges every response, and verifies the response stream
// as it arrives — a re-sent response after a resync must be
// byte-identical to what it already holds.
type Client struct {
	ID   int
	obs  []Obs
	sent int
	// Recv is the verified response log, dense by sequence number.
	Recv []Response
	// LatNs records observation→response round-trip latencies (ns) for
	// first-time responses, in arrival order — the load generator's SLO
	// raw material.
	LatNs  []uint64
	sendAt []sim.Time
	gap    sim.Time
	err    error

	eng      *sim.Engine
	tr       *reliable.Transport
	sendKind sim.EventKind
	server   coherence.NodeID
}

// Err returns the client's first protocol violation, if any.
func (c *Client) Err() error { return c.err }

// Done reports whether the client has sent everything and holds a
// verified response for every observation.
func (c *Client) Done() bool {
	return c.err == nil && c.sent == len(c.obs) && len(c.Recv) == len(c.obs)
}

// attach wires the client to a (possibly fresh) engine and transport
// and schedules its sender. sendKind is the engine's pacer handler,
// which routes each event to the client named by its Src.
func (c *Client) attach(eng *sim.Engine, tr *reliable.Transport, sendKind sim.EventKind) {
	c.eng, c.tr, c.sendKind = eng, tr, sendKind
	tr.Bind(coherence.NodeID(c.ID), c.onMsg)
	c.scheduleSend()
}

func (c *Client) scheduleSend() {
	if c.sent >= len(c.obs) {
		return
	}
	c.eng.PostAfter(c.gap, sim.EventRec{Kind: c.sendKind, Src: coherence.NodeID(c.ID)})
}

// send puts the next observation on the wire and paces the one after.
func (c *Client) send() {
	if c.sent >= len(c.obs) {
		return
	}
	o := c.obs[c.sent]
	for len(c.sendAt) <= c.sent {
		c.sendAt = append(c.sendAt, 0)
	}
	c.sendAt[c.sent] = c.eng.Now()
	c.tr.Send(obsMsg(coherence.NodeID(c.ID), c.server, o.Addr, o.Tup))
	c.sent++
	c.scheduleSend()
}

func (c *Client) onMsg(m coherence.Msg) {
	r, isQuery := decodeResponse(m)
	if isQuery || c.err != nil {
		return
	}
	seq := uint64(m.Addr)
	switch {
	case seq < uint64(len(c.Recv)):
		// A regenerated response from a resync: it must match what the
		// pre-crash server said, byte for byte.
		if c.Recv[seq] != r {
			c.err = fmt.Errorf("serve: client %d: response %d regenerated as %+v, originally %+v",
				c.ID, seq, r, c.Recv[seq])
			return
		}
	case seq == uint64(len(c.Recv)):
		c.Recv = append(c.Recv, r)
		if int(seq) < len(c.sendAt) {
			c.LatNs = append(c.LatNs, uint64(c.eng.Now()-c.sendAt[seq]))
		}
	default:
		c.err = fmt.Errorf("serve: client %d: response %d arrived with only %d received — a gap",
			c.ID, seq, len(c.Recv))
		return
	}
	c.tr.Send(ackMsg(coherence.NodeID(c.ID), c.server, uint64(len(c.Recv))))
}

// HarnessConfig parameterizes a Cluster.
type HarnessConfig struct {
	// Dir is the server's store directory.
	Dir string
	// Server configures the server; Node and Streams are set by the
	// harness from the workload shape.
	Server Config
	// Plan is the fault plan for the wire.
	Plan faults.Plan
	// GapNs is each client's inter-observation pacing. 0 defaults to
	// 200ns.
	GapNs sim.Time
}

// Cluster is one live deployment of the service.
type Cluster struct {
	Eng     *sim.Engine
	Tr      *reliable.Transport
	Srv     *Server
	Clients []*Client
	cfg     HarnessConfig
}

// NewCluster builds a deployment serving the given workload. An
// existing store in cfg.Dir is recovered; clients start (or resume)
// from the server's cursors.
func NewCluster(cfg HarnessConfig, workload [][]Obs) (*Cluster, error) {
	if cfg.GapNs == 0 {
		cfg.GapNs = 200
	}
	cfg.Server.Streams = len(workload)
	cfg.Server.Node = coherence.NodeID(len(workload))
	c := &Cluster{cfg: cfg}
	c.Clients = make([]*Client, len(workload))
	for i, obs := range workload {
		c.Clients[i] = &Client{ID: i, obs: obs, gap: cfg.GapNs, server: cfg.Server.Node}
	}
	if err := c.start(); err != nil {
		return nil, err
	}
	return c, nil
}

// start builds the engine/wire/transport/server stack and attaches the
// clients, resynchronizing each against the server's recovered state.
func (c *Cluster) start() error {
	simCfg := sim.DefaultConfig()
	simCfg.Nodes = len(c.Clients) + 1
	simCfg.Faults = c.cfg.Plan
	eng := &sim.Engine{}
	nw, err := network.New(eng, simCfg)
	if err != nil {
		return err
	}
	tr := reliable.New(eng, nw, simCfg)
	store, err := OpenStore(c.cfg.Dir)
	if err != nil {
		return err
	}
	srv, err := New(eng, tr, store, c.cfg.Server)
	if err != nil {
		return err
	}
	c.Eng, c.Tr, c.Srv = eng, tr, srv
	sendKind := eng.RegisterHandler(func(rec *sim.EventRec) { c.Clients[rec.Src].send() })
	for _, cl := range c.Clients {
		cursor, err := srv.Resync(cl.ID, uint64(len(cl.Recv)))
		if err != nil {
			return err
		}
		cl.sent = int(cursor)
		cl.attach(eng, tr, sendKind)
	}
	return nil
}

// Err returns the first failure anywhere in the deployment.
func (c *Cluster) Err() error {
	if err := c.Srv.Err(); err != nil {
		return err
	}
	if err := c.Tr.Err(); err != nil {
		return err
	}
	for _, cl := range c.Clients {
		if err := cl.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Run drives the deployment until the event queue drains, then checks
// that every client completed and verified its full response log.
func (c *Cluster) Run() error {
	if _, err := c.Eng.Run(0); err != nil {
		return err
	}
	if err := c.Err(); err != nil {
		return err
	}
	for _, cl := range c.Clients {
		if !cl.Done() {
			return fmt.Errorf("serve: client %d finished with %d/%d sent, %d/%d responses",
				cl.ID, cl.sent, len(cl.obs), len(cl.Recv), len(cl.obs))
		}
	}
	return c.Srv.Close()
}

// Kill crashes the deployment at simulated time killAt: it runs up to
// that instant, abandons every component without any orderly shutdown,
// and tears the WAL's unsynced tail at tearFrac of its length —
// modelling the partial page a power cut leaves behind.
func (c *Cluster) Kill(killAt sim.Time, tearFrac float64) error {
	c.Eng.RunUntil(killAt)
	if err := c.Err(); err != nil {
		return err
	}
	w := c.Srv.WAL()
	path, synced, size := w.Path(), w.SyncedSize(), w.Size()
	c.Srv.Abandon()
	keep := synced + int64(tearFrac*float64(size-synced))
	if err := os.Truncate(path, keep); err != nil {
		return fmt.Errorf("serve: tearing wal: %w", err)
	}
	c.Eng, c.Tr, c.Srv = nil, nil, nil
	return nil
}

// Restart brings a killed deployment back: a fresh engine, wire, and
// transport, a server recovered from the store, and every client
// resynchronized against it.
func (c *Cluster) Restart() error { return c.start() }
