package sim

import (
	"fmt"

	"github.com/cosmos-coherence/cosmos/internal/faults"
)

// Config holds the simulated machine parameters. DefaultConfig
// reproduces the Table 3 parameters the model simulates; the others
// (processor speed, cache size and associativity, memory access time,
// message size) are printed from the paper's values by report.Table3.
type Config struct {
	// Nodes is the number of single-processor nodes.
	Nodes int
	// CacheBlockBytes is the coherence granularity.
	CacheBlockBytes uint64
	// PageBytes is the page size used for round-robin homing.
	PageBytes uint64
	// BusWidthBits and BusClockHz describe the per-node coherent
	// memory bus (MOESI in the paper; we model its occupancy only).
	BusWidthBits int
	BusClockHz   uint64
	// NetworkLatencyNs is the point-to-point network latency.
	NetworkLatencyNs Time
	// NIAccessNs is the network interface access time.
	NIAccessNs Time
	// Topology selects the interconnect shape: "" (or "all-to-all")
	// is the paper's ideal uniform-latency fabric; "mesh" and "torus"
	// arrange the nodes in a near-square 2-D grid with deterministic
	// dimension-order routing, per-hop NetworkLatencyNs, and per-link
	// FIFO contention (messages sharing a directed link serialize).
	// internal/topology parses the value; network.New applies it.
	Topology string

	// Faults configures interconnect fault injection (drops,
	// duplication, jitter, link blackouts). The zero value is a
	// perfectly reliable wire and keeps the delivery path bit-identical
	// to a fault-free build. When the plan is enabled the machine
	// layers the reliable end-to-end transport (internal/reliable)
	// between the protocol and the network.
	Faults faults.Plan
	// WatchdogNs is the forward-progress watchdog span: if no memory
	// access completes and no barrier is crossed within WatchdogNs of
	// simulated time while work remains, the run fails fast with a
	// diagnostic dump instead of spinning until the event budget
	// exhausts. 0 disables the watchdog.
	WatchdogNs Time
	// RetxTimeoutNs is the reliable transport's initial retransmit
	// timeout. 0 derives a default from the message latency and the
	// fault plan's jitter bound.
	RetxTimeoutNs Time
	// RetxMaxRetries caps retransmissions of a single message before
	// the transport declares the link dead and fails the run. 0 means
	// the default of 12.
	RetxMaxRetries int
	// RetxBackoffCapNs bounds the exponential retransmit backoff: the
	// per-frame timeout doubles on every retry but never past this cap,
	// so a frame stuck behind a long outage keeps probing at a bounded
	// interval instead of backing off into the far future. 0 derives
	// the default of reliable.DefaultBackoffCapFactor times the initial
	// timeout; a cap below the initial timeout is clamped up to it.
	RetxBackoffCapNs Time

	// Invariants enables the runtime coherence invariant monitor
	// (internal/invariant): the machine checks SWMR, directory/cache
	// agreement, message conservation, and protocol-variant legality at
	// a fixed event cadence and again at quiesce, failing the run with a
	// structured diagnostic on the first violation. With the monitor
	// attached the machine also drains in-flight stragglers after the
	// final barrier so the quiesce check sees a settled system; a
	// monitored run therefore fires a few more events than an
	// unmonitored one, but remains deterministic for a given seed.
	Invariants bool
	// InvariantEvery is the monitor's mid-run cadence in fired events
	// between full state sweeps (0 = the default of 4096). Message-level
	// checks run on every message regardless.
	InvariantEvery uint64
}

// DefaultConfig returns the Table 3 machine: 16 nodes, 64-byte blocks,
// 4 KB pages, 256-bit 250 MHz buses, 40 ns network latency and 60 ns
// NI access.
func DefaultConfig() Config {
	return Config{
		Nodes:            16,
		CacheBlockBytes:  64,
		PageBytes:        4096,
		BusWidthBits:     256,
		BusClockHz:       250_000_000,
		NetworkLatencyNs: 40,
		NIAccessNs:       60,
		// 5 ms of simulated time without a single access completion is
		// orders of magnitude beyond any healthy transaction on this
		// machine; treat it as a stall.
		WatchdogNs: 5_000_000,
	}
}

// Validate checks internal consistency of the configuration.
func (c Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("sim: Nodes=%d must be positive", c.Nodes)
	case c.CacheBlockBytes == 0 || c.CacheBlockBytes&(c.CacheBlockBytes-1) != 0:
		return fmt.Errorf("sim: CacheBlockBytes=%d must be a power of two", c.CacheBlockBytes)
	case c.PageBytes == 0 || c.PageBytes&(c.PageBytes-1) != 0:
		return fmt.Errorf("sim: PageBytes=%d must be a power of two", c.PageBytes)
	case c.CacheBlockBytes > c.PageBytes:
		return fmt.Errorf("sim: block size %d exceeds page size %d", c.CacheBlockBytes, c.PageBytes)
	case c.RetxMaxRetries < 0:
		return fmt.Errorf("sim: RetxMaxRetries=%d must not be negative", c.RetxMaxRetries)
	}
	return c.Faults.Validate()
}

// BusTransferNs returns the time to move n bytes across the local
// memory bus, rounded up to whole bus cycles.
func (c Config) BusTransferNs(n uint64) Time {
	if c.BusWidthBits <= 0 || c.BusClockHz == 0 {
		return 0
	}
	bytesPerCycle := uint64(c.BusWidthBits) / 8
	cycles := (n + bytesPerCycle - 1) / bytesPerCycle
	nsPerCycle := 1_000_000_000 / c.BusClockHz
	return Time(cycles * nsPerCycle)
}

// MessageLatencyNs returns the end-to-end latency of one network
// message: NI injection, wire latency, NI extraction.
func (c Config) MessageLatencyNs() Time {
	return c.NIAccessNs + c.NetworkLatencyNs + c.NIAccessNs
}
