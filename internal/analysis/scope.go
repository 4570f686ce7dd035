package analysis

import "strings"

// simCorePackages are the module packages whose behavior feeds the
// deterministic simulation: event scheduling, protocol transitions,
// message delivery, fault decisions, and workload generation. The
// determinism and message-immutability analyzers apply only here —
// offline evaluation and report rendering may use maps and clocks
// freely as long as nothing order-dependent leaks into output (the
// exhaustive-switch analyzer still covers the whole module).
var simCorePackages = []string{
	"internal/sim",
	"internal/machine",
	"internal/stache",
	"internal/table", // stache's block tables; their walk order must replay
	"internal/network",
	// Routing is pure geometry, but its hop lists decide delivery
	// times: any nondeterminism here would skew every structured-fabric
	// trace.
	"internal/topology",
	"internal/reliable",
	"internal/faults",
	"internal/workload",
	"internal/invariant",
	"internal/chaos",
	// The speculation governor's gate decisions steer protocol actions
	// mid-simulation; a map iteration or clock read in its state machine
	// would desynchronize otherwise-identical runs.
	"internal/governor",
	"internal/speculate",
	// The online prediction service runs inside the engine: its queue,
	// shed, and checkpoint decisions must replay identically from a
	// seed for the kill-and-restore byte-equivalence guarantee to hold.
	"internal/serve",
	// The worker pool reassembles parallel results into deterministic
	// order; wall-clock or global-rand creep here would let scheduling
	// leak into every experiment that fans out over it.
	"internal/parallel",
	// Trace capture/encoding, the on-disk trace cache, and slot-sharded
	// evaluation all promise byte-identical results across runs, pool
	// widths, and cold/warm caches — the same determinism contract the
	// simulation core carries, so the same analyzers apply.
	"internal/trace",
	"internal/tracecache",
	"internal/stats",
}

// InSimulationCore reports whether the package is part of the
// deterministic simulation core. The analyzer test fixtures under
// internal/analysis/.../testdata are always in scope so they can
// exercise the checks; a testdata directory anywhere else in the
// module (or in another module entirely) says nothing about
// determinism requirements and is judged by the package list alone.
func InSimulationCore(modulePath, pkgPath string) bool {
	if modulePath != "" &&
		strings.HasPrefix(pkgPath, modulePath+"/internal/analysis/") &&
		strings.Contains(pkgPath, "/testdata/") {
		return true
	}
	for _, p := range simCorePackages {
		if pkgPath == modulePath+"/"+p {
			return true
		}
	}
	return false
}
