package main

// def describes one metric. The end-to-end list and the per-layer list
// below are the single source of BENCHMARK.json's metric entries (a
// test keeps the two in step). moves and on record, for a per-layer
// metric, which end-to-end metric it should move and on which workload,
// so a later change can name the layer that moved.
type def struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: allowed worsening, as a share of the median
	moves  string  // per-layer only
	on     string  // per-layer only
	doc    string
}

// endToEnd are reported by every untraced run, for every workload.
//
// host_user_s is the user CPU time of the operation, a sum of per-unit
// medians: not wall time, not system time, not the fastest repetition.
// On the 2-vCPU VM the benchmark was designed on:
//   - A unit's time moved by 10-30% between repetitions, in both
//     directions, and runs minutes apart differed by up to 20%. The
//     fastest pass of a unit caught rare lucky repetitions: over five
//     seeds its spread (IQR/median) was 0.11 on scale-1024 against 0.05
//     for the per-unit median.
//   - serve-slo's store and paper-sim's trace cache fsync on a disk shared
//     with other machines. The kernel time of those writes (system CPU)
//     moved between 0.2 and 0.5 s per serve-slo repetition, and wall time
//     with it: over six seeds serve-slo's wall-time spread was 0.50 and
//     its user+system spread 0.16, against 0.09 for user time alone.
//   - The memory system is what is shared: a benchmark-owned kernel of
//     integer arithmetic held within 5% while the workloads moved. A
//     kernel of dependent loads over 32 MiB did not track them closely
//     enough to divide by: it narrowed paper-sim's spread from 0.16 to
//     0.05 in a slow period and widened it from 0.02 to 0.10 in a quiet
//     one.
//   - serve-slo's user time still follows the disk's load, through the
//     kernel work of about 2000 WAL fsyncs a repetition: three sets of
//     ten seeds within two hours had spreads from 0.07 to 0.19 and medians
//     up to 21% apart, against spreads of 0.02-0.12 on the other
//     workloads.
//   - Wall and system time, and the CPU/wall ratio (lost parallelism on
//     paper-tables' pool), are reported by the traced run as
//     bench.wall_s, bench.sys_s and bench.parallelism, and every
//     repetition's times per unit are in the run's samples line. No
//     end-to-end metric sees blocking, disk waits or lost parallelism.
//
// setup_s is CPU time (user+system): the user/system split the kernel
// reports is sampled at the scheduler tick, too coarse for set-ups of a
// millisecond or two, while the sum is exact.
var endToEnd = []def{
	{name: "host_user_s", unit: "s", better: "lower", bound: 0.25,
		doc: "host user CPU seconds (all threads) of the workload's timed operation: the sum, over its units (each app's simulation and trace store or stream capture and evaluation, each table, each serve phase), of each unit's median over the run's repetitions"},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25,
		doc: "host CPU seconds (user+system) of one set-up (paper-sim: machine.New x5; paper-tables: trace-cache load into a fresh Suite; scale-1024: machine.New x2; serve-slo: serve.NewCluster), median over every set-up round of the run; a set-up shorter than 50 ms is repeated, each round after a reset and drain, up to 16 times per repetition"},
	{name: "peak_rss_mib", unit: "MiB", better: "lower", bound: 0.2,
		doc: "peak resident memory (VmHWM) of a repetition, set-up and operation, median; each repetition starts from a drained heap returned to the OS"},
	{name: "alloc_mib", unit: "MiB", better: "lower", bound: 0.1,
		doc: "heap bytes allocated per repetition (set-up and operation), median"},
	{name: "allocs", unit: "count", better: "lower", bound: 0.15,
		doc: "heap objects allocated per repetition, median; paper-tables' predictor sync.Pool makes it vary with GC timing (spread over ten seeds 0.006-0.048), so its bound is three times the widest spread seen"},
	{name: "sim_ns", unit: "ns", better: "lower", bound: 0.05,
		doc: "simulated time of the modelled system (deterministic for a seed)"},
	{name: "messages", unit: "count", better: "lower", bound: 0.05,
		doc: "coherence messages delivered (serve-slo: reliable-transport data frames), deterministic for a seed"},
	{name: "ok_pct", unit: "%", better: "higher", bound: 0.01,
		doc: "operations that finished and passed their output check, as a share of those attempted"},
}

// perLayer are reported by every traced run. A layer a workload does
// not call reports 0. Times are self times: a span's duration minus the
// spans the benchmark opened inside it.
var perLayer = []def{
	{name: "workload.gen_s", unit: "s", better: "lower", moves: "host_user_s", on: "paper-sim",
		doc: "access generation the machine requests (AppendAccesses through the seeded wrapper)"},
	{name: "machine.new_s", unit: "s", better: "lower", moves: "setup_s", on: "paper-sim",
		doc: "machine.New"},
	{name: "machine.run_s", unit: "s", better: "lower", moves: "host_user_s", on: "paper-sim,scale-1024",
		doc: "machine.Run minus observer and access-generation time: the engine, network, transport and Stache handlers"},
	{name: "machine.run_alloc_mib", unit: "MiB", better: "lower", moves: "alloc_mib", on: "paper-sim,scale-1024",
		doc: "heap bytes allocated during machine.Run"},
	{name: "trace.record_s", unit: "s", better: "lower", moves: "host_user_s", on: "paper-sim",
		doc: "trace.Recorder observer calls"},
	{name: "trace.encode_s", unit: "s", better: "lower", moves: "host_user_s", on: "paper-sim",
		doc: "trace.Write of the captured traces, timed after the operation into a discarding writer"},
	{name: "tracecache.store_s", unit: "s", better: "lower", moves: "host_user_s", on: "paper-sim",
		doc: "tracecache.Cache.Store: encode, fsync, rename"},
	{name: "trace.stream_write_s", unit: "s", better: "lower", moves: "host_user_s", on: "scale-1024",
		doc: "StreamRecorder observer calls and Close"},
	{name: "trace.stream_read_s", unit: "s", better: "lower", moves: "host_user_s", on: "scale-1024",
		doc: "NewStreamReader and RecordSource.Next inside EvaluateStream"},
	{name: "trace.stream_mib", unit: "MiB", better: "lower", moves: "alloc_mib", on: "scale-1024",
		doc: "size of the streamed CTRC captures"},
	{name: "sim.events", unit: "count", better: "lower", moves: "host_user_s", on: "paper-sim,scale-1024",
		doc: "events the engine fired (Engine.Fired)"},
	{name: "sim.events_per_message", unit: "ratio", better: "lower", moves: "host_user_s", on: "paper-sim,scale-1024",
		doc: "events fired per coherence message injected"},
	{name: "network.messages", unit: "count", better: "lower", moves: "sim_ns", on: "paper-sim,scale-1024",
		doc: "coherence messages injected (Network.Stats)"},
	{name: "network.data_messages", unit: "count", better: "lower", moves: "sim_ns", on: "paper-sim,scale-1024",
		doc: "messages carrying a block"},
	{name: "stache.cache_misses", unit: "count", better: "lower", moves: "sim_ns", on: "paper-sim,scale-1024",
		doc: "load, store and upgrade misses over all caches"},
	{name: "stache.dir_transactions", unit: "count", better: "lower", moves: "host_user_s", on: "paper-sim,scale-1024",
		doc: "directory transactions"},
	{name: "stache.dir_queued", unit: "count", better: "lower", moves: "sim_ns", on: "paper-sim,scale-1024",
		doc: "requests that waited on a busy blocking directory"},
	{name: "stache.invals_sent", unit: "count", better: "lower", moves: "messages", on: "paper-sim,scale-1024",
		doc: "invalidations the directories sent"},
	{name: "stache.dir_overflows", unit: "count", better: "lower", moves: "messages", on: "scale-1024",
		doc: "limited-pointer sharer-set overflows"},
	{name: "stache.wide_invals", unit: "count", better: "lower", moves: "messages", on: "scale-1024",
		doc: "invalidations fanned out on an inexact sharer set"},
	{name: "tracecache.load_s", unit: "s", better: "lower", moves: "setup_s", on: "paper-tables",
		doc: "Suite.Trace loading each trace from the cache"},
	{name: "tracecache.load_alloc_mib", unit: "MiB", better: "lower", moves: "peak_rss_mib", on: "paper-tables",
		doc: "heap bytes allocated by the trace-cache load"},
	{name: "trace.partition_s", unit: "s", better: "lower", moves: "host_user_s", on: "paper-tables",
		doc: "Trace.Partition for the sharded evaluations"},
	{name: "experiments.table5_s", unit: "s", better: "lower", moves: "host_user_s", on: "paper-tables",
		doc: "experiments.Table5: 20 sharded evaluations on the worker pool"},
	{name: "experiments.table6_s", unit: "s", better: "lower", moves: "host_user_s", on: "paper-tables",
		doc: "experiments.Table6: 30 sharded evaluations on the worker pool"},
	{name: "stats.evaluate_s", unit: "s", better: "lower", moves: "host_user_s", on: "paper-tables",
		doc: "stats.Evaluate, depth 1, one call per trace at the tables' pool width, timed after the operation"},
	{name: "stats.records", unit: "count", better: "lower", moves: "host_user_s", on: "paper-tables",
		doc: "records those evaluations walked"},
	{name: "core.ns_per_record", unit: "ns", better: "lower", moves: "host_user_s", on: "paper-tables",
		doc: "stats.evaluate_s per record"},
	{name: "stats.evaluate_alloc_mib", unit: "MiB", better: "lower", moves: "allocs", on: "paper-tables",
		doc: "heap bytes allocated by those evaluations"},
	{name: "stats.evaluate_stream_s", unit: "s", better: "lower", moves: "host_user_s", on: "scale-1024",
		doc: "stats.EvaluateStream minus its record reads"},
	{name: "core.pht_entries", unit: "count", better: "lower", moves: "alloc_mib", on: "paper-tables",
		doc: "Table 7's PHT entries over all depth-1 predictors"},
	{name: "core.mhr_entries", unit: "count", better: "lower", moves: "alloc_mib", on: "paper-tables",
		doc: "Table 7's MHR entries over all depth-1 predictors"},
	{name: "core.accuracy_pct", unit: "%", better: "higher", moves: "none (modelled)", on: "paper-tables,scale-1024,serve-slo",
		doc: "depth-1 overall Cosmos accuracy averaged over apps (serve-slo: hits over applied observations, depth 2)"},
	{name: "serve.new_s", unit: "s", better: "lower", moves: "setup_s", on: "serve-slo",
		doc: "serve.NewCluster"},
	{name: "serve.run_s", unit: "s", better: "lower", moves: "host_user_s", on: "serve-slo",
		doc: "serving before the kill and after the restore"},
	{name: "serve.kill_s", unit: "s", better: "lower", moves: "host_user_s", on: "serve-slo",
		doc: "Cluster.Kill: abandon the deployment and tear the WAL tail"},
	{name: "serve.recover_s", unit: "s", better: "lower", moves: "host_user_s", on: "serve-slo",
		doc: "Cluster.Restart: recover the store, replay the WAL, resync the clients"},
	{name: "serve.checkpoints", unit: "count", better: "lower", moves: "host_user_s", on: "serve-slo",
		doc: "snapshots written"},
	{name: "serve.store_mib", unit: "MiB", better: "lower", moves: "host_user_s", on: "serve-slo",
		doc: "size of the store directory at the end"},
	{name: "serve.applied", unit: "count", better: "higher", moves: "ok_pct", on: "serve-slo",
		doc: "observations applied, WAL replay included"},
	{name: "serve.shed", unit: "count", better: "lower", moves: "ok_pct", on: "serve-slo",
		doc: "entries shed on queue overflow"},
	{name: "serve.timed_out", unit: "count", better: "lower", moves: "ok_pct", on: "serve-slo",
		doc: "entries that passed their deadline"},
	{name: "serve.dropped", unit: "count", better: "lower", moves: "ok_pct", on: "serve-slo",
		doc: "observations dropped on a lagging stream"},
	{name: "serve.max_queue_depth", unit: "count", better: "lower", moves: "serve.p99_latency_ns", on: "serve-slo",
		doc: "ingest-queue high-water mark"},
	{name: "serve.p50_latency_ns", unit: "ns", better: "lower", moves: "none (modelled)", on: "serve-slo",
		doc: "median observation-to-response latency, simulated time"},
	{name: "serve.p99_latency_ns", unit: "ns", better: "lower", moves: "none (modelled)", on: "serve-slo",
		doc: "99th-percentile observation-to-response latency, simulated time"},
	{name: "reliable.retransmits", unit: "count", better: "lower", moves: "serve.p99_latency_ns", on: "serve-slo",
		doc: "timeout-driven re-sends"},
	{name: "reliable.dups_discarded", unit: "count", better: "lower", moves: "serve.p99_latency_ns", on: "serve-slo",
		doc: "duplicate frames discarded"},
	{name: "bench.traced_host_s", unit: "s", better: "lower", moves: "host_user_s", on: "all",
		doc: "wall duration of the traced operation the layer figures come from (the traced repetition with the shortest operation)"},
	{name: "bench.glue_pct", unit: "%", better: "lower", moves: "none", on: "all",
		doc: "share of bench.traced_host_s that no layer span covers: the benchmark's own glue between layer calls, the reconciliation of the layer self times against the traced operation"},
	{name: "bench.trace_overhead_s", unit: "s", better: "lower", moves: "none", on: "all",
		doc: "wall time of the traced repetitions' operation minus the untraced ones', same run, each summed over units of their medians"},
	{name: "bench.wall_s", unit: "s", better: "lower", moves: "none", on: "all",
		doc: "host wall seconds of the operation, summed like host_user_s from the untraced repetitions' units: shows blocking, disk waits and lost parallelism that CPU time cannot"},
	{name: "bench.sys_s", unit: "s", better: "lower", moves: "none", on: "all",
		doc: "host system CPU seconds of the operation (kernel work: file writes, fsync, page faults), summed like host_user_s"},
	{name: "bench.parallelism", unit: "ratio", better: "higher", moves: "none", on: "paper-tables",
		doc: "CPU seconds (user+system) per wall second of the operation, median of the untraced repetitions; paper-tables' pool of 2 should hold it near 2"},
}

// unitOf returns the unit of an end-to-end or per-layer metric.
func unitOf(name string) string {
	for _, list := range [][]def{endToEnd, perLayer} {
		for _, d := range list {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}
