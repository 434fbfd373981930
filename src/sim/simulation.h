// The whole-pipeline deterministic simulation: one seed fully determines a
// run of workload -> kernel tracepoints -> DioTracer -> QueueTransport ->
// RetryingTransport -> FanOut{BulkClient, TraceRecordSink} -> ElasticStore ->
// FilePathCorrelator, executed thread-free under a SimScheduler and two
// virtual clocks:
//
//  * the workload clock (the kernel's clock) is pinned per operation
//    (base + op_index * delta), so every event document is byte-identical
//    across schedules — which is what makes golden-run parity a set check;
//  * the sim clock paces the scheduler quantum, retry backoff, and the
//    bulk sink's network latency, so timing-dependent code runs in virtual
//    time.
//
// RunSimulation(seed) executes:
//   1. a serial golden run (round-robin schedule, no faults) whose spool is
//      the reference document set and whose correlator output is the
//      reference tag -> path dictionary;
//   2. the faulty run TWICE with the seeded random schedule and the seed's
//      FaultPlan, asserting the two schedule digests are byte-identical;
//   3. a restart: the faulty spool is replayed (deduped) into a restored
//      index — the recovery path after the in-run backend crash;
//   4. the invariant suite: per-stage ledgers, cross-stage conservation,
//      tracer counter consistency, exactly-once presence in the restored
//      index, and parity of documents and correlation against the golden
//      run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "sim/fault_plan.h"
#include "tracer/tracer.h"
#include "transport/transport.h"

namespace dio::sim {

struct SimOptions {
  std::uint64_t seed = 1;
  // Workload size: `num_tasks` simulated application threads, each issuing
  // `ops_per_task` syscalls from its own seeded generator into its own
  // directory (so documents do not depend on cross-task interleaving).
  std::size_t num_tasks = 2;
  std::size_t ops_per_task = 120;
  // Recorded-trace workload: when set, every task replays this binary trace
  // (see trace/reader.h) through a trace::SyscallIssuer instead of running
  // the seeded random op generator — `ops_per_task` is ignored. Recorded
  // paths are rewritten into the task's directory and pre-created before
  // tracing starts, and namespace ops are skipped, so the inode-allocation
  // determinism contract (every inode allocated before tracer.Start())
  // holds exactly as in random mode and all golden-parity invariants apply
  // unchanged to replayed workloads.
  std::string trace_path;
  // Fault plan override; empty = FaultPlan::FromSeed(seed).
  std::string fault_spec;
  // Directory for the runs' spool files, trace v1 (created by the caller).
  std::string spool_dir;
  // Keep the full schedule trace of each run (memory-heavy; repro dumps).
  bool keep_trace = false;
  // Ingest route for the run's ElasticStore: true = typed wire->column
  // ingest (the default production path), false = the JSON-oracle route
  // (wire records materialized to documents at the store boundary). Every
  // invariant must hold identically on both.
  bool typed_ingest = true;
  // Sealed-segment size for the run's stores (backend.segment_docs, >= 1).
  // Small values force many seal boundaries at sim scale. In cluster mode
  // the post-run restore oracle always keeps one never-sealed tail so the
  // scattered-vs-restored parity check doubles as a sealed-vs-unsealed
  // oracle.
  std::size_t segment_docs = 32;
  // Cluster mode: > 0 replaces the single backend store with a
  // `cluster_nodes`-node ClusterRouter behind a ClusterBulkSink; the fault
  // space gains nodecrash/partition and the invariant suite gains
  // cluster-wide ledger conservation, replica convergence, and scattered
  // vs single-store golden query parity. 0 = the original single store.
  std::size_t cluster_nodes = 0;
  std::size_t cluster_replicas = 1;
  // AckLevel name: primary | quorum | all.
  std::string cluster_ack = "quorum";
  // QueryFanout name: serial | parallel. The harvest digests the query mix
  // through BOTH routes and asserts byte-parity, so this only selects which
  // route the in-run analysis (correlator) takes.
  std::string cluster_fanout = "parallel";
  // Width of the router's query pool. The pool is idle during the
  // scheduled run (nothing queries mid-run), so the schedule digest is
  // unaffected — but the harvest-time digests exercise the real pooled
  // scatter, making the parallel-vs-serial parity invariant non-vacuous.
  std::size_t cluster_query_threads = 2;
  // Per-shard replay cushion (cluster.log_retain_batches). 0 — instead of
  // the production default — so compaction actually fires at sim scale and
  // the snapshot catch-up path is exercised by rejoins.
  std::size_t cluster_log_retain = 0;
};

// Observed outcome of one simulated run (golden or faulty).
struct RunArtifacts {
  bool completed = false;  // scheduler reached all-done before max_steps
  std::uint64_t schedule_digest = 0;
  std::uint64_t steps = 0;
  std::string trace;  // only when keep_trace

  std::vector<transport::StageStats> stages;
  tracer::TracerStats tracer;
  std::uint64_t acks_dropped_batches = 0;
  std::uint64_t acks_dropped_events = 0;
  bool crashed = false;
  std::string spool_path;
  std::string session;
};

struct SimResult {
  FaultPlan plan;
  std::string plan_spec;
  std::vector<std::string> violations;  // empty = all invariants held

  std::uint64_t schedule_digest = 0;  // faulty run
  std::uint64_t steps = 0;

  // Which fault effects the run actually exhibited (a class being in the
  // plan does not guarantee its loss fired; the explorer reports both).
  bool saw_ring_drop = false;
  bool saw_queue_drop = false;
  bool saw_transport_fault = false;
  bool saw_dead_letter = false;
  bool saw_ack_drop = false;
  bool saw_crash = false;
  bool saw_node_crash = false;  // cluster mode: a node actually died
  bool saw_partition = false;   // cluster mode: a partition window opened
  bool saw_lag = false;         // cluster mode: a replication throttle opened
  bool saw_cluster_reject = false;  // an ingest was refused (ack level)

  std::uint64_t spool_lines = 0;     // faulty spool, including duplicates
  std::uint64_t spool_unique = 0;    // distinct documents in the spool
  std::uint64_t restored_docs = 0;   // docs in the replayed (restored) index
  std::uint64_t cluster_docs = 0;    // cluster mode: docs in the cluster index
  std::uint64_t cluster_duplicates = 0;  // re-driven batches deduped by fp
  // Cluster replication-log accounting at harvest (post heal + settle):
  // entries ever appended, dropped by compaction, still retained, and
  // snapshot catch-ups performed by rejoins stranded below a compacted base.
  std::uint64_t cluster_log_appended = 0;
  std::uint64_t cluster_log_compacted = 0;
  std::uint64_t cluster_log_retained = 0;
  std::uint64_t cluster_snapshot_catchups = 0;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  // "--seed=X --fault-plan=Y" — replays this exact run.
  [[nodiscard]] std::string ReproLine(std::uint64_t seed) const;
};

// Runs golden + double faulty run + restore + invariant suite for one seed.
// Only infrastructure errors (unwritable spool dir, bad fault_spec) surface
// as a non-OK status; invariant violations land in SimResult::violations.
Expected<SimResult> RunSimulation(const SimOptions& options);

}  // namespace dio::sim
