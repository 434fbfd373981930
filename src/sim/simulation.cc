#include "sim/simulation.h"

#include <limits>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "backend/bulk_client.h"
#include "backend/correlation.h"
#include "backend/store.h"
#include "cluster/cluster_sink.h"
#include "cluster/router.h"
#include "common/clock.h"
#include "common/random.h"
#include "oskernel/kernel.h"
#include "sim/scheduler.h"
#include "sim/invariants.h"
#include "trace/load.h"
#include "trace/reader.h"
#include "trace/replay.h"
#include "trace/writer.h"
#include "tracer/tracer.h"
#include "transport/fan_out_sink.h"
#include "transport/queue_transport.h"
#include "transport/retrying_transport.h"

namespace dio::sim {

namespace {

// Workload-clock layout: task t's op i always executes at
// kTimeBase + t * kTaskTimeStride + i * kOpTimeDelta, regardless of how the
// scheduler interleaves tasks. Timestamps (and therefore event documents
// and file tags) are schedule-invariant, which is what lets the golden
// parity checks compare document SETS across different schedules.
constexpr Nanos kTimeBase = kSecond;
constexpr Nanos kTaskTimeStride = 64 * kSecond;
constexpr Nanos kOpTimeDelta = kMicrosecond;

// AckLossSink: sim-only decorator modeling "the bulk request was indexed
// but the acknowledgement was lost on the way back". Every Nth successful
// downstream delivery is reported upstream as Unavailable AFTER the
// downstream indexed it, so the retry stage re-drives an already-indexed
// batch — the duplicate-delivery fault class the exactly-once invariant is
// about.
class AckLossSink final : public transport::Transport {
 public:
  AckLossSink(std::unique_ptr<transport::Transport> downstream,
              std::size_t drop_every)
      : downstream_(std::move(downstream)), drop_every_(drop_every) {
    stats_.stage = "ackloss";
  }

  Status Submit(transport::EventBatch batch) override {
    const std::size_t batch_events = batch.size();
    stats_.batches_in += 1;
    stats_.events_in += batch_events;
    Status status = downstream_->Submit(std::move(batch));
    if (!status.ok()) return status;
    ++delivered_;
    if (drop_every_ > 0 && delivered_ % drop_every_ == 0) {
      acks_dropped_batches_ += 1;
      acks_dropped_events_ += batch_events;
      return Unavailable("ack lost after delivery");
    }
    stats_.batches_out += 1;
    stats_.events_out += batch_events;
    return Status::Ok();
  }

  void Flush() override { downstream_->Flush(); }

  void CollectStats(std::vector<transport::StageStats>* out) const override {
    out->push_back(stats_);
    downstream_->CollectStats(out);
  }

  [[nodiscard]] std::string_view name() const override { return "ackloss"; }

  [[nodiscard]] std::uint64_t acks_dropped_batches() const {
    return acks_dropped_batches_;
  }
  [[nodiscard]] std::uint64_t acks_dropped_events() const {
    return acks_dropped_events_;
  }

 private:
  std::unique_ptr<transport::Transport> downstream_;
  std::size_t drop_every_;
  transport::StageStats stats_;
  std::uint64_t delivered_ = 0;
  std::uint64_t acks_dropped_batches_ = 0;
  std::uint64_t acks_dropped_events_ = 0;
};

// Adapts the transport chain's head stage to the tracer's EventSink.
class HeadSink final : public tracer::EventSink {
 public:
  explicit HeadSink(transport::Transport* head) : head_(head) {}

  void IndexBatch(std::vector<Json> documents) override {
    transport::EventBatch batch;
    batch.documents = std::move(documents);
    (void)head_->Submit(std::move(batch));
  }
  void IndexEvents(std::string_view session,
                   std::vector<tracer::Event> events) override {
    transport::EventBatch batch;
    batch.session = std::string(session);
    batch.events = std::move(events);
    (void)head_->Submit(std::move(batch));
  }
  void IndexWire(std::string_view session,
                 std::vector<tracer::WireEvent> records) override {
    // Typed batches enter the sim chain binary, exactly as in the service:
    // the ledger, spool, and exactly-once invariants must hold for both
    // ingest routes.
    transport::EventBatch batch;
    batch.session = std::string(session);
    batch.wire = std::move(records);
    (void)head_->Submit(std::move(batch));
  }
  void Flush() override { head_->Flush(); }

 private:
  transport::Transport* head_;
};

// One simulated application thread: its own pid/tid, its own directory
// (file tags never depend on the other task), its own op generator.
struct WorkloadTask {
  std::size_t index = 0;
  os::Pid pid = os::kNoPid;
  os::Tid tid = os::kNoTid;
  Random rng{0};
  std::size_t op_index = 0;
  std::string dir;
  std::vector<std::pair<os::Fd, std::string>> open_fds;
  // Trace mode only: re-issues the recorded stream for this task. Each
  // issuer consumes an identical event sequence, so its fd map — and
  // therefore which records it executes — is schedule-independent.
  std::unique_ptr<trace::SyscallIssuer> issuer;
};

// Everything a single run (golden or faulty) produced, for the invariant
// suite in RunSimulation.
struct RunData {
  RunArtifacts art;
  std::uint64_t total_ops = 0;
  std::vector<std::string> spool_docs;  // canonical dumps, file order
  std::set<std::string> spool_unique;
  bool restored = false;  // restore attempted (spool had documents)
  trace::TraceLoadStats restore;
  backend::IndexStats live_stats;
  bool have_live_stats = false;
  backend::IndexStats restored_stats;
  std::map<std::string, std::size_t> restored_key_counts;
  std::set<std::string> restored_canonical;
  std::map<std::string, std::string> tag_to_path;
  // CheckCorrelated violations, for every correlation this run made.
  std::vector<std::string> correlation_violations;

  // Cluster-mode harvest (options.cluster_nodes > 0).
  bool node_crashed = false;     // the nodecrash fault actually fired
  bool partitioned = false;      // the partition window actually opened
  bool lagged = false;           // the lag (throttle) window actually opened
  std::uint64_t cluster_acked_batches = 0;
  std::uint64_t cluster_acked_events = 0;
  std::uint64_t cluster_duplicate_batches = 0;
  std::uint64_t cluster_rejected_batches = 0;
  std::uint64_t cluster_rejected_events = 0;
  std::uint64_t cluster_pending_applies = 0;
  std::vector<std::string> convergence;  // VerifyConvergence violations
  backend::IndexStats cluster_stats;
  bool have_cluster_stats = false;
  std::map<std::string, std::size_t> cluster_key_counts;
  std::set<std::string> cluster_canonical;
  std::uint64_t cluster_log_appended = 0;
  std::uint64_t cluster_log_compacted = 0;
  std::uint64_t cluster_log_retained = 0;
  std::uint64_t cluster_snapshot_catchups = 0;
  // Serialized query-mix results over the cluster and the restored store
  // (the scattered-vs-single-store golden parity check). The cluster digest
  // is taken through both fan-out routes: byte-equality of the two is the
  // parallel-scatter parity invariant.
  std::string cluster_query_digest;
  std::string cluster_query_digest_serial;
  std::string restored_query_digest;
};

// Dedup/identity key of one event document. Unique per event by
// construction: time_enter is the workload clock pinned per (task, op).
std::string EventKey(const Json& doc) {
  return std::to_string(doc.GetInt("tid")) + "|" +
         std::to_string(doc.GetInt("time_enter")) + "|" +
         doc.GetString("syscall");
}

// Serializes an AggResult (metrics plus buckets, recursively) for byte
// comparison between backends.
void AppendAgg(const backend::AggResult& agg, std::string* out) {
  out->append("metrics=").append(agg.metrics.Dump()).push_back('\n');
  for (const backend::AggBucket& bucket : agg.buckets) {
    out->append("bucket ").append(bucket.key.Dump());
    out->append(" n=").append(std::to_string(bucket.doc_count));
    out->push_back('\n');
    for (const auto& [name, sub] : bucket.sub) {
      out->append("sub ").append(name).push_back('\n');
      AppendAgg(sub, out);
    }
  }
}

// A fixed query mix — full scan with docids, a sorted+paged search, counts,
// a nested terms/stats aggregation, and percentiles — serialized over any
// QueryBackend. The cluster invariant compares the digest over the
// scatter/gather router against the digest over a single store holding the
// same documents: byte-identical means scattered execution is
// indistinguishable from one store.
Expected<std::string> QueryMixDigest(const backend::QueryBackend& backend,
                                     const std::string& index) {
  std::string out;
  backend::SearchRequest all;
  all.size = std::numeric_limits<std::size_t>::max();
  auto hits = backend.Search(index, all);
  if (!hits.ok()) return hits.status();
  out += "total=" + std::to_string(hits->total) + "\n";
  for (const backend::Hit& hit : hits->hits) {
    out += std::to_string(hit.id) + "|" + hit.source.Dump() + "\n";
  }
  backend::SearchRequest sorted;
  sorted.query = backend::Query::Term("syscall", Json("write"));
  sorted.sort = {{"ret", false}, {"time_enter", true}};
  sorted.from = 2;
  sorted.size = 40;
  auto page = backend.Search(index, sorted);
  if (!page.ok()) return page.status();
  out += "sorted_total=" + std::to_string(page->total) + "\n";
  for (const backend::Hit& hit : page->hits) {
    out += hit.source.Dump() + "\n";
  }
  const backend::Query counts[] = {
      backend::Query::MatchAll(),
      backend::Query::Exists("file_tag"),
      backend::Query::Range("ret", 0, std::nullopt),
  };
  for (const backend::Query& query : counts) {
    auto count = backend.Count(index, query);
    if (!count.ok()) return count.status();
    out += "count=" + std::to_string(*count) + "\n";
  }
  auto terms = backend.Aggregate(
      index, backend::Query::MatchAll(),
      backend::Aggregation::Terms("syscall").SubAgg(
          "ret_stats", backend::Aggregation::Stats("ret")));
  if (!terms.ok()) return terms.status();
  AppendAgg(*terms, &out);
  auto pct = backend.Aggregate(
      index, backend::Query::MatchAll(),
      backend::Aggregation::Percentiles("ret", {50.0, 95.0, 99.0}));
  if (!pct.ok()) return pct.status();
  AppendAgg(*pct, &out);
  // A projected page sorted on a field the projection omits: the cluster
  // router must add the sort field for its merge and drop it again.
  backend::SearchRequest projected;
  projected.query = backend::Query::Exists("file_tag");
  projected.sort = {{"time_enter", false}};
  projected.from = 1;
  projected.size = 30;
  projected.source = {"syscall", "ret", "file_tag"};
  auto projected_page = backend.Search(index, projected);
  if (!projected_page.ok()) return projected_page.status();
  out += "projected_total=" + std::to_string(projected_page->total) + "\n";
  for (const backend::Hit& hit : projected_page->hits) {
    out += std::to_string(hit.id) + "|" + hit.source.Dump() + "\n";
  }
  return out;
}

// Invariants of one finished correlation: every tagged event carries
// exactly the path its tag resolved to (none when the tag is unknown), and
// when `all_typed` — typed ingest with no row re-bulked as JSON — every row
// is still typed, because correlation writes file_path into the columns in
// place. Violations are appended to `violations`.
Status CheckCorrelated(const backend::QueryBackend& backend,
                       const std::string& index,
                       const backend::FilePathUpdate::Table& tag_to_path,
                       bool all_typed, std::vector<std::string>* violations) {
  if (all_typed) {
    auto stats = backend.Stats(index);
    if (!stats.ok()) return stats.status();
    if (stats->typed_rows != stats->doc_count) {
      violations->push_back(
          "correlation converted rows: typed_rows " +
          std::to_string(stats->typed_rows) + " != doc_count " +
          std::to_string(stats->doc_count) + " on " + index);
    }
  }
  backend::SearchRequest tagged;
  tagged.query = backend::Query::Exists("file_tag");
  tagged.size = std::numeric_limits<std::size_t>::max();
  tagged.source = {"file_tag", "file_path"};
  auto hits = backend.Search(index, tagged);
  if (!hits.ok()) return hits.status();
  for (const backend::Hit& hit : hits->hits) {
    const std::string tag = hit.source.GetString("file_tag");
    auto it = tag_to_path.find(tag);
    const Json* path = hit.source.Find("file_path");
    const bool ok = it == tag_to_path.end()
                        ? path == nullptr
                        : path != nullptr && path->is_string() &&
                              path->as_string() == it->second;
    if (!ok) {
      violations->push_back("event " + std::to_string(hit.id) + " with tag " +
                            tag + " has file_path " +
                            (path == nullptr ? "<none>" : path->Dump()) +
                            " on " + index);
    }
  }
  return Status::Ok();
}

// Issues exactly one syscall for `task` at its pinned virtual time.
void DoOneOp(os::Kernel& kernel, ManualClock& workload_clock,
             WorkloadTask& task) {
  workload_clock.SetNanos(kTimeBase +
                          static_cast<Nanos>(task.index) * kTaskTimeStride +
                          static_cast<Nanos>(task.op_index) * kOpTimeDelta);
  os::ScopedTask bound(kernel, task.pid, task.tid);
  os::Kernel& k = kernel;
  std::uint64_t roll = task.rng.Uniform(10);
  if (task.open_fds.empty() && roll != 8) roll = 0;
  if (task.open_fds.size() >= 6 && roll <= 2) roll = 9;
  switch (roll) {
    case 0:
    case 1: {
      const std::string path =
          task.dir + "/f" + std::to_string(task.rng.Uniform(6));
      const std::int64_t fd = k.sys_openat(
          os::kAtFdCwd, path,
          os::openflag::kCreate | os::openflag::kReadWrite, 0644);
      if (fd >= 0) task.open_fds.emplace_back(static_cast<os::Fd>(fd), path);
      break;
    }
    case 2: {
      const std::string path =
          task.dir + "/c" + std::to_string(task.rng.Uniform(4));
      const std::int64_t fd = k.sys_creat(path, 0644);
      if (fd >= 0) task.open_fds.emplace_back(static_cast<os::Fd>(fd), path);
      break;
    }
    case 3:
    case 4: {
      const auto pick = task.rng.Uniform(task.open_fds.size());
      const std::string data(32 + task.rng.Uniform(96), 'x');
      k.sys_write(task.open_fds[pick].first, data);
      break;
    }
    case 5: {
      const auto pick = task.rng.Uniform(task.open_fds.size());
      std::string buf;
      k.sys_read(task.open_fds[pick].first, &buf, 64);
      break;
    }
    case 6: {
      const auto pick = task.rng.Uniform(task.open_fds.size());
      k.sys_lseek(task.open_fds[pick].first, 0, os::kSeekSet);
      break;
    }
    case 7: {
      const auto pick = task.rng.Uniform(task.open_fds.size());
      k.sys_fsync(task.open_fds[pick].first);
      break;
    }
    case 8: {
      os::StatBuf st;
      k.sys_stat(task.dir, &st);
      break;
    }
    default: {
      const auto pick = task.rng.Uniform(task.open_fds.size());
      k.sys_close(task.open_fds[pick].first);
      task.open_fds.erase(task.open_fds.begin() +
                          static_cast<std::ptrdiff_t>(pick));
      break;
    }
  }
  ++task.op_index;
}

// Executes one full run: scheduler-driven pipeline, teardown, restore (for
// faulty runs), correlation, and harvest of everything the invariant suite
// needs. `golden` selects the serial round-robin schedule; the caller
// passes an empty plan with it.
Expected<RunData> RunOnce(const SimOptions& options, const FaultPlan& plan,
                          bool golden, const std::string& label) {
  RunData data;
  data.total_ops = options.num_tasks * options.ops_per_task;

  // Trace mode: decode the recorded stream once and index every distinct
  // recorded path (path and path2, first-use order). Each task replays the
  // same stream into its own directory — recorded path p becomes
  // <task.dir>/p<id> — and all of those files are pre-created below, so
  // replayed opens allocate no inodes mid-run. Skipped records (namespace
  // ops, unmappable fds) still advance the task's op index, which is why
  // total_ops is the issuable count, not the record count.
  const bool trace_mode = !options.trace_path.empty();
  std::vector<tracer::WireEvent> trace_events;
  std::map<std::string, std::size_t> trace_path_ids;
  if (trace_mode) {
    auto decoded = trace::ReadTraceFile(options.trace_path);
    if (!decoded.ok()) return decoded.status();
    trace_events = std::move(*decoded);
    for (const tracer::WireEvent& event : trace_events) {
      for (std::string path : {std::string(event.path, event.path_len),
                               std::string(event.path2, event.path2_len)}) {
        if (!path.empty()) {
          trace_path_ids.emplace(std::move(path), trace_path_ids.size());
        }
      }
    }
    data.total_ops =
        options.num_tasks *
        trace::CountIssuableEvents(trace_events, /*skip_namespace_ops=*/true);
  }
  const std::size_t ops_limit =
      trace_mode ? trace_events.size() : options.ops_per_task;

  const std::string session = "sim-run";
  data.art.session = session;
  data.art.spool_path = options.spool_dir + "/seed-" +
                        std::to_string(options.seed) + "-" + label +
                        ".trace";

  ManualClock workload_clock(kTimeBase);
  ManualClock sim_clock(0);

  os::KernelOptions kernel_options;
  kernel_options.num_cpus = 2;
  os::Kernel kernel(kernel_options, &workload_clock);
  auto device = kernel.MountDevice("/data", 7340032, [] {
    os::BlockDeviceOptions device_options;
    device_options.real_sleep = false;
    return device_options;
  }());
  if (!device.ok()) return device.status();

  backend::ElasticStoreOptions store_options;
  store_options.typed_ingest = options.typed_ingest;
  store_options.segment_docs = options.segment_docs;
  // In cluster mode `store` only serves the post-run spool restore (the
  // single-store oracle the scattered query results are compared against);
  // it always keeps one never-sealed tail so the restored-vs-scattered
  // parity invariant is also a sealed-vs-unsealed segments oracle. The live
  // backend is the router's node stores, which take the configured segment
  // size.
  backend::ElasticStoreOptions oracle_options = store_options;
  if (options.cluster_nodes > 0) {
    oracle_options.segment_docs = std::numeric_limits<std::size_t>::max();
  }
  backend::ElasticStore store(oracle_options);

  const bool cluster_mode = options.cluster_nodes > 0;
  std::unique_ptr<cluster::ClusterRouter> router;
  cluster::ClusterBulkSink* cluster_sink_ptr = nullptr;

  // Transport chain, bottom-up: terminal sink (bulk client, or the cluster
  // sink in cluster mode) -> ackloss -> {.., spool} fanout -> retry ->
  // queue. The queue and all waits run in manual/virtual-time mode so the
  // scheduler is the only source of concurrency.
  std::unique_ptr<transport::Transport> terminal;
  if (cluster_mode) {
    cluster::ClusterOptions cluster_options;
    cluster_options.nodes = options.cluster_nodes;
    cluster_options.replicas = options.cluster_replicas;
    auto ack = cluster::AckLevelFromString(options.cluster_ack);
    if (!ack.ok()) return ack.status();
    cluster_options.ack = *ack;
    auto fanout = cluster::QueryFanoutFromString(options.cluster_fanout);
    if (!fanout.ok()) return fanout.status();
    cluster_options.query_fanout = *fanout;
    cluster_options.query_threads = options.cluster_query_threads;
    cluster_options.log_retain_batches = options.cluster_log_retain;
    cluster_options.store = store_options;
    router = std::make_unique<cluster::ClusterRouter>(cluster_options);
    auto sink = std::make_unique<cluster::ClusterBulkSink>(
        router.get(), session, 50 * kMicrosecond, &sim_clock);
    cluster_sink_ptr = sink.get();
    terminal = std::move(sink);
  } else {
    backend::BulkClientOptions bulk_options;
    bulk_options.network_latency_ns = 50 * kMicrosecond;
    bulk_options.refresh_every_batches = 4;
    terminal = std::make_unique<backend::BulkClient>(&store, session,
                                                     bulk_options, &sim_clock);
  }
  auto ack_loss = std::make_unique<AckLossSink>(
      std::move(terminal),
      plan.Has(kFaultDuplicateAck) ? plan.dup_ack_every : 0);
  AckLossSink* ack_loss_ptr = ack_loss.get();

  auto spool_sink = trace::TraceRecordSink::Open(data.art.spool_path);
  if (!spool_sink.ok()) return spool_sink.status();

  std::vector<std::unique_ptr<transport::Transport>> children;
  children.push_back(std::move(ack_loss));
  children.push_back(std::move(*spool_sink));
  auto fanout = std::make_unique<transport::FanOutSink>(std::move(children));

  transport::RetryOptions retry_options;
  retry_options.max_attempts = plan.retry_max_attempts;
  retry_options.initial_backoff_ns = 100 * kMicrosecond;
  retry_options.max_backoff_ns = 2 * kMillisecond;
  retry_options.fault_rate = plan.Has(kFaultTransport) ? plan.fault_rate : 0.0;
  retry_options.fault_seed = options.seed ^ 0x5EEDULL;
  auto retry = std::make_unique<transport::RetryingTransport>(
      std::move(fanout), retry_options, &sim_clock);

  transport::QueueTransportOptions queue_options;
  queue_options.manual = true;
  if (plan.Has(kFaultQueueDrop)) {
    queue_options.policy = plan.queue_policy;
    queue_options.max_queued_batches = plan.queue_depth;
  }
  auto queue = std::make_unique<transport::QueueTransport>(std::move(retry),
                                                           queue_options);
  transport::QueueTransport* queue_ptr = queue.get();

  HeadSink head(queue_ptr);

  tracer::TracerOptions tracer_options;
  tracer_options.session_name = session;
  tracer_options.manual_consumers = true;
  tracer_options.consumer_threads = 2;
  tracer_options.batch_size = 16;
  tracer_options.flush_interval_ns = 100 * kMicrosecond;
  tracer_options.ring_bytes_per_cpu =
      plan.Has(kFaultRingOverflow) ? 16u * 1024 : 1u << 20;
  tracer::DioTracer tracer(&kernel, &head, tracer_options);

  // Workload tasks. The directory tree and every file the op generator can
  // touch are created serially BEFORE tracing starts: inode numbers are
  // allocated globally in creation order, so creating files during the
  // scheduled run would make inodes (and therefore file tags) depend on the
  // cross-task interleaving and break document parity with the golden run.
  std::vector<WorkloadTask> tasks(options.num_tasks);
  for (std::size_t t = 0; t < options.num_tasks; ++t) {
    WorkloadTask& task = tasks[t];
    task.index = t;
    task.dir = "/data/t" + std::to_string(t);
    task.pid = kernel.CreateProcess("sim-w" + std::to_string(t));
    task.tid = kernel.SpawnThread(task.pid, "sim-w" + std::to_string(t));
    task.rng = Random(options.seed * 1000003ULL + t);
    os::ScopedTask bound(kernel, task.pid, task.tid);
    kernel.sys_mkdir(task.dir, 0755);
    if (trace_mode) {
      // One flat file per distinct recorded path; the id order is the
      // stream's first-use order, so pre-creation order — and therefore
      // inode numbering — is a pure function of the trace.
      for (std::size_t p = 0; p < trace_path_ids.size(); ++p) {
        const std::int64_t fd = kernel.sys_creat(
            task.dir + "/p" + std::to_string(p), 0644);
        if (fd >= 0) kernel.sys_close(static_cast<os::Fd>(fd));
      }
      const std::string dir = task.dir;
      const auto* path_ids = &trace_path_ids;
      task.issuer = std::make_unique<trace::SyscallIssuer>(
          &kernel,
          [dir, path_ids](const std::string& recorded) {
            auto it = path_ids->find(recorded);
            const std::size_t id = it == path_ids->end() ? 0 : it->second;
            return dir + "/p" + std::to_string(id);
          },
          /*bind_tasks=*/false, /*skip_namespace_ops=*/true);
    } else {
      for (int i = 0; i < 6; ++i) {
        const std::int64_t fd = kernel.sys_creat(
            task.dir + "/f" + std::to_string(i), 0644);
        if (fd >= 0) kernel.sys_close(static_cast<os::Fd>(fd));
      }
      for (int i = 0; i < 4; ++i) {
        const std::int64_t fd = kernel.sys_creat(
            task.dir + "/c" + std::to_string(i), 0644);
        if (fd >= 0) kernel.sys_close(static_cast<os::Fd>(fd));
      }
    }
  }
  if (Status started = tracer.Start(); !started.ok()) return started;
  std::size_t global_ops = 0;
  std::size_t workloads_alive = options.num_tasks;
  bool crashed = false;

  bool node_restarted = false;
  bool partition_healed = false;
  bool lag_healed = false;

  const auto issue_op = [&](WorkloadTask& task) {
    if (trace_mode) {
      // Same pinned-clock layout as DoOneOp; skipped records advance the
      // clock too, so timestamps never depend on which records execute.
      workload_clock.SetNanos(
          kTimeBase + static_cast<Nanos>(task.index) * kTaskTimeStride +
          static_cast<Nanos>(task.op_index) * kOpTimeDelta);
      os::ScopedTask bound(kernel, task.pid, task.tid);
      task.issuer->Issue(trace_events[task.op_index]);
      ++task.op_index;
    } else {
      DoOneOp(kernel, workload_clock, task);
    }
    ++global_ops;
    if (plan.Has(kFaultCrashRestart) && !crashed &&
        global_ops >= plan.crash_at_op) {
      // Backend crash: the live index (refreshed and pending docs alike)
      // vanishes; later bulk requests auto-recreate it, and recovery is the
      // post-run spool replay.
      (void)store.DeleteIndex(session);
      crashed = true;
    }
    if (cluster_mode && plan.Has(kFaultNodeCrash)) {
      if (!data.node_crashed && global_ops >= plan.node_crash_at_op) {
        // Node death: store and watermarks wiped, replicas promoted. With
        // down=0 the node stays dead until the end-of-run heal.
        (void)router->CrashNode(plan.crash_node);
        data.node_crashed = true;
      } else if (data.node_crashed && !node_restarted &&
                 plan.node_down_for_ops > 0 &&
                 global_ops >= plan.node_crash_at_op + plan.node_down_for_ops) {
        (void)router->RestartNode(plan.crash_node);
        node_restarted = true;
      }
    }
    if (cluster_mode && plan.Has(kFaultPartition)) {
      if (!data.partitioned && global_ops >= plan.partition_from_op) {
        (void)router->SetReachable(plan.partition_node, false);
        data.partitioned = true;
      } else if (data.partitioned && !partition_healed &&
                 plan.partition_for_ops > 0 &&
                 global_ops >=
                     plan.partition_from_op + plan.partition_for_ops) {
        (void)router->SetReachable(plan.partition_node, true);
        partition_healed = true;
      }
    }
    if (cluster_mode && plan.Has(kFaultLag)) {
      // Replication throttle: the node still serves sync acks and reads,
      // but the async pump skips it, so its backlog — and the shard logs
      // above its watermark — grow until the window closes (or HealAll).
      if (!data.lagged && global_ops >= plan.lag_from_op) {
        (void)router->SetThrottled(plan.lag_node, true);
        data.lagged = true;
      } else if (data.lagged && !lag_healed && plan.lag_for_ops > 0 &&
                 global_ops >= plan.lag_from_op + plan.lag_for_ops) {
        (void)router->SetThrottled(plan.lag_node, false);
        lag_healed = true;
      }
    }
  };

  SchedulerOptions sched_options;
  sched_options.seed = options.seed;
  sched_options.round_robin = golden;
  sched_options.keep_trace = options.keep_trace;
  sched_options.max_steps = 500'000;
  SimScheduler scheduler(&sim_clock, sched_options);

  for (std::size_t t = 0; t < options.num_tasks; ++t) {
    scheduler.AddActor("workload-" + std::to_string(t), [&, t] {
      WorkloadTask& task = tasks[t];
      if (task.op_index >= ops_limit) {
        --workloads_alive;
        return StepResult::kDone;
      }
      std::size_t burst = 1;
      if (plan.Has(kFaultRingOverflow) &&
          global_ops % plan.overflow_every_ops == 0) {
        burst = plan.overflow_burst_ops;
      }
      for (std::size_t i = 0; i < burst && task.op_index < ops_limit; ++i) {
        issue_op(task);
      }
      return StepResult::kWorked;
    });
  }
  const std::size_t workers = tracer.manual_workers();
  std::vector<bool> consumer_done(workers, false);
  for (std::size_t w = 0; w < workers; ++w) {
    scheduler.AddActor("consumer-" + std::to_string(w), [&, w] {
      if (tracer.PumpConsumer(w) > 0) return StepResult::kWorked;
      if (workloads_alive == 0) {
        consumer_done[w] = true;
        return StepResult::kDone;
      }
      return StepResult::kIdle;
    });
  }
  bool queue_sender_done = false;
  scheduler.AddActor("queue-sender", [&] {
    if (queue_ptr->PumpOne()) return StepResult::kWorked;
    bool consumers_done = workloads_alive == 0;
    for (std::size_t w = 0; w < workers && consumers_done; ++w) {
      consumers_done = consumer_done[w];
    }
    if (!consumers_done) return StepResult::kIdle;
    queue_sender_done = true;
    return StepResult::kDone;
  });
  if (cluster_mode) {
    // Drains deferred replica applies concurrently with ingest, exactly as a
    // background replication thread would — interleaved by the scheduler, so
    // its timing is part of the explored schedule space. Finishes when the
    // chain is drained; a backlog blocked by a down/partitioned node is left
    // for the post-heal Settle in the teardown flush.
    scheduler.AddActor("cluster-replicator", [&] {
      if (router->PumpReplication(4) > 0) return StepResult::kWorked;
      return queue_sender_done ? StepResult::kDone : StepResult::kIdle;
    });
  }

  data.art.completed = scheduler.Run();
  data.art.schedule_digest = scheduler.trace_digest();
  data.art.steps = scheduler.steps();
  data.art.trace = scheduler.trace();
  data.art.crashed = crashed;

  // End-of-run heal: partitions close and crashed nodes rejoin BEFORE the
  // teardown flush, so the cluster sink's Flush (Settle + Refresh) can
  // drain the deferred backlog and replay the log into rejoined nodes —
  // the failover-recovery path the convergence invariant then verifies.
  if (cluster_mode) router->HealAll();

  // Teardown: final serial drain of rings and local batches, then the chain
  // flush (queue -> retry -> sinks), after which every accepted batch is
  // delivered or accounted and the live index is refreshed.
  tracer.Stop();

  data.art.tracer = tracer.stats();
  queue_ptr->CollectStats(&data.art.stages);
  data.art.acks_dropped_batches = ack_loss_ptr->acks_dropped_batches();
  data.art.acks_dropped_events = ack_loss_ptr->acks_dropped_events();

  if (auto stats = store.Stats(session); stats.ok()) {
    data.live_stats = *stats;
    data.have_live_stats = true;
  }

  if (cluster_mode) {
    // Harvest the quiescent cluster: counters, convergence, and the full
    // document set plus query-mix digest (both taken BEFORE any correlator
    // pass mutates documents, mirroring the restored-store harvest below).
    data.cluster_acked_batches = router->acked_batches();
    data.cluster_acked_events = router->acked_events();
    data.cluster_duplicate_batches = router->duplicate_batches();
    data.cluster_rejected_batches = cluster_sink_ptr->rejected_batches();
    data.cluster_rejected_events = cluster_sink_ptr->rejected_events();
    data.cluster_pending_applies = router->PendingApplies();
    // Final compaction pass over the settled cluster, so the log-ledger
    // conservation invariant sees steady state: all owners are at the head,
    // everything below it (minus the retain cushion) must be reclaimed.
    (void)router->CompactLogs();
    data.cluster_log_appended = router->log_appended_entries();
    data.cluster_log_compacted = router->log_compacted_entries();
    data.cluster_log_retained = router->log_retained_entries();
    data.cluster_snapshot_catchups = router->snapshot_catchups();
    data.convergence = router->VerifyConvergence(session);
    if (auto stats = router->Stats(session); stats.ok()) {
      data.cluster_stats = *stats;
      data.have_cluster_stats = true;
    }
    if (router->HasIndex(session)) {
      backend::SearchRequest request;
      request.size = std::numeric_limits<std::size_t>::max();
      auto hits = router->Search(session, request);
      if (!hits.ok()) return hits.status();
      for (const backend::Hit& hit : hits->hits) {
        data.cluster_key_counts[EventKey(hit.source)] += 1;
        data.cluster_canonical.insert(hit.source.Dump());
      }
      // Digest the query mix through BOTH scatter routes on the same
      // quiescent cluster. The parallel leg runs the real pooled path
      // (query_threads workers); byte-equality with the serial leg is the
      // fan-out parity invariant.
      router->SetQueryFanout(cluster::QueryFanout::kParallel);
      auto digest = QueryMixDigest(*router, session);
      if (!digest.ok()) return digest.status();
      data.cluster_query_digest = *digest;
      router->SetQueryFanout(cluster::QueryFanout::kSerial);
      auto serial_digest = QueryMixDigest(*router, session);
      if (!serial_digest.ok()) return serial_digest.status();
      data.cluster_query_digest_serial = *serial_digest;
      auto restored_fanout =
          cluster::QueryFanoutFromString(options.cluster_fanout);
      if (restored_fanout.ok()) router->SetQueryFanout(*restored_fanout);
    }
  }

  // Harvest the spool as the documents its records index to.
  {
    auto records = trace::ReadTraceFile(data.art.spool_path);
    if (!records.ok()) return records.status();
    for (const tracer::WireEvent& record : *records) {
      data.spool_docs.push_back(
          tracer::WireEventToJson(record, session).Dump());
      data.spool_unique.insert(data.spool_docs.back());
    }
  }

  // Correlation keeps typed rows typed, unless the JSON route ingested them
  // or a snapshot catch-up re-bulked a replica's rows as JSON documents.
  const auto all_typed = [&] {
    return options.typed_ingest &&
           (!cluster_mode || router->snapshot_catchups() == 0);
  };

  if (golden) {
    // Golden reference: correlate the (lossless) live backend — the single
    // store, or the scatter/gather router in cluster mode.
    backend::QueryBackend* live =
        cluster_mode ? static_cast<backend::QueryBackend*>(router.get())
                     : &store;
    backend::FilePathCorrelator correlator(live);
    if (auto run = correlator.Run(session); !run.ok()) return run.status();
    data.tag_to_path = correlator.tag_to_path();
    DIO_RETURN_IF_ERROR(CheckCorrelated(*live, session, data.tag_to_path,
                                        all_typed(),
                                        &data.correlation_violations));
    return data;
  }

  // Restart: replay the spool (deduped, so re-driven batches do not
  // double-index) into the restored index, then correlate there.
  const std::string restored_index = session + "-restored";
  auto restore =
      trace::LoadTrace(&store, data.art.spool_path, restored_index, session);
  if (!restore.ok()) return restore.status();
  data.restore = *restore;
  if (data.restore.loaded > 0) {
    data.restored = true;
    auto stats = store.Stats(restored_index);
    if (!stats.ok()) return stats.status();
    data.restored_stats = *stats;

    backend::SearchRequest request;
    request.query = backend::Query::MatchAll();
    request.size = std::numeric_limits<std::size_t>::max();
    auto hits = store.Search(restored_index, request);
    if (!hits.ok()) return hits.status();
    for (const backend::Hit& hit : hits->hits) {
      data.restored_key_counts[EventKey(hit.source)] += 1;
      data.restored_canonical.insert(hit.source.Dump());
    }

    if (cluster_mode) {
      // The restored single store is the oracle for the scattered query
      // digest: same spool, one store, no cluster.
      auto digest = QueryMixDigest(store, restored_index);
      if (!digest.ok()) return digest.status();
      data.restored_query_digest = *digest;
    }

    // Faulty-run correlation: over the restored index, or — in cluster mode
    // — over the router itself, exercising the analysis path through
    // scatter/gather (tag parity against the golden run's router pass).
    if (cluster_mode) {
      if (router->HasIndex(session)) {
        backend::FilePathCorrelator correlator(router.get());
        if (auto run = correlator.Run(session); !run.ok()) {
          return run.status();
        }
        data.tag_to_path = correlator.tag_to_path();
        DIO_RETURN_IF_ERROR(CheckCorrelated(*router, session,
                                            data.tag_to_path, all_typed(),
                                            &data.correlation_violations));
      }
    } else {
      backend::FilePathCorrelator correlator(&store);
      if (auto run = correlator.Run(restored_index); !run.ok()) {
        return run.status();
      }
      data.tag_to_path = correlator.tag_to_path();
      DIO_RETURN_IF_ERROR(CheckCorrelated(store, restored_index,
                                          data.tag_to_path, all_typed(),
                                          &data.correlation_violations));
    }
  }
  return data;
}

// Finds a stage by name in CollectStats order; every stage name in the sim
// chain is unique.
const transport::StageStats* FindStage(
    const std::vector<transport::StageStats>& stages, std::string_view name) {
  for (const transport::StageStats& stage : stages) {
    if (stage.stage == name) return &stage;
  }
  return nullptr;
}

}  // namespace

std::string SimResult::ReproLine(std::uint64_t seed) const {
  return "--seed=" + std::to_string(seed) + " --fault-plan=" + plan_spec;
}

Expected<SimResult> RunSimulation(const SimOptions& options) {
  std::size_t total_ops = options.num_tasks * options.ops_per_task;
  if (!options.trace_path.empty()) {
    // Trace-replay workload: the op-accounting invariants (and the fault
    // plan's op-count scaling) key off how many recorded events each task
    // will actually re-issue, which CountIssuableEvents predicts statically
    // — valid because RunOnce pre-creates every recorded path, so replayed
    // opens always succeed.
    auto decoded = trace::ReadTraceFile(options.trace_path);
    if (!decoded.ok()) return decoded.status();
    total_ops =
        options.num_tasks *
        trace::CountIssuableEvents(*decoded, /*skip_namespace_ops=*/true);
  }
  const bool cluster_mode = options.cluster_nodes > 0;
  FaultPlan plan;
  if (options.fault_spec.empty()) {
    plan = FaultPlan::FromSeed(options.seed, total_ops, options.cluster_nodes,
                               options.cluster_replicas);
  } else {
    auto parsed = FaultPlan::Parse(options.fault_spec, total_ops,
                                   options.cluster_nodes);
    if (!parsed.ok()) return parsed.status();
    plan = *parsed;
  }

  auto golden = RunOnce(options, FaultPlan{}, /*golden=*/true, "golden");
  if (!golden.ok()) return golden.status();
  auto run_a = RunOnce(options, plan, /*golden=*/false, "a");
  if (!run_a.ok()) return run_a.status();
  auto run_b = RunOnce(options, plan, /*golden=*/false, "b");
  if (!run_b.ok()) return run_b.status();

  SimResult result;
  result.plan = plan;
  result.plan_spec = plan.ToString();
  result.schedule_digest = run_a->art.schedule_digest;
  result.steps = run_a->art.steps;
  result.spool_lines = run_a->spool_docs.size();
  result.spool_unique = run_a->spool_unique.size();
  result.restored_docs = run_a->restore.loaded;

  const tracer::TracerStats& tstats = run_a->art.tracer;
  const auto* queue = FindStage(run_a->art.stages, "queue");
  const auto* retry = FindStage(run_a->art.stages, "retry");
  const auto* fanout = FindStage(run_a->art.stages, "fanout");
  const auto* ackloss = FindStage(run_a->art.stages, "ackloss");
  // The terminal stage under ackloss: the bulk client, or the cluster sink.
  const auto* terminal = FindStage(run_a->art.stages,
                                   cluster_mode ? "cluster" : "bulk");
  const auto* spool = FindStage(run_a->art.stages, "trace");

  result.saw_ring_drop = tstats.ring_dropped > 0;
  result.saw_queue_drop = queue != nullptr && queue->dropped_events > 0;
  result.saw_transport_fault = retry != nullptr && retry->faults_injected > 0;
  result.saw_dead_letter = retry != nullptr && retry->dead_letter_events > 0;
  result.saw_ack_drop = run_a->art.acks_dropped_events > 0;
  result.saw_crash = run_a->art.crashed;
  result.saw_node_crash = run_a->node_crashed;
  result.saw_partition = run_a->partitioned;
  result.saw_lag = run_a->lagged;
  result.saw_cluster_reject = run_a->cluster_rejected_batches > 0;
  result.cluster_docs =
      run_a->have_cluster_stats ? run_a->cluster_stats.doc_count : 0;
  result.cluster_duplicates = run_a->cluster_duplicate_batches;
  result.cluster_log_appended = run_a->cluster_log_appended;
  result.cluster_log_compacted = run_a->cluster_log_compacted;
  result.cluster_log_retained = run_a->cluster_log_retained;
  result.cluster_snapshot_catchups = run_a->cluster_snapshot_catchups;

  InvariantChecker check;

  // Determinism: the same seed must produce a byte-identical schedule.
  check.Check(run_a->art.completed, "faulty schedule did not terminate");
  check.Check(golden->art.completed, "golden schedule did not terminate");
  check.CheckEq(run_a->art.schedule_digest, run_b->art.schedule_digest,
                "same seed, same schedule digest");
  check.CheckEq(run_a->art.steps, run_b->art.steps,
                "same seed, same step count");
  check.Check(run_a->art.trace == run_b->art.trace,
              "same seed, same schedule trace");

  // The golden run is lossless and fault-free by construction.
  check.CheckEq(golden->art.tracer.ring_dropped, 0, "golden ring_dropped");
  check.CheckEq(golden->art.tracer.emitted, total_ops, "golden emitted");
  check.CheckEq(golden->spool_docs.size(), total_ops, "golden spool lines");
  check.CheckEq(golden->spool_unique.size(), total_ops,
                "golden spool uniqueness");
  if (const auto* gq = FindStage(golden->art.stages, "queue")) {
    check.CheckEq(gq->dropped_events, 0, "golden queue drops");
  }
  if (const auto* gr = FindStage(golden->art.stages, "retry")) {
    check.CheckEq(gr->faults_injected, 0, "golden faults");
    check.CheckEq(gr->dead_letter_events, 0, "golden dead letters");
  }
  CheckTracerCounters(golden->art.tracer, &check);
  if (cluster_mode) {
    // The fault-free golden cluster accepts everything, converges, and
    // leaves no backlog.
    check.CheckEq(golden->cluster_rejected_batches, 0,
                  "golden cluster rejects");
    check.Check(golden->have_cluster_stats, "golden cluster stats");
    if (golden->have_cluster_stats) {
      check.CheckEq(golden->cluster_stats.doc_count, total_ops,
                    "golden cluster doc_count");
    }
    check.Check(golden->convergence.empty(), "golden replica convergence");
    check.CheckEq(golden->cluster_pending_applies, 0,
                  "golden pending applies");
  }

  // Faulty run: tracer counters and per-stage ledgers (the fan-out and the
  // ack-loss decorator legitimately report upstream failures for batches
  // whose ack was dropped after delivery; those batches are re-driven by
  // the retry stage or dead-lettered, never silently lost).
  CheckTracerCounters(tstats, &check);
  check.CheckEq(tstats.enter_hits, total_ops, "workload op accounting");
  LedgerExpectations expect;
  // Cluster-rejected deliveries (ack level unsatisfiable) fail the Submit,
  // so the rejection surfaces as an in/out gap at the cluster stage AND at
  // every decorator above it, alongside the lost-ack gaps.
  expect.rejected_batches["fanout"] =
      run_a->art.acks_dropped_batches + run_a->cluster_rejected_batches;
  expect.rejected_events["fanout"] =
      run_a->art.acks_dropped_events + run_a->cluster_rejected_events;
  expect.rejected_batches["ackloss"] =
      run_a->art.acks_dropped_batches + run_a->cluster_rejected_batches;
  expect.rejected_events["ackloss"] =
      run_a->art.acks_dropped_events + run_a->cluster_rejected_events;
  if (cluster_mode) {
    expect.rejected_batches["cluster"] = run_a->cluster_rejected_batches;
    expect.rejected_events["cluster"] = run_a->cluster_rejected_events;
  }
  CheckStageLedgers(run_a->art.stages, expect, &check);

  // Cross-stage conservation.
  check.Check(queue != nullptr && retry != nullptr && fanout != nullptr &&
                  ackloss != nullptr && terminal != nullptr &&
                  spool != nullptr,
              "expected stages missing from CollectStats");
  if (queue != nullptr && retry != nullptr && fanout != nullptr &&
      ackloss != nullptr && terminal != nullptr && spool != nullptr) {
    check.CheckEq(queue->events_in, tstats.emitted,
                  "queue.events_in == tracer.emitted");
    check.CheckEq(retry->events_in, queue->events_out,
                  "retry.events_in == queue.events_out");
    check.CheckEq(fanout->events_in,
                  retry->events_out + run_a->art.acks_dropped_events +
                      run_a->cluster_rejected_events,
                  "fanout.events_in == retry.events_out + lost acks + "
                  "cluster rejects");
    check.CheckEq(ackloss->events_in, fanout->events_in,
                  "ackloss.events_in == fanout.events_in");
    check.CheckEq(terminal->events_in, ackloss->events_in,
                  "terminal.events_in == ackloss.events_in");
    check.CheckEq(spool->events_in, fanout->events_in,
                  "spool.events_in == fanout.events_in");
    check.CheckEq(result.spool_lines, spool->events_out,
                  "spool file records == spool.events_out");
    // End-to-end: every emitted event is spooled, queue-dropped, or
    // dead-lettered; re-driven deliveries (ack lost, or refused by the
    // cluster's ack gate) are the only source of spool surplus.
    check.CheckEq(
        spool->events_in + queue->dropped_events + retry->dead_letter_events,
        tstats.emitted + run_a->art.acks_dropped_events +
            run_a->cluster_rejected_events,
        "end-to-end event conservation");
    if (cluster_mode) {
      // Cluster-wide ledger conservation: after the end-of-run heal and
      // settle, the logical index holds every acked event exactly once —
      // crashes promote replicas and the log replays, but nothing acked is
      // lost and nothing re-driven is double-indexed.
      check.Check(run_a->have_cluster_stats ||
                      run_a->cluster_acked_events == 0,
                  "cluster stats unavailable");
      if (run_a->have_cluster_stats) {
        check.CheckEq(run_a->cluster_stats.doc_count,
                      run_a->cluster_acked_events,
                      "cluster doc_count == acked events");
        check.CheckEq(run_a->cluster_stats.pending_count, 0,
                      "cluster pending_count post-refresh");
      }
      check.CheckEq(run_a->cluster_key_counts.size(),
                    run_a->cluster_canonical.size(),
                    "cluster distinct keys == distinct documents");
      for (const auto& [key, count] : run_a->cluster_key_counts) {
        check.Check(count == 1, "event in cluster " + std::to_string(count) +
                                    " times after failover: " + key);
      }
      check.CheckEq(run_a->cluster_pending_applies, 0,
                    "no pending applies after heal + settle");
      for (const std::string& divergence : run_a->convergence) {
        check.Check(false, "replica convergence: " + divergence);
      }
      // Replication-log ledger: every appended entry is either compacted
      // away or still retained — compaction never loses or double-counts.
      check.CheckEq(run_a->cluster_log_appended,
                    run_a->cluster_log_compacted + run_a->cluster_log_retained,
                    "log appended == compacted + retained");
      // With the settled cluster at the head of every log, retention is
      // bounded by the configured per-shard cushion (64 logical shards) —
      // O(lag), not O(history). The sim default retain=0 makes this exact:
      // a settled cluster holds zero log entries.
      check.CheckLe(run_a->cluster_log_retained,
                    options.cluster_log_retain *
                        cluster::ShardMap::kDefaultLogicalShards,
                    "retained log bounded by the retain cushion");
      // Snapshot catch-up only exists to serve rejoins stranded below a
      // compacted prefix; only a crash (wiped watermarks) or a
      // post-compaction promotion can strand, and both need a node death.
      check.Check(run_a->cluster_snapshot_catchups == 0 || run_a->node_crashed,
                  "snapshot catch-up without a node crash");
      // Parallel scatter parity: the pooled fan-out must be byte-identical
      // to the serial route over the same quiescent cluster — ids, sorted
      // pages, counts, and aggregations alike.
      check.Check(
          run_a->cluster_query_digest == run_a->cluster_query_digest_serial,
          "parallel query fan-out diverged from the serial route");
    } else {
      // Live-index consistency: without a crash, the store holds exactly
      // what the bulk sink delivered (duplicates included).
      if (!run_a->art.crashed) {
        check.Check(run_a->have_live_stats || terminal->events_in == 0,
                    "live index stats unavailable");
        if (run_a->have_live_stats) {
          check.CheckEq(run_a->live_stats.doc_count, terminal->events_in,
                        "live doc_count == bulk.events_in");
          check.CheckEq(run_a->live_stats.pending_count, 0,
                        "live pending_count post-refresh");
        }
      } else if (run_a->have_live_stats) {
        check.CheckLe(run_a->live_stats.doc_count, terminal->events_in,
                      "live doc_count bounded by bulk.events_in post-crash");
        check.CheckEq(run_a->live_stats.pending_count, 0,
                      "live pending_count post-refresh");
      }
    }
  }

  // Exactly-once after crash-restart replay: every document the spool
  // acked is present in the restored index exactly once.
  check.CheckEq(run_a->restore.loaded, result.spool_unique,
                "restored loaded == spool unique docs");
  check.CheckEq(run_a->restore.duplicates,
                result.spool_lines - result.spool_unique,
                "restore duplicate accounting");
  if (run_a->restored) {
    check.CheckEq(run_a->restored_stats.doc_count, result.spool_unique,
                  "restored doc_count");
    check.CheckEq(run_a->restored_stats.pending_count, 0,
                  "restored pending_count post-refresh");
    check.CheckEq(run_a->restored_key_counts.size(), result.spool_unique,
                  "restored distinct event keys");
    for (const auto& [key, count] : run_a->restored_key_counts) {
      check.Check(count == 1, "event indexed " + std::to_string(count) +
                                  " times after replay: " + key);
    }
  }

  // Scattered-vs-single-store golden parity. The cluster never invents
  // documents, and when no delivery was rejected (accept order == spool
  // first-occurrence order) the scatter/gather results — ids, sorted pages,
  // counts, aggregations — are byte-identical to the restored single store
  // holding the same spool.
  if (cluster_mode) {
    for (const std::string& doc : run_a->cluster_canonical) {
      check.Check(run_a->spool_unique.count(doc) > 0,
                  "cluster document absent from spool: " + doc);
    }
    if (run_a->restored && run_a->cluster_rejected_batches == 0) {
      check.Check(!run_a->cluster_query_digest.empty(),
                  "cluster query digest missing");
      check.CheckEq(run_a->cluster_canonical.size(),
                    run_a->restored_canonical.size(),
                    "cluster document set == restored document set");
      check.Check(
          run_a->cluster_query_digest == run_a->restored_query_digest,
          "scattered query results diverged from the single-store oracle");
    }
  }

  // Golden parity: a faulty schedule may lose events but must never invent
  // or corrupt them, and correlation must agree with the serial golden run
  // wherever it resolves at all.
  for (const std::string& doc : run_a->spool_unique) {
    check.Check(golden->spool_unique.count(doc) > 0,
                "faulty document absent from golden run: " + doc);
  }
  for (const auto& [tag, path] : run_a->tag_to_path) {
    auto it = golden->tag_to_path.find(tag);
    check.Check(it != golden->tag_to_path.end() && it->second == path,
                "correlation diverged from golden for tag " + tag);
  }
  for (const RunData* run : {&*golden, &*run_a}) {
    for (const std::string& violation : run->correlation_violations) {
      check.Check(false, violation);
    }
  }

  result.violations = check.violations();
  return result;
}

}  // namespace dio::sim
