// ClusterRouter: a multi-node backend tier over embedded ElasticStores.
//
// The paper ships traced syscalls to a dedicated Elasticsearch backend; one
// store caps out long before the millions-of-clients target, so this layer
// spreads each tracing session across N `BackendNode`s the way ES spreads an
// index across data nodes:
//
//   * routing — every event's routing key (tid, time_enter) hashes to one of
//     `logical_shards` shards; a rendezvous-hash ShardMap assigns each shard
//     a primary plus `replicas` replica nodes, and node join/leave moves
//     only the shards whose owner set actually changes;
//   * replicated ingest — each accepted batch is split into per-shard
//     sub-batches, appended to a per-shard replication log, and applied to
//     owner stores strictly in log order. The configured AckLevel decides
//     how many owners must apply synchronously before the batch is
//     acknowledged (primary | quorum | all); the rest catch up through
//     `PumpReplication`. A node applies each log entry exactly once (its
//     applied-watermark is the dedupe), and a whole batch re-driven by the
//     retry transport after a lost ack is recognized by content fingerprint
//     and acknowledged without re-applying — the cluster-side twin of the
//     spool's line dedupe;
//   * bounded logs — each shard's log compacts below the minimum applied
//     watermark of its live owners (`CompactLogs`, run opportunistically on
//     the ingest/pump paths), keeping the newest `log_retain_batches`
//     entries as a replay cushion, so steady-state log memory is O(lag)
//     rather than O(history);
//   * failover — `CrashNode` wipes a node (process death: store and
//     watermarks gone) and removes it from ownership, promoting the next
//     live node per shard. Acked-but-unreplicated entries survive in the
//     router's log and replay to the promoted owner without duplicates.
//     A restarted node rejoins empty; entries still retained in the log
//     replay in order, and a watermark below the compacted base instead
//     bootstraps from a peer-store snapshot plus the log tail
//     (`SnapshotCatchUp`) — recovery cost is bounded by lag, not history,
//     and still converges byte-identically (`VerifyConvergence` checks
//     exactly that). `SetReachable(false)` models a network partition: the
//     node keeps its data and ownership, acks that require it fail until
//     the partition heals, and the backlog drains afterwards;
//     `SetThrottled(true)` models a slow replica: it still serves sync
//     acks and reads but the async pump skips it, so lag accumulates (and
//     caps compaction) until the throttle lifts;
//   * scatter/gather — Search/Count/Aggregate fan out over one chosen
//     owner per shard and k-way-merge per-shard hits by global ingestion
//     sequence (the cluster-wide docid: assigned at accept time, in batch
//     arrival order, so results are byte-identical to a single store that
//     indexed the same surviving events — the sim's golden parity check).
//     With `query_fanout=parallel` the per-shard scatter work runs on a
//     shared query pool (the store's RunPerShard pattern, one tier up);
//     results are byte-identical to the serial route because the scatter
//     plan, the merge, and all error selection stay in shard order.
//
// Thread-safety: a router shared_mutex guards topology, logs, and sequence
// assignment — mutators exclusive, queries shared (so N dashboards scatter
// concurrently). Log-entry application to node stores happens outside it,
// ordered per (node, shard) by the node's applied-watermark (taken under
// the node's apply mutex), so concurrent producers fan out across nodes.
// Pool workers never touch the router mutex: query scatter tasks read only
// state frozen by the caller's shared lock, and parallel update-apply tasks
// touch only node apply mutexes (router bookkeeping happens on the caller
// after the join) — so pool-sharing cannot deadlock.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "backend/query_backend.h"
#include "backend/store.h"
#include "cluster/replication_log.h"
#include "cluster/shard_map.h"
#include "common/config.h"
#include "common/json.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "transport/transport.h"

namespace dio::cluster {

// How many shard owners must have applied a batch before it is acked:
// primary only, a majority of the owner group, or every owner.
enum class AckLevel { kPrimary, kQuorum, kAll };

[[nodiscard]] std::string_view ToString(AckLevel level);
Expected<AckLevel> AckLevelFromString(std::string_view name);

// Query scatter execution: serial keeps the per-shard scatter on the calling
// thread (the parity oracle); parallel fans it out on the query pool.
enum class QueryFanout { kSerial, kParallel };

[[nodiscard]] std::string_view ToString(QueryFanout fanout);
Expected<QueryFanout> QueryFanoutFromString(std::string_view name);

// The `[cluster]` config section.
struct ClusterOptions {
  std::size_t nodes = 3;
  std::size_t replicas = 1;
  AckLevel ack = AckLevel::kQuorum;
  std::size_t logical_shards = ShardMap::kDefaultLogicalShards;
  // Query scatter route and pool width. query_threads=0 runs the parallel
  // plan inline on the caller (same code path, no pool) — what the
  // deterministic sim uses.
  QueryFanout query_fanout = QueryFanout::kParallel;
  std::size_t query_threads = 4;
  // Replay cushion kept per shard past the all-owners-applied point; lower
  // bounds nothing for safety (compaction never passes a live owner's
  // watermark) but trades snapshot catch-ups against log memory.
  std::size_t log_retain_batches = 64;
  // Engine knobs for every node's embedded store (the `[backend]` section,
  // parsed separately by ElasticStoreOptions::FromConfig).
  backend::ElasticStoreOptions store;

  // Parses cluster.{nodes,replicas,ack,logical_shards,query_fanout,
  // query_threads,log_retain_batches}, warning on unknown cluster.* keys
  // like Pipeline::Build does for transport.*. Fails on an unparseable ack
  // level or fan-out mode, and on nodes or logical_shards below 1 or a
  // negative replicas, query_threads or log_retain_batches, naming the key.
  static Expected<ClusterOptions> FromConfig(const Config& config);
};

// One backend node: an embedded ElasticStore plus liveness/reachability
// state and the per-(index, shard) applied-watermarks that make log
// application exactly-once. Lifecycle is driven by the router.
class BackendNode {
 public:
  BackendNode(std::size_t id, const backend::ElasticStoreOptions& options);

  [[nodiscard]] std::size_t id() const { return id_; }
  // up = the process is running (false after CrashNode until RestartNode).
  [[nodiscard]] bool up() const { return up_; }
  // reachable = no network partition between router and node.
  [[nodiscard]] bool reachable() const { return reachable_; }
  // throttled = replication to this node is slow; the async pump defers it.
  [[nodiscard]] bool throttled() const { return throttled_; }
  [[nodiscard]] backend::ElasticStore& store() { return *store_; }
  [[nodiscard]] const backend::ElasticStore& store() const { return *store_; }

 private:
  friend class ClusterRouter;

  std::size_t id_;
  backend::ElasticStoreOptions store_options_;
  std::unique_ptr<backend::ElasticStore> store_;
  // Atomic because liveness is consulted under either the router mutex
  // (topology decisions) or the node's apply mutex (apply-time guard), and
  // the two are never nested.
  std::atomic<bool> up_{true};
  std::atomic<bool> reachable_{true};
  std::atomic<bool> throttled_{false};

  // Applied-watermark per "index#shard": the next log seq this node will
  // apply. Entry seq < watermark ⇔ already applied (idempotence across
  // retries and replication pumps). Guarded by apply_mu_; wiped on crash.
  std::mutex apply_mu_;
  std::map<std::string, std::uint64_t> applied_;
  // Sub-indices with ingest applied since their last refresh, so update
  // barriers skip redundant Refresh calls when replaying a log tail with
  // consecutive updates (amortizes refresh across an apply batch). Guarded
  // by apply_mu_; wiped on crash alongside applied_.
  std::set<std::string> dirty_;
};

class ClusterRouter : public backend::QueryBackend {
 public:
  explicit ClusterRouter(const ClusterOptions& options);

  [[nodiscard]] const ClusterOptions& options() const { return options_; }
  [[nodiscard]] std::size_t node_count() const;
  [[nodiscard]] BackendNode& node(std::size_t id) { return *nodes_[id]; }
  [[nodiscard]] const BackendNode& node(std::size_t id) const {
    return *nodes_[id];
  }

  // ---- topology -----------------------------------------------------------
  // Node join: adds a live empty node; it owns ~1/live_count of the shards
  // and catches up via PumpReplication — from the log when the tail is
  // retained, via SnapshotCatchUp when a shard's prefix is compacted.
  std::size_t AddNode();
  // Process death: the node's store and watermarks are wiped and it leaves
  // every owner set (replicas are promoted). Acked batches it alone had
  // applied remain in the router log and replay to the promoted owners.
  Status CrashNode(std::size_t id);
  // Rejoins a crashed node with an empty store; it re-enters owner sets and
  // catches up like AddNode (convergence is byte-exact by construction).
  Status RestartNode(std::size_t id);
  // Network partition toggle. An unreachable node keeps data and ownership;
  // ingest requiring its ack fails (callers retry), replication to it
  // defers until healed.
  Status SetReachable(std::size_t id, bool reachable);
  // Replication-lag toggle (the sim's `lag` fault). A throttled node still
  // serves sync acks and reads; only the async pump skips it, so its
  // backlog — and the shard logs above its watermark — grow until healed.
  Status SetThrottled(std::size_t id, bool throttled);
  // Heals every partition and throttle, then restarts crashed nodes in
  // ascending id order (deterministic under the sim scheduler), and finally
  // snapshot-bootstraps any owner stranded below a compacted log prefix so
  // rejoin replay is bounded by the retained tail, not history.
  void HealAll();

  // ---- ingest -------------------------------------------------------------
  // Routes one transport batch into per-shard replication-log entries and
  // applies them to enough owners to satisfy options().ack (the primary
  // must always be one of them). Returns Unavailable with NO state change
  // when the ack level cannot be met (crashed/partitioned owners) — the
  // retry transport re-drives the batch later. A batch whose content
  // fingerprint was already acked (retry after a lost ack) returns Ok
  // without re-applying.
  Status Ingest(const std::string& index, transport::EventBatch batch);

  // Applies up to `max_applies` outstanding (log entry, owner) pairs, in
  // deterministic index/shard/owner order; returns how many were applied.
  // An owner stranded below a compacted prefix is snapshot-bootstrapped
  // first (counted separately, not against `max_applies`).
  std::size_t PumpReplication(std::size_t max_applies);
  // Outstanding (entry, live owner) applications. An owner below the
  // compacted base counts from the base (the snapshot replaces the prefix).
  [[nodiscard]] std::size_t PendingApplies() const;
  // Pumps until nothing is pending. Fails (leaving the remainder pending)
  // if an unreachable or throttled owner blocks progress.
  Status Settle();

  // Compacts every shard log below the minimum applied watermark of its
  // live owners, keeping options().log_retain_batches entries of cushion.
  // Runs opportunistically on the ingest/pump paths; callable any time.
  // Returns entries dropped.
  std::size_t CompactLogs();
  // Snapshot-bootstraps every live owner whose watermark sits below its
  // shard's compacted base, in deterministic order. Returns catch-ups
  // performed. (PumpReplication does this lazily; HealAll eagerly.)
  std::size_t CatchUpStranded();

  // ---- ingest/ack accounting (for the transport sink's ledger) ------------
  [[nodiscard]] std::uint64_t acked_batches() const { return acked_batches_; }
  [[nodiscard]] std::uint64_t acked_events() const { return acked_events_; }
  [[nodiscard]] std::uint64_t duplicate_batches() const {
    return duplicate_batches_;
  }
  [[nodiscard]] std::uint64_t rejected_batches() const {
    return rejected_batches_;
  }
  [[nodiscard]] std::uint64_t rejected_events() const {
    return rejected_events_;
  }
  // Synchronous owner applications performed at ack time vs deferred ones
  // drained by PumpReplication (the ack-level cost the bench quantifies).
  [[nodiscard]] std::uint64_t sync_applies() const { return sync_applies_; }
  [[nodiscard]] std::uint64_t async_applies() const { return async_applies_; }

  // ---- log/catch-up accounting --------------------------------------------
  // Cumulative entries ever appended across all shard logs.
  [[nodiscard]] std::uint64_t log_appended_entries() const {
    return log_appended_entries_;
  }
  // Cumulative entries/bytes dropped by compaction.
  [[nodiscard]] std::uint64_t log_compacted_entries() const {
    return log_compacted_entries_;
  }
  [[nodiscard]] std::uint64_t log_compacted_bytes() const {
    return log_compacted_bytes_;
  }
  // Currently retained entries/bytes summed over all shard logs (gauges).
  [[nodiscard]] std::uint64_t log_retained_entries() const;
  [[nodiscard]] std::uint64_t log_retained_bytes() const;
  // Snapshot catch-ups performed and documents copied by them.
  [[nodiscard]] std::uint64_t snapshot_catchups() const {
    return snapshot_catchups_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t snapshot_docs_copied() const {
    return snapshot_docs_copied_.load(std::memory_order_relaxed);
  }

  // ---- query fan-out ------------------------------------------------------
  // Runtime switch between the serial oracle and the pooled scatter (the
  // bench and the parity tests re-run the same router both ways).
  void SetQueryFanout(QueryFanout fanout) {
    fanout_mode_.store(static_cast<int>(fanout), std::memory_order_relaxed);
  }
  [[nodiscard]] QueryFanout query_fanout() const {
    return static_cast<QueryFanout>(
        fanout_mode_.load(std::memory_order_relaxed));
  }
  // Queries that took the pooled scatter path, and per-shard tasks fanned
  // out by them.
  [[nodiscard]] std::uint64_t fanout_queries() const {
    return fanout_queries_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t fanout_shard_tasks() const {
    return fanout_shard_tasks_.load(std::memory_order_relaxed);
  }

  // ---- QueryBackend (scatter/gather) --------------------------------------
  [[nodiscard]] Expected<backend::SearchResult> Search(
      const std::string& index,
      const backend::SearchRequest& request) const override;
  [[nodiscard]] Expected<std::size_t> Count(
      const std::string& index, const backend::Query& query) const override;
  [[nodiscard]] Expected<backend::AggResult> Aggregate(
      const std::string& index, const backend::Query& query,
      const backend::Aggregation& agg) const override;
  Expected<std::size_t> UpdateByQuery(
      const std::string& index, const backend::Query& query,
      const std::function<bool(Json&)>& update) override;
  void Refresh(const std::string& index) override;
  [[nodiscard]] bool HasIndex(const std::string& index) const override;
  [[nodiscard]] Expected<backend::IndexStats> Stats(
      const std::string& index) const override;

  [[nodiscard]] const ShardMap& shard_map() const { return map_; }

  // ---- health -------------------------------------------------------------
  // Operator view of the cluster, surfaced through DioService session info:
  // per-node liveness, fan-out pool stats, replication/log counters, and
  // per-index watermark lag.
  [[nodiscard]] Json HealthJson() const;

  // ---- verification -------------------------------------------------------
  // After quiescence (Settle + Refresh): every live owner of every shard of
  // `index` must hold byte-identical documents in identical order and agree
  // on the applied watermark. Returns one string per divergence (empty =
  // converged). Unreachable-but-up owners are included: a healed partition
  // must leave no trace.
  [[nodiscard]] std::vector<std::string> VerifyConvergence(
      const std::string& index) const;

  // The sub-index holding `index`'s shard `shard` on any owner store.
  static std::string SubIndexName(const std::string& index, std::size_t shard);

 private:
  struct IndexState {
    explicit IndexState(std::size_t shards) : shards(shards) {}
    std::uint64_t next_global_seq = 0;
    std::uint64_t bulk_requests = 0;
    std::uint64_t updates = 0;
    std::vector<ShardLog> shards;
  };

  // Result of applying a log slice to one node's store (no router-mutex
  // bookkeeping — see NoteApplied).
  struct ApplyOutcome {
    Status status = Status::Ok();
    // Modified count when the final applied entry is an update, else 0.
    std::size_t modified = 0;
    // Log entries actually applied (idempotent skips excluded).
    std::size_t applied = 0;
    // The node's watermark after the apply (valid when status is ok).
    std::uint64_t reached = 0;
    // The node's watermark sits below the slice base: the prefix it needs
    // was compacted away, so it must SnapshotCatchUp first.
    bool needs_snapshot = false;
  };

  // Owner acks needed for `owner_count` live owners at options().ack.
  [[nodiscard]] std::size_t RequiredAcks(std::size_t owner_count) const;

  // Applies log entries [node watermark, through_seq] of (index, shard) to
  // `node`, under its apply mutex only — safe from pool workers. The caller
  // must follow up with NoteApplied on success.
  ApplyOutcome ApplyToStore(BackendNode& node, const std::string& index,
                            std::size_t shard, const LogSlice& slice,
                            std::uint64_t through_seq);
  // Router-side bookkeeping for a completed apply: ack-path counters and
  // the node's applied hint. Takes the router mutex exclusively — never
  // call from a pool worker.
  void NoteApplied(const std::string& index, std::size_t shard,
                   const BackendNode& node, std::uint64_t reached,
                   std::size_t applied, bool sync);
  // ApplyToStore with the stranded path handled: a needs_snapshot outcome
  // triggers SnapshotCatchUp and one retry. Bookkeeping included. Not for
  // pool workers (SnapshotCatchUp/NoteApplied take the router mutex).
  ApplyOutcome ApplyWithCatchUp(BackendNode& node, const std::string& index,
                                std::size_t shard, const LogSlice& slice,
                                std::uint64_t through_seq, bool sync);

  // Bootstraps `target` for (index, shard) from the most-advanced
  // up+reachable peer owner: copies the peer's refreshed sub-index
  // wholesale and adopts its watermark; the retained log tail replays on
  // top through the normal apply path. Byte-identical to a from-scratch
  // replay because store row ids are dense append order.
  Status SnapshotCatchUp(const std::string& index, std::size_t shard,
                         std::size_t target);

  // Compacts all shard logs below their live-owner minimum watermark.
  // Caller holds mu_ exclusively. Returns entries dropped.
  std::size_t CompactLocked();

  // Runs fn(0..n-1): inline when serial/poolless, else task 0 on the
  // caller and the rest on the query pool behind a per-call latch (the
  // store's RunPerShard pattern — workers wait on nothing but their own
  // task, so pool-sharing cannot deadlock). fn must not touch mu_.
  void RunScatter(std::size_t n,
                  const std::function<void(std::size_t)>& fn) const;

  // Picks the shard's reader for scatter/gather: the up+reachable owner
  // with the highest applied hint (ties: owner order). Returns nullptr if
  // none. Caller holds mu_ (shared suffices).
  [[nodiscard]] const BackendNode* ReaderFor(const IndexState& ix,
                                             std::size_t shard) const;

  // Gathers all matching documents of `index` in global-seq order (the
  // scatter half of Search/Aggregate), serial or pooled per query_fanout(),
  // each projected to `source` (SearchRequest::source; empty = whole).
  // Caller holds mu_ (shared suffices; the lock freezes topology, readers,
  // and the global-seq maps for the pool workers).
  Expected<std::vector<std::pair<std::uint64_t, Json>>> GatherMatches(
      const IndexState& ix, const std::string& index,
      const backend::Query& query,
      const std::vector<std::string>& source = {}) const;

  // The two query plans behind Search. Serial fan-out keeps the
  // gather-everything plan as the parity oracle; parallel fan-out pushes
  // sort+limit into each shard task (the store materializes only the
  // per-shard top `from+size`) and k-way merges the tiny sorted runs —
  // byte-identical output, O(shards * (from+size)) caller work.
  Expected<backend::SearchResult> SearchGatherAll(
      const IndexState& ix, const std::string& index,
      const backend::SearchRequest& request) const;
  Expected<backend::SearchResult> SearchPushdown(
      const IndexState& ix, const std::string& index,
      const backend::SearchRequest& request) const;

  // Same split for Aggregate: the oracle gathers every matched document and
  // executes once; the pushdown plan runs columnar partial aggregation
  // inside each shard task and folds the partials in shard order.
  Expected<backend::AggResult> AggregateGatherAll(
      const IndexState& ix, const std::string& index,
      const backend::Query& query, const backend::Aggregation& agg) const;
  Expected<backend::AggResult> AggregatePushdown(
      const IndexState& ix, const std::string& index,
      const backend::Query& query, const backend::Aggregation& agg) const;

  const ClusterOptions options_;
  // Mutators exclusive, queries shared. Pool workers never acquire it.
  mutable std::shared_mutex mu_;
  ShardMap map_;
  std::vector<std::unique_ptr<BackendNode>> nodes_;
  std::map<std::string, IndexState> indices_;
  // Content fingerprints of acked batches (duplicate-delivery detection).
  std::map<std::uint64_t, std::uint64_t> acked_fingerprints_;  // fp -> count

  // Lazily sized to options().query_threads; null when query_threads=0.
  std::unique_ptr<ThreadPool> query_pool_;
  std::atomic<int> fanout_mode_{static_cast<int>(QueryFanout::kParallel)};
  mutable std::atomic<std::uint64_t> fanout_queries_{0};
  mutable std::atomic<std::uint64_t> fanout_shard_tasks_{0};

  std::uint64_t acked_batches_ = 0;
  std::uint64_t acked_events_ = 0;
  std::uint64_t duplicate_batches_ = 0;
  std::uint64_t rejected_batches_ = 0;
  std::uint64_t rejected_events_ = 0;
  std::uint64_t sync_applies_ = 0;
  std::uint64_t async_applies_ = 0;
  std::uint64_t log_appended_entries_ = 0;
  std::uint64_t log_compacted_entries_ = 0;
  std::uint64_t log_compacted_bytes_ = 0;
  // Atomic: bumped from SnapshotCatchUp while other threads may read the
  // accessors without the router mutex.
  std::atomic<std::uint64_t> snapshot_catchups_{0};
  std::atomic<std::uint64_t> snapshot_docs_copied_{0};
};

}  // namespace dio::cluster
