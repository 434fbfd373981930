#include "cluster/router.h"

#include <algorithm>
#include <condition_variable>
#include <limits>
#include <queue>
#include <tuple>
#include <utility>

namespace dio::cluster {

namespace {

std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Routing key: (tid, time_enter) — the fields EventKey uniqueness is built
// on, present in every traced event. All per-thread context stays within
// one shard only by accident of hashing; queries never rely on locality,
// so a plain well-mixed hash is enough.
std::uint64_t RoutingHash(std::int64_t tid, std::int64_t time_enter) {
  return Mix64(static_cast<std::uint64_t>(tid) ^
               Mix64(static_cast<std::uint64_t>(time_enter)));
}

std::uint64_t Fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t RoutingHashOfDoc(const Json& doc) {
  const Json* tid = doc.Find("tid");
  const Json* time_enter = doc.Find("time_enter");
  if (tid != nullptr && tid->is_number() && time_enter != nullptr &&
      time_enter->is_number()) {
    return RoutingHash(tid->as_int(), time_enter->as_int());
  }
  // Documents without the tracer's key fields (hand-built corpora in
  // tests): route by content so the placement is at least deterministic.
  return Fnv1a(doc.Dump(), 0xcbf29ce484222325ULL);
}

// The projection each shard applies for a projected search: the request's
// fields plus any sort field they lack, because the router's merge compares
// sort keys on the shard hits. Empty when the request is not projected.
std::vector<std::string> ScatterSource(const backend::SearchRequest& request) {
  std::vector<std::string> fields = request.source;
  if (fields.empty()) return fields;
  for (const backend::SortSpec& spec : request.sort) {
    if (std::find(fields.begin(), fields.end(), spec.field) == fields.end()) {
      fields.push_back(spec.field);
    }
  }
  return fields;
}

// A merged hit as the request asked for it: without the sort fields
// ScatterSource added.
Json RequestedSource(const backend::SearchRequest& request,
                     std::size_t scatter_fields, Json doc) {
  if (scatter_fields == request.source.size()) return doc;
  return backend::ProjectFields(doc, request.source);
}

}  // namespace

std::string_view ToString(AckLevel level) {
  switch (level) {
    case AckLevel::kPrimary: return "primary";
    case AckLevel::kQuorum: return "quorum";
    case AckLevel::kAll: return "all";
  }
  return "quorum";
}

Expected<AckLevel> AckLevelFromString(std::string_view name) {
  if (name == "primary") return AckLevel::kPrimary;
  if (name == "quorum") return AckLevel::kQuorum;
  if (name == "all") return AckLevel::kAll;
  return InvalidArgument("unknown ack level: " + std::string(name) +
                         " (want primary|quorum|all)");
}

std::string_view ToString(QueryFanout fanout) {
  switch (fanout) {
    case QueryFanout::kSerial: return "serial";
    case QueryFanout::kParallel: return "parallel";
  }
  return "parallel";
}

Expected<QueryFanout> QueryFanoutFromString(std::string_view name) {
  if (name == "serial") return QueryFanout::kSerial;
  if (name == "parallel") return QueryFanout::kParallel;
  return InvalidArgument("unknown query fan-out: " + std::string(name) +
                         " (want serial|parallel)");
}

Expected<ClusterOptions> ClusterOptions::FromConfig(const Config& config) {
  WarnUnknownKeys(config, "cluster",
                  {"nodes", "replicas", "ack", "logical_shards",
                   "query_fanout", "query_threads", "log_retain_batches"});
  ClusterOptions opts;
  for (auto [key, field, min] :
       {std::tuple{"cluster.nodes", &opts.nodes, 1},
        std::tuple{"cluster.replicas", &opts.replicas, 0},
        std::tuple{"cluster.logical_shards", &opts.logical_shards, 1},
        std::tuple{"cluster.query_threads", &opts.query_threads, 0},
        std::tuple{"cluster.log_retain_batches", &opts.log_retain_batches,
                   0}}) {
    auto value = GetCount(config, key, *field, min);
    if (!value.ok()) return value.status();
    *field = *value;
  }
  if (config.Has("cluster.ack")) {
    auto ack = AckLevelFromString(config.GetString("cluster.ack"));
    if (!ack.ok()) return ack.status();
    opts.ack = *ack;
  }
  if (config.Has("cluster.query_fanout")) {
    auto fanout =
        QueryFanoutFromString(config.GetString("cluster.query_fanout"));
    if (!fanout.ok()) return fanout.status();
    opts.query_fanout = *fanout;
  }
  return opts;
}

BackendNode::BackendNode(std::size_t id,
                         const backend::ElasticStoreOptions& options)
    : id_(id),
      store_options_(options),
      store_(std::make_unique<backend::ElasticStore>(options)) {}

ClusterRouter::ClusterRouter(const ClusterOptions& options)
    : options_([&options] {
        // Each logical shard is its own sub-index on a node store, and the
        // logical shards already spread the rows, so a node store splits
        // none of them again: one sub-shard per logical shard.
        ClusterOptions opts = options;
        opts.store.shards_per_index = 1;
        return opts;
      }()),
      map_(options.logical_shards, options.replicas) {
  for (std::size_t n = 0; n < std::max<std::size_t>(1, options.nodes); ++n) {
    nodes_.push_back(std::make_unique<BackendNode>(map_.AddNode(),
                                                   options_.store));
  }
  fanout_mode_.store(static_cast<int>(options_.query_fanout),
                     std::memory_order_relaxed);
  if (options_.query_threads > 0) {
    query_pool_ = std::make_unique<ThreadPool>(options_.query_threads,
                                               "cluster-query");
  }
}

std::size_t ClusterRouter::node_count() const { return nodes_.size(); }

std::string ClusterRouter::SubIndexName(const std::string& index,
                                        std::size_t shard) {
  return index + "#" + std::to_string(shard);
}

std::size_t ClusterRouter::AddNode() {
  std::scoped_lock lock(mu_);
  const std::size_t id = map_.AddNode();
  nodes_.push_back(std::make_unique<BackendNode>(id, options_.store));
  return id;
}

Status ClusterRouter::CrashNode(std::size_t id) {
  std::scoped_lock lock(mu_);
  if (id >= nodes_.size()) return InvalidArgument("no such node");
  BackendNode& node = *nodes_[id];
  if (!node.up_) return Status::Ok();
  std::scoped_lock apply_lock(node.apply_mu_);
  node.up_ = false;
  map_.SetLive(id, false);
  // Process death: everything node-local is gone. The replication log keeps
  // every acked entry a live owner still needs (compaction never passes a
  // live owner's watermark), so nothing acked is lost cluster-wide.
  node.store_ = std::make_unique<backend::ElasticStore>(node.store_options_);
  node.applied_.clear();
  node.dirty_.clear();
  for (auto& [name, ix] : indices_) {
    for (ShardLog& sl : ix.shards) {
      if (id < sl.applied_hint.size()) sl.applied_hint[id] = 0;
    }
  }
  return Status::Ok();
}

Status ClusterRouter::RestartNode(std::size_t id) {
  std::scoped_lock lock(mu_);
  if (id >= nodes_.size()) return InvalidArgument("no such node");
  BackendNode& node = *nodes_[id];
  if (node.up_) return Status::Ok();
  node.up_ = true;
  map_.SetLive(id, true);
  return Status::Ok();
}

Status ClusterRouter::SetReachable(std::size_t id, bool reachable) {
  std::scoped_lock lock(mu_);
  if (id >= nodes_.size()) return InvalidArgument("no such node");
  nodes_[id]->reachable_ = reachable;
  return Status::Ok();
}

Status ClusterRouter::SetThrottled(std::size_t id, bool throttled) {
  std::scoped_lock lock(mu_);
  if (id >= nodes_.size()) return InvalidArgument("no such node");
  nodes_[id]->throttled_ = throttled;
  return Status::Ok();
}

void ClusterRouter::HealAll() {
  std::vector<std::size_t> down;
  {
    std::scoped_lock lock(mu_);
    // nodes_ is in ascending id order, so `down` is too: restarts (and the
    // shard-owner promotions they trigger) happen in the same order no
    // matter which order the faults crashed the nodes in — deterministic
    // under the sim scheduler.
    for (const auto& node : nodes_) {
      node->reachable_ = true;
      node->throttled_ = false;
      if (!node->up_) down.push_back(node->id());
    }
  }
  for (const std::size_t id : down) (void)RestartNode(id);
  // Rejoined owners whose shard prefix was compacted bootstrap from a peer
  // snapshot now, so the follow-up Settle replays retained tails, never
  // history from seq 0.
  (void)CatchUpStranded();
}

std::size_t ClusterRouter::RequiredAcks(std::size_t owner_count) const {
  switch (options_.ack) {
    case AckLevel::kPrimary: return 1;
    case AckLevel::kQuorum: return owner_count / 2 + 1;
    case AckLevel::kAll: return owner_count;
  }
  return 1;
}

ClusterRouter::ApplyOutcome ClusterRouter::ApplyToStore(
    BackendNode& node, const std::string& index, std::size_t shard,
    const LogSlice& slice, std::uint64_t through_seq) {
  const std::string sub = SubIndexName(index, shard);
  ApplyOutcome out;
  // Lock order is strictly apply_mu_ OR mu_, never nested here: CrashNode
  // holds mu_ while wiping watermarks under apply_mu_, so nesting them the
  // other way round would deadlock. Router-side bookkeeping (NoteApplied)
  // happens after this mutex is released, re-validated against a
  // concurrent crash.
  std::scoped_lock apply_lock(node.apply_mu_);
  if (!node.up_) {
    out.status = Unavailable("node down");
    return out;
  }
  std::uint64_t& watermark = node.applied_[sub];
  if (watermark < slice.base) {
    // The prefix this node still needs was compacted away (wiped rejoin or
    // post-compaction promotion): it must bootstrap from a peer snapshot.
    out.needs_snapshot = true;
    out.status = FailedPrecondition(
        "node " + std::to_string(node.id()) + " watermark " +
        std::to_string(watermark) + " below compacted base " +
        std::to_string(slice.base) + " of " + sub);
    return out;
  }
  while (watermark <= through_seq) {
    const LogEntry* entry = slice.At(watermark);
    if (entry == nullptr) {
      out.status = Internal("replication log snapshot missing seq " +
                            std::to_string(watermark));
      return out;
    }
    out.modified = 0;
    if (entry->kind == LogEntry::Kind::kIngest) {
      if (!entry->wire.empty()) {
        node.store_->BulkWire(sub, entry->session, entry->wire);
      }
      if (!entry->docs.empty()) node.store_->Bulk(sub, entry->docs);
      node.dirty_.insert(sub);
    } else {
      // Update barrier: visibility first, then the same update-by-query
      // the single store ran. A shard that never received documents has
      // no sub-index; the update is vacuously applied. Consecutive update
      // entries share one refresh: only ingest applied since the last
      // barrier re-dirties the sub-index.
      if (node.store_->HasIndex(sub)) {
        if (node.dirty_.erase(sub) != 0) node.store_->Refresh(sub);
        auto result =
            node.store_->UpdateByQuery(sub, entry->query, entry->update);
        if (!result.ok()) {
          out.status = result.status();
          return out;
        }
        out.modified = *result;
      }
    }
    ++watermark;
    ++out.applied;
  }
  out.reached = watermark;
  return out;
}

void ClusterRouter::NoteApplied(const std::string& index, std::size_t shard,
                                const BackendNode& node, std::uint64_t reached,
                                std::size_t applied, bool sync) {
  std::scoped_lock lock(mu_);
  if (sync) {
    sync_applies_ += applied;
  } else {
    async_applies_ += applied;
  }
  auto it = indices_.find(index);
  // A crash between the apply and this bookkeeping zeroed the node's hints;
  // its store is gone, so the watermark we reached no longer describes it.
  if (it != indices_.end() && node.up_) {
    ShardLog& sl = it->second.shards[shard];
    if (sl.applied_hint.size() < nodes_.size()) {
      sl.applied_hint.resize(nodes_.size(), 0);
    }
    sl.applied_hint[node.id()] = std::max(sl.applied_hint[node.id()], reached);
  }
}

ClusterRouter::ApplyOutcome ClusterRouter::ApplyWithCatchUp(
    BackendNode& node, const std::string& index, std::size_t shard,
    const LogSlice& slice, std::uint64_t through_seq, bool sync) {
  ApplyOutcome out = ApplyToStore(node, index, shard, slice, through_seq);
  if (out.needs_snapshot) {
    if (Status snap = SnapshotCatchUp(index, shard, node.id()); !snap.ok()) {
      out.status = snap;
      return out;
    }
    out = ApplyToStore(node, index, shard, slice, through_seq);
    out.needs_snapshot = true;  // preserve "a snapshot happened" for callers
  }
  if (out.status.ok()) {
    NoteApplied(index, shard, node, out.reached, out.applied, sync);
  }
  return out;
}

Status ClusterRouter::SnapshotCatchUp(const std::string& index,
                                      std::size_t shard, std::size_t target) {
  const std::string sub = SubIndexName(index, shard);
  // Pick the source under a shared lock: the most-advanced up+reachable
  // owner at or past the compacted base (ties: lowest id — deterministic).
  std::size_t source_id = nodes_.size();
  {
    std::shared_lock lock(mu_);
    auto it = indices_.find(index);
    if (it == indices_.end()) return NotFound("no such index: " + index);
    const ShardLog& sl = it->second.shards[shard];
    const std::uint64_t base = sl.base_seq();
    std::uint64_t best_hint = 0;
    for (const std::size_t owner : map_.Owners(shard)) {
      if (owner == target) continue;
      const BackendNode& peer = *nodes_[owner];
      if (!peer.up_ || !peer.reachable_) continue;
      const std::uint64_t hint =
          owner < sl.applied_hint.size() ? sl.applied_hint[owner] : 0;
      if (hint < base) continue;
      if (source_id == nodes_.size() || hint > best_hint) {
        source_id = owner;
        best_hint = hint;
      }
    }
    if (source_id == nodes_.size()) {
      return Unavailable("cluster: no catch-up source for shard " +
                         std::to_string(shard) + " of " + index);
    }
  }

  // Freeze the source at its applied watermark and dump the whole
  // sub-index (rows come back in dense append order, so re-bulking them
  // reproduces byte-identical row ids and documents on the target).
  std::vector<Json> docs;
  std::uint64_t source_watermark = 0;
  {
    BackendNode& source = *nodes_[source_id];
    std::scoped_lock apply_lock(source.apply_mu_);
    if (!source.up_) return Unavailable("catch-up source crashed");
    auto wit = source.applied_.find(sub);
    source_watermark = wit == source.applied_.end() ? 0 : wit->second;
    if (source.store_->HasIndex(sub)) {
      source.store_->Refresh(sub);
      backend::SearchRequest all;
      all.size = std::numeric_limits<std::size_t>::max();
      auto hits = source.store_->Search(sub, all);
      if (!hits.ok() && hits.status().code() != ErrorCode::kNotFound) {
        return hits.status();
      }
      if (hits.ok()) {
        docs.reserve(hits->hits.size());
        for (backend::Hit& hit : hits->hits) {
          docs.push_back(std::move(hit.source));
        }
      }
    }
  }

  // Install on the target: replace its copy wholesale and adopt the source
  // watermark; the retained log tail replays on top via the normal path.
  const std::size_t copied = docs.size();
  {
    BackendNode& node = *nodes_[target];
    std::scoped_lock apply_lock(node.apply_mu_);
    if (!node.up_) return Unavailable("node down");
    std::uint64_t& watermark = node.applied_[sub];
    if (watermark >= source_watermark) return Status::Ok();  // raced ahead
    (void)node.store_->DeleteIndex(sub);
    if (!docs.empty()) {
      node.store_->Bulk(sub, std::move(docs));
      node.store_->Refresh(sub);
    }
    watermark = source_watermark;
  }

  snapshot_catchups_.fetch_add(1, std::memory_order_relaxed);
  snapshot_docs_copied_.fetch_add(copied, std::memory_order_relaxed);
  NoteApplied(index, shard, *nodes_[target], source_watermark, /*applied=*/0,
              /*sync=*/false);
  return Status::Ok();
}

Status ClusterRouter::Ingest(const std::string& index,
                             transport::EventBatch batch) {
  if (batch.empty()) return Status::Ok();
  // Deferred events materialize here (the far side of the queue hop, like
  // BulkClient); wire records stay binary end to end.
  if (!batch.events.empty()) {
    transport::EventBatch deferred;
    deferred.session = batch.session;
    deferred.events = std::move(batch.events);
    batch.events.clear();
    deferred.Materialize();
    for (Json& doc : deferred.documents) {
      batch.documents.push_back(std::move(doc));
    }
  }
  const std::uint64_t fingerprint = batch.Fingerprint();
  const std::size_t batch_events = batch.size();

  struct ShardWork {
    std::size_t shard = 0;
    std::vector<std::size_t> owners;
    std::size_t required = 0;
    LogSlice slice;
    std::uint64_t through_seq = 0;
  };
  std::vector<ShardWork> work;
  {
    std::scoped_lock lock(mu_);
    // Retry after a lost ack: the batch is already durable, ack it again.
    if (auto it = acked_fingerprints_.find(fingerprint);
        it != acked_fingerprints_.end()) {
      it->second += 1;
      duplicate_batches_ += 1;
      return Status::Ok();
    }

    // Split into per-shard slices, wire records first then documents — the
    // order BulkClient indexes a mixed batch, and the order global seqs
    // are assigned in.
    std::map<std::size_t, LogEntry> slices;
    std::vector<std::size_t> route;
    route.reserve(batch.wire.size() + batch.documents.size());
    for (const tracer::WireEvent& record : batch.wire) {
      route.push_back(map_.ShardOf(RoutingHash(record.tid, record.time_enter)));
    }
    for (const Json& doc : batch.documents) {
      route.push_back(map_.ShardOf(RoutingHashOfDoc(doc)));
    }

    // Ack feasibility — checked before any state changes so a rejected
    // batch leaves the router untouched and the retry stage can re-drive
    // it verbatim.
    std::map<std::size_t, std::pair<std::vector<std::size_t>, std::size_t>>
        shard_owners;
    for (const std::size_t shard : route) {
      if (shard_owners.count(shard) != 0) continue;
      std::vector<std::size_t> owners = map_.Owners(shard);
      if (owners.empty()) {
        rejected_batches_ += 1;
        rejected_events_ += batch_events;
        return Unavailable("cluster: no live nodes");
      }
      if (!nodes_[owners[0]]->reachable_) {
        rejected_batches_ += 1;
        rejected_events_ += batch_events;
        return Unavailable("cluster: shard " + std::to_string(shard) +
                           " primary unreachable");
      }
      const std::size_t required = RequiredAcks(owners.size());
      std::size_t reachable = 0;
      for (const std::size_t owner : owners) {
        if (nodes_[owner]->reachable_) ++reachable;
      }
      if (reachable < required) {
        rejected_batches_ += 1;
        rejected_events_ += batch_events;
        return Unavailable("cluster: shard " + std::to_string(shard) +
                           " has " + std::to_string(reachable) + "/" +
                           std::to_string(required) + " reachable owners");
      }
      shard_owners[shard] = {std::move(owners), required};
    }

    // Commit: assign global seqs in arrival order, append one log entry per
    // touched shard, and record the fingerprint so a concurrent or later
    // duplicate re-drive acks without re-applying.
    auto [ix_it, created] = indices_.try_emplace(index, map_.logical_shards());
    IndexState& ix = ix_it->second;
    std::size_t pos = 0;
    for (const tracer::WireEvent& record : batch.wire) {
      const std::size_t shard = route[pos++];
      slices[shard].session = batch.session;
      slices[shard].wire.push_back(record);
      ix.shards[shard].global_seqs.push_back(ix.next_global_seq++);
    }
    for (Json& doc : batch.documents) {
      const std::size_t shard = route[pos++];
      slices[shard].docs.push_back(std::move(doc));
      ix.shards[shard].global_seqs.push_back(ix.next_global_seq++);
    }
    for (auto& [shard, slice] : slices) {
      ShardLog& sl = ix.shards[shard];
      sl.Append(std::make_shared<const LogEntry>(std::move(slice)));
      log_appended_entries_ += 1;
      auto& [owners, required] = shard_owners[shard];
      work.push_back(ShardWork{shard, std::move(owners), required,
                               sl.Tail(), sl.end_seq() - 1});
    }
    ix.bulk_requests += 1;
    acked_fingerprints_[fingerprint] = 1;
    acked_batches_ += 1;
    acked_events_ += batch_events;
    // Previous batches' applies have advanced the hints by now; trimming
    // here (and on the pump) keeps steady-state log memory at O(lag).
    CompactLocked();
  }

  // Synchronous owner applications, primary first, until the ack level is
  // satisfied; remaining owners catch up via PumpReplication. Apply runs
  // outside the router mutex — per-(node, shard) order is enforced by the
  // node's applied-watermark.
  for (ShardWork& w : work) {
    std::size_t acked = 0;
    for (const std::size_t owner : w.owners) {
      if (acked >= w.required) break;
      BackendNode& node = *nodes_[owner];
      if (!node.reachable_) continue;
      // A crash racing this apply just defers the entry to the promoted
      // owners — it is already durable in the log.
      if (ApplyWithCatchUp(node, index, w.shard, w.slice, w.through_seq,
                           /*sync=*/true)
              .status.ok()) {
        ++acked;
      }
    }
  }
  return Status::Ok();
}

std::size_t ClusterRouter::PumpReplication(std::size_t max_applies) {
  struct Work {
    std::string index;
    std::size_t shard = 0;
    std::size_t node = 0;
    LogSlice slice;
    std::uint64_t through_seq = 0;
  };
  std::size_t budget = max_applies;
  std::size_t total = 0;
  // Collect-and-apply rounds: each round snapshots pending (entry, owner)
  // pairs in deterministic index/shard/owner order, applies them outside
  // the mutex, and repeats until the budget is spent or nothing is pending.
  while (budget > 0) {
    std::vector<Work> round;
    {
      std::scoped_lock lock(mu_);
      for (auto& [name, ix] : indices_) {
        for (std::size_t shard = 0; shard < ix.shards.size(); ++shard) {
          ShardLog& sl = ix.shards[shard];
          const std::uint64_t end = sl.end_seq();
          if (end == 0) continue;
          if (sl.applied_hint.size() < nodes_.size()) {
            sl.applied_hint.resize(nodes_.size(), 0);
          }
          for (const std::size_t owner : map_.Owners(shard)) {
            BackendNode& node = *nodes_[owner];
            // A throttled node is the `lag` fault: alive and readable but
            // slow to replicate, so the async pump defers it (its backlog
            // caps compaction until the throttle lifts).
            if (!node.up_ || !node.reachable_ || node.throttled_) continue;
            // An owner below the compacted base replays from the base after
            // its snapshot bootstrap (ApplyWithCatchUp handles both).
            const std::uint64_t from =
                std::max(sl.applied_hint[owner], sl.base_seq());
            if (from >= end) continue;
            const std::uint64_t want =
                std::min<std::uint64_t>(end - from, budget);
            round.push_back(Work{name, shard, owner, sl.Slice(from),
                                 from + want - 1});
            budget -= static_cast<std::size_t>(want);
            if (budget == 0) break;
          }
          if (budget == 0) break;
        }
        if (budget == 0) break;
      }
    }
    if (round.empty()) break;
    std::size_t round_applied = 0;
    std::size_t round_catchups = 0;
    for (Work& w : round) {
      const ApplyOutcome out =
          ApplyWithCatchUp(*nodes_[w.node], w.index, w.shard, w.slice,
                           w.through_seq, /*sync=*/false);
      round_applied += out.applied;
      if (out.needs_snapshot && out.status.ok()) ++round_catchups;
    }
    // No forward progress (owners raced away or every apply failed): stop
    // instead of re-collecting the same work forever. A snapshot catch-up
    // with an empty tail applies zero entries but is still progress.
    if (round_applied == 0 && round_catchups == 0) break;
    total += round_applied;
  }
  CompactLogs();
  return total;
}

std::size_t ClusterRouter::PendingApplies() const {
  std::shared_lock lock(mu_);
  std::size_t pending = 0;
  for (const auto& [name, ix] : indices_) {
    for (std::size_t shard = 0; shard < ix.shards.size(); ++shard) {
      const ShardLog& sl = ix.shards[shard];
      const std::uint64_t end = sl.end_seq();
      if (end == 0) continue;
      for (const std::size_t owner : map_.Owners(shard)) {
        const std::uint64_t hint = owner < sl.applied_hint.size()
                                       ? sl.applied_hint[owner]
                                       : 0;
        // An owner below the base catches up via snapshot + tail, so its
        // outstanding log work starts at the base.
        const std::uint64_t from = std::max(hint, sl.base_seq());
        if (from < end) pending += static_cast<std::size_t>(end - from);
      }
    }
  }
  return pending;
}

Status ClusterRouter::Settle() {
  for (;;) {
    // An owner stranded below a compacted log prefix has an EMPTY pending
    // window (the pump replays from the base), so the pump alone would
    // declare quiescence on a divergent cluster — e.g. a node added after
    // compaction. Snapshot-bootstrap those first.
    const std::size_t rescued = CatchUpStranded();
    const std::size_t applied =
        PumpReplication(std::numeric_limits<std::size_t>::max());
    const std::size_t pending = PendingApplies();
    if (pending == 0) return Status::Ok();
    if (applied == 0 && rescued == 0) {
      return Unavailable("cluster: " + std::to_string(pending) +
                         " applies pending behind unreachable owners");
    }
  }
}

std::size_t ClusterRouter::CompactLocked() {
  std::size_t dropped = 0;
  for (auto& [name, ix] : indices_) {
    for (std::size_t shard = 0; shard < ix.shards.size(); ++shard) {
      ShardLog& sl = ix.shards[shard];
      if (sl.retained_entries() == 0) continue;
      // Compaction floor: the minimum applied watermark over live owners.
      // Unreachable or throttled owners still cap it — their prefix must
      // stay replayable from the log so a healed partition never needs a
      // snapshot. Crashed nodes left the owner sets; a later rejoin takes
      // the snapshot path instead.
      std::uint64_t min_applied = std::numeric_limits<std::uint64_t>::max();
      bool any_owner = false;
      for (const std::size_t owner : map_.Owners(shard)) {
        if (!nodes_[owner]->up_) continue;
        any_owner = true;
        const std::uint64_t hint =
            owner < sl.applied_hint.size() ? sl.applied_hint[owner] : 0;
        min_applied = std::min(min_applied, hint);
      }
      if (!any_owner) continue;  // log is the only copy — keep everything
      const ShardLog::CompactStats stats =
          sl.CompactBelow(min_applied, options_.log_retain_batches);
      log_compacted_entries_ += stats.entries;
      log_compacted_bytes_ += stats.bytes;
      dropped += stats.entries;
    }
  }
  return dropped;
}

std::size_t ClusterRouter::CompactLogs() {
  std::scoped_lock lock(mu_);
  return CompactLocked();
}

std::size_t ClusterRouter::CatchUpStranded() {
  struct Target {
    std::string index;
    std::size_t shard = 0;
    std::size_t node = 0;
  };
  std::size_t done = 0;
  for (;;) {
    std::vector<Target> stranded;
    {
      std::shared_lock lock(mu_);
      for (const auto& [name, ix] : indices_) {
        for (std::size_t shard = 0; shard < ix.shards.size(); ++shard) {
          const ShardLog& sl = ix.shards[shard];
          const std::uint64_t base = sl.base_seq();
          if (base == 0) continue;
          for (const std::size_t owner : map_.Owners(shard)) {
            const BackendNode& node = *nodes_[owner];
            if (!node.up_ || !node.reachable_) continue;
            const std::uint64_t hint =
                owner < sl.applied_hint.size() ? sl.applied_hint[owner] : 0;
            if (hint < base) stranded.push_back({name, shard, owner});
          }
        }
      }
    }
    if (stranded.empty()) return done;
    std::size_t round = 0;
    for (const Target& t : stranded) {
      if (SnapshotCatchUp(t.index, t.shard, t.node).ok()) ++round;
    }
    if (round == 0) return done;
    done += round;
  }
}

std::uint64_t ClusterRouter::log_retained_entries() const {
  std::shared_lock lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [name, ix] : indices_) {
    for (const ShardLog& sl : ix.shards) total += sl.retained_entries();
  }
  return total;
}

std::uint64_t ClusterRouter::log_retained_bytes() const {
  std::shared_lock lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [name, ix] : indices_) {
    for (const ShardLog& sl : ix.shards) total += sl.retained_bytes();
  }
  return total;
}

void ClusterRouter::RunScatter(
    std::size_t n, const std::function<void(std::size_t)>& fn) const {
  if (n == 0) return;
  if (query_fanout() == QueryFanout::kSerial || query_pool_ == nullptr ||
      n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  fanout_queries_.fetch_add(1, std::memory_order_relaxed);
  fanout_shard_tasks_.fetch_add(n, std::memory_order_relaxed);
  // The store's RunPerShard pattern one tier up: task 0 on the caller, the
  // rest behind a per-call latch on the shared pool. Workers wait on
  // nothing but their own task (fn never touches mu_ or the pool), so
  // concurrent queries sharing the pool cannot deadlock.
  std::mutex mu;
  std::condition_variable cv;
  std::size_t remaining = n - 1;
  for (std::size_t i = 1; i < n; ++i) {
    query_pool_->Submit([&fn, i, &mu, &cv, &remaining] {
      fn(i);
      std::scoped_lock lock(mu);
      if (--remaining == 0) cv.notify_one();
    });
  }
  fn(0);
  std::unique_lock lock(mu);
  cv.wait(lock, [&remaining] { return remaining == 0; });
}

const BackendNode* ClusterRouter::ReaderFor(const IndexState& ix,
                                            std::size_t shard) const {
  const ShardLog& sl = ix.shards[shard];
  const BackendNode* best = nullptr;
  std::uint64_t best_hint = 0;
  for (const std::size_t owner : map_.Owners(shard)) {
    const BackendNode& node = *nodes_[owner];
    if (!node.up_ || !node.reachable_) continue;
    const std::uint64_t hint =
        owner < sl.applied_hint.size() ? sl.applied_hint[owner] : 0;
    if (best == nullptr || hint > best_hint) {
      best = &node;
      best_hint = hint;
    }
  }
  return best;
}

Expected<std::vector<std::pair<std::uint64_t, Json>>>
ClusterRouter::GatherMatches(const IndexState& ix, const std::string& index,
                             const backend::Query& query,
                             const std::vector<std::string>& source) const {
  // Scatter plan, built in shard order under the caller's (shared) lock:
  // one task per populated shard, reading only state the lock freezes
  // (reader stores, global-seq maps) so tasks are safe on pool workers.
  struct Task {
    std::size_t shard = 0;
    const backend::ElasticStore* store = nullptr;
    const std::vector<std::uint64_t>* gseqs = nullptr;
    Status status = Status::Ok();
    std::vector<std::pair<std::uint64_t, Json>> stream;
  };
  std::vector<Task> tasks;
  tasks.reserve(ix.shards.size());
  for (std::size_t shard = 0; shard < ix.shards.size(); ++shard) {
    const ShardLog& sl = ix.shards[shard];
    if (sl.global_seqs.empty()) continue;
    const BackendNode* reader = ReaderFor(ix, shard);
    if (reader == nullptr) {
      return Unavailable("cluster: shard " + std::to_string(shard) + " of " +
                         index + " has no reachable owner");
    }
    Task task;
    task.shard = shard;
    task.store = &reader->store();
    task.gseqs = &sl.global_seqs;
    tasks.push_back(std::move(task));
  }

  backend::SearchRequest scatter;
  scatter.query = query;
  scatter.size = std::numeric_limits<std::size_t>::max();
  scatter.source = source;
  RunScatter(tasks.size(), [&](std::size_t i) {
    Task& t = tasks[i];
    auto result = t.store->Search(SubIndexName(index, t.shard), scatter);
    if (!result.ok()) {
      if (result.status().code() != ErrorCode::kNotFound) {
        t.status = result.status();
      }
      return;
    }
    t.stream.reserve(result->hits.size());
    for (backend::Hit& hit : result->hits) {
      const std::size_t row = static_cast<std::size_t>(hit.id);
      if (row >= t.gseqs->size()) {
        t.status = Internal("cluster: shard " + std::to_string(t.shard) +
                            " row " + std::to_string(row) +
                            " beyond the global-seq map");
        t.stream.clear();
        return;
      }
      t.stream.emplace_back((*t.gseqs)[row], std::move(hit.source));
    }
  });
  // Error selection in shard order, identical for serial and parallel runs.
  for (const Task& t : tasks) {
    if (!t.status.ok()) return t.status;
  }
  std::vector<std::vector<std::pair<std::uint64_t, Json>>> streams;
  streams.reserve(tasks.size());
  for (Task& t : tasks) {
    if (!t.stream.empty()) streams.push_back(std::move(t.stream));
  }

  // K-way merge by global seq (each stream is ascending) — the cluster-wide
  // generalization of the store's per-sub-shard docid merge.
  std::vector<std::pair<std::uint64_t, Json>> merged;
  std::size_t total = 0;
  for (const auto& stream : streams) total += stream.size();
  merged.reserve(total);
  using Head = std::pair<std::uint64_t, std::size_t>;  // (gseq, stream)
  std::priority_queue<Head, std::vector<Head>, std::greater<>> heads;
  std::vector<std::size_t> cursor(streams.size(), 0);
  for (std::size_t s = 0; s < streams.size(); ++s) {
    heads.emplace(streams[s][0].first, s);
  }
  while (!heads.empty()) {
    const auto [gseq, s] = heads.top();
    heads.pop();
    merged.push_back(std::move(streams[s][cursor[s]]));
    if (++cursor[s] < streams[s].size()) {
      heads.emplace(streams[s][cursor[s]].first, s);
    }
  }
  return merged;
}

Expected<backend::SearchResult> ClusterRouter::Search(
    const std::string& index, const backend::SearchRequest& request) const {
  std::shared_lock lock(mu_);
  auto it = indices_.find(index);
  if (it == indices_.end()) return NotFound("no such index: " + index);
  if (query_fanout() == QueryFanout::kSerial) {
    return SearchGatherAll(it->second, index, request);
  }
  return SearchPushdown(it->second, index, request);
}

Expected<backend::SearchResult> ClusterRouter::SearchGatherAll(
    const IndexState& ix, const std::string& index,
    const backend::SearchRequest& request) const {
  const std::vector<std::string> scatter_source = ScatterSource(request);
  auto merged = GatherMatches(ix, index, request.query, scatter_source);
  if (!merged.ok()) return merged.status();

  if (!request.sort.empty()) {
    // Input is ascending global seq, so a stable sort without a tiebreak
    // reproduces the single store's docid tiebreak.
    std::stable_sort(merged->begin(), merged->end(),
                     [&](const auto& a, const auto& b) {
                       return backend::JsonSortBefore(request.sort, a.second,
                                                      b.second);
                     });
  }

  backend::SearchResult result;
  result.total = merged->size();
  const std::size_t start = std::min(request.from, merged->size());
  const std::size_t end = std::min(start + request.size, merged->size());
  result.hits.reserve(end - start);
  for (std::size_t i = start; i < end; ++i) {
    auto& [gseq, doc] = (*merged)[i];
    result.hits.push_back(backend::Hit{
        gseq, RequestedSource(request, scatter_source.size(), std::move(doc))});
  }
  return result;
}

Expected<backend::SearchResult> ClusterRouter::SearchPushdown(
    const IndexState& ix, const std::string& index,
    const backend::SearchRequest& request) const {
  struct Task {
    std::size_t shard = 0;
    const backend::ElasticStore* store = nullptr;
    const std::vector<std::uint64_t>* gseqs = nullptr;
    Status status = Status::Ok();
    std::size_t matched = 0;
    std::vector<std::pair<std::uint64_t, Json>> stream;
  };
  std::vector<Task> tasks;
  tasks.reserve(ix.shards.size());
  for (std::size_t shard = 0; shard < ix.shards.size(); ++shard) {
    const ShardLog& sl = ix.shards[shard];
    if (sl.global_seqs.empty()) continue;
    const BackendNode* reader = ReaderFor(ix, shard);
    if (reader == nullptr) {
      return Unavailable("cluster: shard " + std::to_string(shard) + " of " +
                         index + " has no reachable owner");
    }
    Task task;
    task.shard = shard;
    task.store = &reader->store();
    task.gseqs = &sl.global_seqs;
    tasks.push_back(std::move(task));
  }

  // Each shard only needs its own top `from+size` (saturating): within a
  // shard, docid order IS global-seq order, so the store's (sort keys,
  // docid) ranking equals (sort keys, gseq) — any hit beyond a shard's
  // first `want` cannot make the global first `want` either.
  const std::size_t want =
      request.size > std::numeric_limits<std::size_t>::max() - request.from
          ? std::numeric_limits<std::size_t>::max()
          : request.from + request.size;
  backend::SearchRequest scatter;
  scatter.query = request.query;
  scatter.sort = request.sort;
  scatter.size = want;
  scatter.source = ScatterSource(request);
  RunScatter(tasks.size(), [&](std::size_t i) {
    Task& t = tasks[i];
    auto result = t.store->Search(SubIndexName(index, t.shard), scatter);
    if (!result.ok()) {
      if (result.status().code() != ErrorCode::kNotFound) {
        t.status = result.status();
      }
      return;
    }
    t.matched = result->total;
    t.stream.reserve(result->hits.size());
    for (backend::Hit& hit : result->hits) {
      const std::size_t row = static_cast<std::size_t>(hit.id);
      if (row >= t.gseqs->size()) {
        t.status = Internal("cluster: shard " + std::to_string(t.shard) +
                            " row " + std::to_string(row) +
                            " beyond the global-seq map");
        t.stream.clear();
        return;
      }
      t.stream.emplace_back((*t.gseqs)[row], std::move(hit.source));
    }
  });
  // Error selection in shard order, identical for serial and parallel runs.
  for (const Task& t : tasks) {
    if (!t.status.ok()) return t.status;
  }

  backend::SearchResult out;
  std::vector<std::vector<std::pair<std::uint64_t, Json>>> streams;
  streams.reserve(tasks.size());
  for (Task& t : tasks) {
    out.total += t.matched;
    if (!t.stream.empty()) streams.push_back(std::move(t.stream));
  }

  // K-way merge of the per-shard runs under the store's total order
  // (sort keys first, ascending gseq as the tiebreak — or plain gseq when
  // unsorted), stopping once the page is filled.
  const auto before = [&](const std::pair<std::uint64_t, Json>& a,
                          const std::pair<std::uint64_t, Json>& b) {
    if (!request.sort.empty()) {
      if (backend::JsonSortBefore(request.sort, a.second, b.second)) {
        return true;
      }
      if (backend::JsonSortBefore(request.sort, b.second, a.second)) {
        return false;
      }
    }
    return a.first < b.first;
  };
  std::vector<std::size_t> cursor(streams.size(), 0);
  // Heap of stream indices; a stream's head entry is stable while queued.
  const auto head_after = [&](std::size_t a, std::size_t b) {
    return before(streams[b][cursor[b]], streams[a][cursor[a]]);
  };
  std::priority_queue<std::size_t, std::vector<std::size_t>,
                      decltype(head_after)>
      heads(head_after);
  for (std::size_t s = 0; s < streams.size(); ++s) heads.push(s);
  std::size_t emitted = 0;
  out.hits.reserve(want == std::numeric_limits<std::size_t>::max()
                       ? std::size_t{0}
                       : want - std::min(request.from, want));
  while (!heads.empty() && emitted < want) {
    const std::size_t s = heads.top();
    heads.pop();
    auto& entry = streams[s][cursor[s]];
    if (emitted >= request.from) {
      out.hits.push_back(backend::Hit{
          entry.first, RequestedSource(request, scatter.source.size(),
                                       std::move(entry.second))});
    }
    ++emitted;
    if (++cursor[s] < streams[s].size()) heads.push(s);
  }
  return out;
}

Expected<std::size_t> ClusterRouter::Count(const std::string& index,
                                           const backend::Query& query) const {
  std::shared_lock lock(mu_);
  auto it = indices_.find(index);
  if (it == indices_.end()) return NotFound("no such index: " + index);
  const IndexState& ix = it->second;
  struct Task {
    std::size_t shard = 0;
    const backend::ElasticStore* store = nullptr;
    Status status = Status::Ok();
    std::size_t count = 0;
  };
  std::vector<Task> tasks;
  tasks.reserve(ix.shards.size());
  for (std::size_t shard = 0; shard < ix.shards.size(); ++shard) {
    if (ix.shards[shard].global_seqs.empty()) continue;
    const BackendNode* reader = ReaderFor(ix, shard);
    if (reader == nullptr) {
      return Unavailable("cluster: shard " + std::to_string(shard) + " of " +
                         index + " has no reachable owner");
    }
    Task task;
    task.shard = shard;
    task.store = &reader->store();
    tasks.push_back(std::move(task));
  }
  RunScatter(tasks.size(), [&](std::size_t i) {
    Task& t = tasks[i];
    auto count = t.store->Count(SubIndexName(index, t.shard), query);
    if (!count.ok()) {
      if (count.status().code() != ErrorCode::kNotFound) {
        t.status = count.status();
      }
      return;
    }
    t.count = *count;
  });
  std::size_t total = 0;
  for (const Task& t : tasks) {
    if (!t.status.ok()) return t.status;
    total += t.count;
  }
  return total;
}

Expected<backend::AggResult> ClusterRouter::Aggregate(
    const std::string& index, const backend::Query& query,
    const backend::Aggregation& agg) const {
  std::shared_lock lock(mu_);
  auto it = indices_.find(index);
  if (it == indices_.end()) return NotFound("no such index: " + index);
  if (query_fanout() == QueryFanout::kSerial) {
    return AggregateGatherAll(it->second, index, query, agg);
  }
  return AggregatePushdown(it->second, index, query, agg);
}

Expected<backend::AggResult> ClusterRouter::AggregateGatherAll(
    const IndexState& ix, const std::string& index,
    const backend::Query& query, const backend::Aggregation& agg) const {
  auto merged = GatherMatches(ix, index, query);
  if (!merged.ok()) return merged.status();
  std::vector<const Json*> docs;
  std::vector<std::uint64_t> gseqs;
  docs.reserve(merged->size());
  gseqs.reserve(merged->size());
  for (const auto& [gseq, doc] : *merged) {
    docs.push_back(&doc);
    gseqs.push_back(gseq);
  }
  return agg.Execute(docs, gseqs);
}

Expected<backend::AggResult> ClusterRouter::AggregatePushdown(
    const IndexState& ix, const std::string& index,
    const backend::Query& query, const backend::Aggregation& agg) const {
  struct Task {
    std::size_t shard = 0;
    const backend::ElasticStore* store = nullptr;
    const std::vector<std::uint64_t>* gseqs = nullptr;
    Status status = Status::Ok();
    bool has_partial = false;
    backend::AggPartial partial;
  };
  std::vector<Task> tasks;
  tasks.reserve(ix.shards.size());
  for (std::size_t shard = 0; shard < ix.shards.size(); ++shard) {
    if (ix.shards[shard].global_seqs.empty()) continue;
    const BackendNode* reader = ReaderFor(ix, shard);
    if (reader == nullptr) {
      return Unavailable("cluster: shard " + std::to_string(shard) + " of " +
                         index + " has no reachable owner");
    }
    Task task;
    task.shard = shard;
    task.store = &reader->store();
    task.gseqs = &ix.shards[shard].global_seqs;
    tasks.push_back(std::move(task));
  }
  // Grouping, extraction, and per-shard value sorts all run inside the
  // shard task (columnar, no per-document Json materialization); the gather
  // half only folds the partials, in shard order. Exact for integer-valued
  // fields; see AggPartial for the float `sum` reassociation caveat.
  // top_hits winners carry the shard's row numbers, mapped to global seqs
  // here so the merge breaks ties as a single store breaks them by docid.
  RunScatter(tasks.size(), [&](std::size_t i) {
    Task& t = tasks[i];
    auto partial =
        t.store->AggregatePartial(SubIndexName(index, t.shard), query, agg);
    if (!partial.ok()) {
      if (partial.status().code() != ErrorCode::kNotFound) {
        t.status = partial.status();
      }
      return;
    }
    if (!agg.MapDocIds(*partial, *t.gseqs)) {
      t.status = Internal("cluster: shard " + std::to_string(t.shard) +
                          " top_hits row beyond the global-seq map");
      return;
    }
    t.partial = std::move(*partial);
    t.has_partial = true;
  });
  for (const Task& t : tasks) {
    if (!t.status.ok()) return t.status;
  }
  backend::AggPartial merged;
  for (Task& t : tasks) {
    if (t.has_partial) agg.MergePartial(merged, std::move(t.partial));
  }
  return agg.FinalizePartial(std::move(merged));
}

Expected<std::size_t> ClusterRouter::UpdateByQuery(
    const std::string& index, const backend::Query& query,
    const std::function<bool(Json&)>& update) {
  struct ShardWork {
    std::size_t shard = 0;
    std::vector<std::size_t> owners;
    LogSlice slice;
    std::uint64_t through_seq = 0;
  };
  std::vector<ShardWork> work;
  {
    std::scoped_lock lock(mu_);
    auto it = indices_.find(index);
    if (it == indices_.end()) return NotFound("no such index: " + index);
    IndexState& ix = it->second;
    // Updates are an index-wide barrier applied on every owner, so they
    // require the whole owner set reachable — otherwise a healed replica
    // would diverge (document contents cannot be reconciled by seq alone).
    std::vector<std::vector<std::size_t>> owner_sets(ix.shards.size());
    for (std::size_t shard = 0; shard < ix.shards.size(); ++shard) {
      owner_sets[shard] = map_.Owners(shard);
      if (owner_sets[shard].empty()) {
        return Unavailable("cluster: no live nodes");
      }
      for (const std::size_t owner : owner_sets[shard]) {
        if (!nodes_[owner]->reachable_) {
          return Unavailable("cluster: update-by-query needs every owner; "
                             "node " + std::to_string(owner) +
                             " is unreachable");
        }
      }
    }
    for (std::size_t shard = 0; shard < ix.shards.size(); ++shard) {
      ShardLog& sl = ix.shards[shard];
      auto entry = std::make_shared<LogEntry>();
      entry->kind = LogEntry::Kind::kUpdate;
      entry->query = query;
      entry->update = update;
      sl.Append(std::move(entry));
      log_appended_entries_ += 1;
      work.push_back(ShardWork{shard, std::move(owner_sets[shard]),
                               sl.Tail(), sl.end_seq() - 1});
    }
    ix.updates += 1;
  }

  // Apply the barrier on every owner of every shard. The per-shard tasks
  // fan out on the query pool but touch only node apply mutexes
  // (ApplyToStore); router bookkeeping and the stranded path run on this
  // thread after the join, in shard order — byte-deterministic either way.
  struct OwnerOutcome {
    std::size_t owner = 0;
    ApplyOutcome out;
  };
  std::vector<std::vector<OwnerOutcome>> results(work.size());
  RunScatter(work.size(), [&](std::size_t i) {
    ShardWork& w = work[i];
    results[i].reserve(w.owners.size());
    for (const std::size_t owner : w.owners) {
      OwnerOutcome oo;
      oo.owner = owner;
      oo.out = ApplyToStore(*nodes_[owner], index, w.shard, w.slice,
                            w.through_seq);
      results[i].push_back(std::move(oo));
    }
  });

  std::size_t modified = 0;
  Status first_error = Status::Ok();
  for (std::size_t i = 0; i < work.size(); ++i) {
    bool primary = true;
    for (OwnerOutcome& oo : results[i]) {
      ApplyOutcome& out = oo.out;
      if (out.needs_snapshot) {
        // Rare: an owner promoted past a compacted prefix between the
        // barrier append and the apply. Bootstrap it here, serially.
        const Status snap = SnapshotCatchUp(index, work[i].shard, oo.owner);
        if (snap.ok()) {
          out = ApplyToStore(*nodes_[oo.owner], index, work[i].shard,
                             work[i].slice, work[i].through_seq);
        } else {
          out.status = snap;
        }
      }
      if (out.status.ok()) {
        NoteApplied(index, work[i].shard, *nodes_[oo.owner], out.reached,
                    out.applied, /*sync=*/true);
        // Owners converge, so every owner reports the same count; take the
        // primary's.
        if (primary) modified += out.modified;
      } else if (first_error.ok()) {
        first_error = out.status;
      }
      primary = false;
    }
  }
  if (!first_error.ok()) return first_error;
  return modified;
}

void ClusterRouter::Refresh(const std::string& index) {
  // Shared: Search, Count, Aggregate and Stats keep running while the node
  // stores refresh; CrashNode, RestartNode and AddNode take mu_ exclusively
  // and so still exclude it.
  std::shared_lock lock(mu_);
  if (!indices_.contains(index)) return;
  const std::string prefix = index + "#";
  for (const auto& node : nodes_) {
    // Only sub-indices with ingest applied since their last refresh are
    // visited. The refresh happens under the node's apply mutex, like an
    // update barrier's, so a barrier never finds a sub-index clean whose
    // refresh is still to come.
    std::scoped_lock apply_lock(node->apply_mu_);
    if (!node->up_) continue;
    auto it = node->dirty_.lower_bound(prefix);
    while (it != node->dirty_.end() && it->starts_with(prefix)) {
      if (it->find('#', prefix.size()) != std::string::npos) {
        ++it;  // a sub-index of another index whose name extends this one
        continue;
      }
      node->store_->Refresh(*it);
      it = node->dirty_.erase(it);
    }
  }
}

bool ClusterRouter::HasIndex(const std::string& index) const {
  std::shared_lock lock(mu_);
  return indices_.count(index) != 0;
}

Expected<backend::IndexStats> ClusterRouter::Stats(
    const std::string& index) const {
  std::shared_lock lock(mu_);
  auto it = indices_.find(index);
  if (it == indices_.end()) return NotFound("no such index: " + index);
  const IndexState& ix = it->second;
  backend::IndexStats stats;
  stats.bulk_requests = ix.bulk_requests;
  stats.updates = ix.updates;
  stats.fanout_queries = fanout_queries_.load(std::memory_order_relaxed);
  stats.fanout_shard_tasks =
      fanout_shard_tasks_.load(std::memory_order_relaxed);
  for (std::size_t shard = 0; shard < ix.shards.size(); ++shard) {
    if (ix.shards[shard].global_seqs.empty()) continue;
    const BackendNode* reader = ReaderFor(ix, shard);
    if (reader == nullptr) {
      return Unavailable("cluster: shard " + std::to_string(shard) + " of " +
                         index + " has no reachable owner");
    }
    auto sub = reader->store().Stats(SubIndexName(index, shard));
    if (!sub.ok()) {
      if (sub.status().code() == ErrorCode::kNotFound) continue;
      return sub.status();
    }
    stats.doc_count += sub->doc_count;
    stats.pending_count += sub->pending_count;
    stats.typed_rows += sub->typed_rows;
    stats.doc_value_fields += sub->doc_value_fields;
    stats.column_build_ns += sub->column_build_ns;
    stats.filter_cache_hits += sub->filter_cache_hits;
    stats.filter_cache_misses += sub->filter_cache_misses;
    stats.filter_cache_evictions += sub->filter_cache_evictions;
    stats.segments += sub->segments;
    stats.sealed_segments += sub->sealed_segments;
    stats.refreshes += sub->refreshes;
    stats.refresh_pause_ns.insert(stats.refresh_pause_ns.end(),
                                  sub->refresh_pause_ns.begin(),
                                  sub->refresh_pause_ns.end());
  }
  return stats;
}

Json ClusterRouter::HealthJson() const {
  std::shared_lock lock(mu_);
  Json out = Json::MakeObject();

  Json nodes = Json::MakeArray();
  for (const auto& node : nodes_) {
    Json n = Json::MakeObject();
    n.Set("id", static_cast<std::int64_t>(node->id()));
    n.Set("up", node->up());
    n.Set("reachable", node->reachable());
    n.Set("throttled", node->throttled());
    nodes.Append(std::move(n));
  }
  out.Set("nodes", std::move(nodes));

  Json fanout = Json::MakeObject();
  fanout.Set("mode", std::string(ToString(query_fanout())));
  fanout.Set("threads", static_cast<std::int64_t>(options_.query_threads));
  fanout.Set("queries", static_cast<std::int64_t>(
                            fanout_queries_.load(std::memory_order_relaxed)));
  fanout.Set("shard_tasks",
             static_cast<std::int64_t>(
                 fanout_shard_tasks_.load(std::memory_order_relaxed)));
  out.Set("query_fanout", std::move(fanout));

  // Replication/log counters plus per-index watermark lag: for each shard,
  // lag = end_seq - min live-owner hint (0 when fully applied).
  std::uint64_t retained_entries = 0;
  std::uint64_t retained_bytes = 0;
  std::uint64_t pending = 0;
  Json indices = Json::MakeArray();
  for (const auto& [name, ix] : indices_) {
    std::uint64_t max_lag = 0;
    std::uint64_t min_applied =
        std::numeric_limits<std::uint64_t>::max();
    std::uint64_t max_applied = 0;
    bool any = false;
    for (std::size_t shard = 0; shard < ix.shards.size(); ++shard) {
      const ShardLog& sl = ix.shards[shard];
      retained_entries += sl.retained_entries();
      retained_bytes += sl.retained_bytes();
      const std::uint64_t end = sl.end_seq();
      if (end == 0) continue;
      for (const std::size_t owner : map_.Owners(shard)) {
        if (!nodes_[owner]->up_) continue;
        const std::uint64_t hint =
            owner < sl.applied_hint.size() ? sl.applied_hint[owner] : 0;
        const std::uint64_t from = std::max(hint, sl.base_seq());
        const std::uint64_t lag = end - std::min(end, from);
        pending += lag;
        max_lag = std::max(max_lag, lag);
        min_applied = std::min(min_applied, hint);
        max_applied = std::max(max_applied, hint);
        any = true;
      }
    }
    Json entry = Json::MakeObject();
    entry.Set("index", name);
    entry.Set("max_replication_lag", static_cast<std::int64_t>(max_lag));
    entry.Set("min_applied_watermark",
              static_cast<std::int64_t>(any ? min_applied : 0));
    entry.Set("max_applied_watermark",
              static_cast<std::int64_t>(max_applied));
    indices.Append(std::move(entry));
  }
  out.Set("indices", std::move(indices));

  Json log = Json::MakeObject();
  log.Set("appended_entries",
          static_cast<std::int64_t>(log_appended_entries_));
  log.Set("compacted_entries",
          static_cast<std::int64_t>(log_compacted_entries_));
  log.Set("compacted_bytes", static_cast<std::int64_t>(log_compacted_bytes_));
  log.Set("retained_entries", static_cast<std::int64_t>(retained_entries));
  log.Set("retained_bytes", static_cast<std::int64_t>(retained_bytes));
  log.Set("retain_batches",
          static_cast<std::int64_t>(options_.log_retain_batches));
  out.Set("replication_log", std::move(log));

  Json repl = Json::MakeObject();
  repl.Set("pending_applies", static_cast<std::int64_t>(pending));
  repl.Set("sync_applies", static_cast<std::int64_t>(sync_applies_));
  repl.Set("async_applies", static_cast<std::int64_t>(async_applies_));
  repl.Set("snapshot_catchups", static_cast<std::int64_t>(
                                    snapshot_catchups()));
  repl.Set("snapshot_docs_copied",
           static_cast<std::int64_t>(snapshot_docs_copied()));
  out.Set("replication", std::move(repl));
  return out;
}

std::vector<std::string> ClusterRouter::VerifyConvergence(
    const std::string& index) const {
  std::shared_lock lock(mu_);
  std::vector<std::string> violations;
  auto it = indices_.find(index);
  if (it == indices_.end()) return violations;
  const IndexState& ix = it->second;

  backend::SearchRequest all;
  all.size = std::numeric_limits<std::size_t>::max();
  for (std::size_t shard = 0; shard < ix.shards.size(); ++shard) {
    const std::string sub = SubIndexName(index, shard);
    const std::vector<std::size_t> owners = map_.Owners(shard);
    // Reference replica = the first up owner; every other up owner must be
    // byte-identical (unreachable-but-up nodes included — after a heal and
    // Settle a partition must leave no trace).
    std::string reference;
    std::size_t reference_owner = 0;
    bool have_reference = false;
    for (const std::size_t owner : owners) {
      const BackendNode& node = *nodes_[owner];
      if (!node.up_) continue;
      std::string dump;
      auto result = node.store_->Search(sub, all);
      if (result.ok()) {
        for (const backend::Hit& hit : result->hits) {
          dump += std::to_string(hit.id);
          dump += '|';
          dump += hit.source.Dump();
          dump += '\n';
        }
      } else if (result.status().code() != ErrorCode::kNotFound) {
        violations.push_back("shard " + std::to_string(shard) + " node " +
                             std::to_string(owner) + ": " +
                             std::string(result.status().message()));
        continue;
      }
      if (!have_reference) {
        reference = std::move(dump);
        reference_owner = owner;
        have_reference = true;
      } else if (dump != reference) {
        violations.push_back(
            "shard " + std::to_string(shard) + ": replica on node " +
            std::to_string(owner) + " diverges from node " +
            std::to_string(reference_owner) + " (" +
            std::to_string(dump.size()) + " vs " +
            std::to_string(reference.size()) + " dump bytes)");
      }
    }
  }
  return violations;
}

}  // namespace dio::cluster
