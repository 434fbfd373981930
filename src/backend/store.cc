#include "backend/store.h"

#include <algorithm>
#include <condition_variable>
#include <fstream>
#include <limits>
#include <numeric>
#include <optional>
#include <thread>
#include <tuple>

#include "backend/correlation.h"
#include "backend/simd_kernels.h"
#include "backend/typed_ingest.h"
#include "tracer/event.h"

namespace dio::backend {

namespace {

// The JSON rows behind one segment of a sub-shard.
std::span<const Json> SegmentDocs(const std::vector<Json>& docs,
                                  const ColumnSegment& segment) {
  return {docs.data() + segment.base, segment.rows()};
}

// The segment's slice of a sub-shard's typed-row flags (one per row, like
// the row store).
std::span<const std::uint8_t> SegmentTyped(
    const std::vector<std::uint8_t>& typed, const ColumnSegment& segment) {
  return {typed.data() + segment.base, segment.rows()};
}

// A copy of `rows` with room for `more` appends, when appending them in
// place would reallocate; nullopt when there is room already.
template <typename T>
std::optional<std::vector<T>> GrownCopy(const std::vector<T>& rows,
                                        std::size_t more) {
  if (rows.capacity() >= rows.size() + more) return std::nullopt;
  std::vector<T> grown;
  grown.reserve(std::max(rows.size() + more, 2 * rows.capacity()));
  grown.assign(rows.begin(), rows.end());
  return grown;
}

// The segment's rows that match `query`, built from (and feeding) the
// segment's bitmap cache.
FilterBitmap SegmentMatches(const std::vector<Json>& docs,
                            const ColumnSegment& segment, const Query& query) {
  return CompiledQuery(query, segment.columns)
      .Eval(SegmentDocs(docs, segment), &segment.cache);
}

}  // namespace

Expected<ElasticStoreOptions> ElasticStoreOptions::FromConfig(
    const Config& config) {
  WarnUnknownKeys(config, "backend",
                  {"shards_per_index", "query_threads", "typed_ingest",
                   "simd_kernels", "max_result_window", "segment_docs",
                   "filter_cache_entries"});
  ElasticStoreOptions opts;
  for (auto [key, field, min] :
       {std::tuple{"backend.shards_per_index", &opts.shards_per_index, 1},
        std::tuple{"backend.query_threads", &opts.query_threads, 0},
        std::tuple{"backend.max_result_window", &opts.max_result_window, 1},
        std::tuple{"backend.segment_docs", &opts.segment_docs, 1},
        std::tuple{"backend.filter_cache_entries", &opts.filter_cache_entries,
                   0}}) {
    auto value = GetCount(config, key, *field, min);
    if (!value.ok()) return value.status();
    *field = *value;
  }
  opts.typed_ingest =
      config.GetBool("backend.typed_ingest", opts.typed_ingest);
  opts.simd_kernels =
      config.GetBool("backend.simd_kernels", opts.simd_kernels);
  return opts;
}

ElasticStore::Index::Index(std::size_t num_shards, std::size_t segment_docs,
                           std::size_t cache_entries) {
  shards.reserve(num_shards);
  lanes.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    auto shard = std::make_unique<SubShard>(segment_docs, cache_entries);
    shard->shard_index = s;
    shard->stride = num_shards;
    shards.push_back(std::move(shard));
    lanes.push_back(std::make_unique<IngestLane>());
  }
}

// Row-oriented view of an index's rows for one request, honouring its
// source projection: JSON rows copy the stored document; typed rows are
// rebuilt from the columns through one WireDocBuilder per (shard, segment),
// resolved on first use. Byte-identical to what the JSON route would
// return. The caller holds refresh_mu for the reader's lifetime.
class ElasticStore::RowReader {
 public:
  RowReader(const Index& index, std::span<const std::string> fields)
      : index_(index), fields_(fields), builders_(index.num_shards()) {}

  [[nodiscard]] Json Read(DocId id) {
    const std::size_t num_shards = index_.num_shards();
    const std::size_t s = static_cast<std::size_t>(id) % num_shards;
    const std::size_t pos = static_cast<std::size_t>(id) / num_shards;
    const SubShard& shard = *index_.shards[s];
    if (!shard.IsTyped(pos)) return ProjectFields(shard.docs[pos], fields_);
    const SegmentedColumns& segments = shard.segments;
    const std::size_t seg = segments.SegmentIndexFor(pos);
    auto& per_segment = builders_[s];
    if (per_segment.size() <= seg) per_segment.resize(seg + 1);
    if (!per_segment[seg].has_value()) {
      per_segment[seg].emplace(segments.segments()[seg]->columns, fields_);
    }
    return per_segment[seg]->Build(segments.LocalPos(pos));
  }

 private:
  const Index& index_;
  std::span<const std::string> fields_;
  std::vector<std::vector<std::optional<WireDocBuilder>>> builders_;
};

ElasticStore::ElasticStore(std::size_t shards_per_index)
    : ElasticStore([shards_per_index] {
        ElasticStoreOptions opts;
        opts.shards_per_index = shards_per_index;
        return opts;
      }()) {}

ElasticStore::ElasticStore(const ElasticStoreOptions& options)
    : options_([&options] {
        ElasticStoreOptions opts = options;
        opts.shards_per_index = std::max<std::size_t>(1, opts.shards_per_index);
        opts.segment_docs = std::max<std::size_t>(1, opts.segment_docs);
        return opts;
      }()) {
  if (options_.query_threads > 0) {
    query_pool_ =
        std::make_unique<ThreadPool>(options_.query_threads, "es:query");
  }
  // The kernel switch is process-wide (the kernels are free functions under
  // the bitmap/column types); the most recently constructed store wins,
  // which in practice is the one store a process runs.
  simd::SetEnabled(options_.simd_kernels);
}

Status ElasticStore::CreateIndex(const std::string& name) {
  std::unique_lock lock(indices_mu_);
  if (indices_.contains(name)) {
    return AlreadyExists("index exists: " + name);
  }
  indices_[name] = std::make_shared<Index>(
      options_.shards_per_index, options_.segment_docs,
      options_.filter_cache_entries);
  return Status::Ok();
}

Status ElasticStore::DeleteIndex(const std::string& name) {
  std::unique_lock lock(indices_mu_);
  if (indices_.erase(name) == 0) return NotFound("no such index: " + name);
  return Status::Ok();
}

std::vector<std::string> ElasticStore::ListIndices() const {
  std::shared_lock lock(indices_mu_);
  std::vector<std::string> names;
  names.reserve(indices_.size());
  for (const auto& [name, index] : indices_) names.push_back(name);
  return names;
}

bool ElasticStore::HasIndex(const std::string& name) const {
  std::shared_lock lock(indices_mu_);
  return indices_.contains(name);
}

std::shared_ptr<ElasticStore::Index> ElasticStore::Find(
    const std::string& name) {
  std::shared_lock lock(indices_mu_);
  auto it = indices_.find(name);
  return it == indices_.end() ? nullptr : it->second;
}

std::shared_ptr<const ElasticStore::Index> ElasticStore::Find(
    const std::string& name) const {
  std::shared_lock lock(indices_mu_);
  auto it = indices_.find(name);
  return it == indices_.end() ? nullptr : it->second;
}

std::shared_ptr<ElasticStore::Index> ElasticStore::FindOrCreate(
    const std::string& name) {
  if (std::shared_ptr<Index> index = Find(name)) return index;
  // Auto-create (like ES with auto_create_index on).
  std::unique_lock lock(indices_mu_);
  auto it = indices_.find(name);
  if (it == indices_.end()) {
    it = indices_
             .emplace(name, std::make_shared<Index>(
                                options_.shards_per_index,
                                options_.segment_docs,
                                options_.filter_cache_entries))
             .first;
  }
  return it->second;
}

void ElasticStore::Bulk(const std::string& index_name,
                        std::vector<Json> documents) {
  const std::shared_ptr<Index> index = FindOrCreate(index_name);
  index->bulk_requests.fetch_add(1, std::memory_order_relaxed);
  // The sequence number fixes this batch's place in ingestion (docid)
  // order; the lane it lands on only spreads lock contention.
  const std::uint64_t seq =
      index->bulk_seq.fetch_add(1, std::memory_order_relaxed);
  IngestLane& lane = *index->lanes[seq % index->lanes.size()];
  std::scoped_lock lock(lane.mu);
  lane.batches.push_back(PendingBatch{seq, std::move(documents), {}, {}});
}

void ElasticStore::BulkWire(const std::string& index_name,
                            std::string_view session,
                            std::vector<tracer::WireEvent> records) {
  if (!options_.typed_ingest) {
    // Parity fallback: same documents, same docids, same everything — the
    // typed route only changes how the fields reach the columns.
    std::vector<Json> documents;
    documents.reserve(records.size());
    for (const tracer::WireEvent& record : records) {
      documents.push_back(tracer::WireEventToJson(record, session));
    }
    Bulk(index_name, std::move(documents));
    return;
  }
  const std::shared_ptr<Index> index = FindOrCreate(index_name);
  index->bulk_requests.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t seq =
      index->bulk_seq.fetch_add(1, std::memory_order_relaxed);
  IngestLane& lane = *index->lanes[seq % index->lanes.size()];
  std::scoped_lock lock(lane.mu);
  lane.batches.push_back(
      PendingBatch{seq, {}, std::move(records), std::string(session)});
}

void ElasticStore::Refresh(const std::string& index_name) {
  const std::shared_ptr<Index> index = Find(index_name);
  if (index == nullptr) return;
  // Mutators serialize end-to-end on ingest_mu; concurrent queries are not
  // blocked until the brief exclusive swap window at the end.
  std::scoped_lock ingest_lock(index->ingest_mu);

  // Collect everything bulked so far, then replay in sequence order so
  // docids match a single-shard store exactly.
  std::vector<PendingBatch> batches;
  for (const auto& lane : index->lanes) {
    std::scoped_lock lane_lock(lane->mu);
    std::move(lane->batches.begin(), lane->batches.end(),
              std::back_inserter(batches));
    lane->batches.clear();
  }
  if (batches.empty()) return;
  std::sort(batches.begin(), batches.end(),
            [](const PendingBatch& a, const PendingBatch& b) {
              return a.seq < b.seq;
            });

  // Assign docids and stage each row with its owning sub-shard. JSON rows
  // move their document; typed rows carry a pointer into the (still-alive)
  // batch's wire records plus its session label. Reading next_docid without
  // refresh_mu is safe: only refreshes advance it, and they hold ingest_mu.
  struct StagedRow {
    Json doc;
    const tracer::WireEvent* wire = nullptr;
    const std::string* session = nullptr;
  };
  const std::size_t num_shards = index->num_shards();
  std::vector<std::vector<StagedRow>> staged(num_shards);
  std::size_t total = 0;
  for (PendingBatch& batch : batches) {
    total += batch.docs.size() + batch.wire.size();
  }
  for (auto& stage : staged) stage.reserve(total / num_shards + 1);
  std::uint64_t next_docid = index->next_docid;
  for (PendingBatch& batch : batches) {
    for (Json& doc : batch.docs) {
      staged[static_cast<std::size_t>(next_docid++ % num_shards)].push_back(
          StagedRow{std::move(doc), nullptr, nullptr});
    }
    for (const tracer::WireEvent& record : batch.wire) {
      staged[static_cast<std::size_t>(next_docid++ % num_shards)].push_back(
          StagedRow{Json(), &record, &batch.session});
    }
  }

  // Per-shard fan-out used by both phases — parallel when the batch is big
  // enough to pay for the threads.
  constexpr std::size_t kParallelRefreshThreshold = 4096;
  const auto per_shard = [&](const std::function<void(std::size_t)>& fn) {
    if (total >= kParallelRefreshThreshold && num_shards > 1 &&
        std::thread::hardware_concurrency() > 1) {
      std::vector<std::thread> workers;
      workers.reserve(num_shards);
      for (std::size_t s = 0; s < num_shards; ++s) workers.emplace_back(fn, s);
      for (std::thread& worker : workers) worker.join();
    } else {
      for (std::size_t s = 0; s < num_shards; ++s) fn(s);
    }
  };

  // Phase 1: decode the new rows' columns entirely off-lock. Queries keep
  // running against the live segment lists the whole time — rows bound for
  // the growing tail are staged with its dictionary ordinals, the rest fill
  // fresh blocks that seal at segment_docs. A row store that would
  // reallocate when the rows are appended (moving every row under the
  // exclusive lock) is regrown here as a copy. Nothing mutates the live
  // segments or rows underneath us: every mutator holds ingest_mu.
  struct ShardStage {
    std::unique_ptr<StagedSegmentBuild> build;
    std::optional<std::vector<Json>> docs;
    std::optional<std::vector<std::uint8_t>> typed;
  };
  std::vector<ShardStage> stages(num_shards);
  const Nanos start = SteadyClock::Instance()->NowNanos();
  per_shard([&index, &staged, &stages](std::size_t s) {
    if (staged[s].empty()) return;
    const SubShard& shard = *index->shards[s];
    stages[s].docs = GrownCopy(shard.docs, staged[s].size());
    stages[s].typed = GrownCopy(shard.typed, staged[s].size());
    auto build = std::make_unique<StagedSegmentBuild>(shard.segments,
                                                      staged[s].size());
    std::optional<WireColumnAppender> appender;
    for (const StagedRow& row : staged[s]) {
      // A sealed block means a fresh tail ColumnSet: re-bind the appender
      // (it caches column pointers into one set).
      if (build->PrepareRow()) appender.reset();
      if (row.wire != nullptr) {
        if (!appender.has_value()) appender.emplace(&build->tail());
        appender->Append(*row.wire, *row.session);
      } else {
        build->tail().AppendDoc(row.doc);
      }
    }
    build->Finish();
    stages[s].build = std::move(build);
  });
  index->column_build_ns.fetch_add(
      static_cast<std::uint64_t>(SteadyClock::Instance()->NowNanos() - start),
      std::memory_order_relaxed);

  // Phase 2: the exclusive window — append the row store, append the staged
  // cells to each tail and publish fresh blocks, publish the docids. The
  // decoding and any regrowth already happened, so this pause is bounded by
  // the staged row count, never by index size. Replaced arrays are freed
  // with `stages`, after the lock is released.
  std::unique_lock refresh_lock = index->LockForMutation();
  const Nanos pause_start = SteadyClock::Instance()->NowNanos();
  per_shard([&index, &staged, &stages](std::size_t s) {
    SubShard& shard = *index->shards[s];
    ShardStage& stage = stages[s];
    std::unique_lock shard_lock(shard.mu);
    if (stage.docs.has_value()) shard.docs.swap(*stage.docs);
    if (stage.typed.has_value()) shard.typed.swap(*stage.typed);
    for (StagedRow& row : staged[s]) {
      // A typed row's fields live only in the columns; its document slot
      // holds a null placeholder.
      const bool typed = row.wire != nullptr;
      shard.docs.push_back(std::move(row.doc));
      shard.typed.push_back(typed ? 1 : 0);
      if (typed) ++shard.typed_rows;
    }
    if (stage.build != nullptr) stage.build->Commit(&shard.segments);
  });
  index->next_docid = next_docid;
  index->refreshes.fetch_add(1, std::memory_order_relaxed);
  const auto pause_ns = static_cast<std::uint64_t>(
      SteadyClock::Instance()->NowNanos() - pause_start);
  refresh_lock.unlock();

  std::scoped_lock pause_lock(index->pause_mu);
  if (index->refresh_pause_ns.size() >= Index::kPauseSamples) {
    index->refresh_pause_ns.erase(
        index->refresh_pause_ns.begin(),
        index->refresh_pause_ns.begin() + Index::kPauseSamples / 2);
  }
  index->refresh_pause_ns.push_back(pause_ns);
}

void ElasticStore::RefreshAll() {
  for (const std::string& name : ListIndices()) Refresh(name);
}

std::vector<DocId> ElasticStore::ScanShard(const SubShard& shard,
                                           const Query& query) {
  // One segment at a time against that segment's bitmap cache: sealed
  // segments answer repeated predicates from cache, so after a refresh only
  // the tail is actually re-evaluated.
  std::vector<DocId> matches;
  for (const auto& segment : shard.segments.segments()) {
    const std::size_t base = segment->base;
    SegmentMatches(shard.docs, *segment, query)
        .ForEachSet([&matches, &shard, base](std::size_t local) {
          matches.push_back(static_cast<DocId>((base + local) * shard.stride +
                                               shard.shard_index));
        });
  }
  return matches;
}

void ElasticStore::RunPerShard(
    std::size_t num_shards, const std::function<void(std::size_t)>& fn) const {
  if (query_pool_ == nullptr || num_shards <= 1) {
    for (std::size_t s = 0; s < num_shards; ++s) fn(s);
    return;
  }
  // Shard 0 runs on the calling thread, so the request makes progress even
  // when the pool is saturated by other requests; workers never wait on
  // anything but their own shard, so pool-sharing cannot deadlock.
  std::mutex mu;
  std::condition_variable cv;
  std::size_t remaining = num_shards - 1;
  for (std::size_t s = 1; s < num_shards; ++s) {
    query_pool_->Submit([&fn, s, &mu, &cv, &remaining] {
      fn(s);
      std::scoped_lock lock(mu);
      if (--remaining == 0) cv.notify_one();
    });
  }
  fn(0);
  std::unique_lock lock(mu);
  cv.wait(lock, [&remaining] { return remaining == 0; });
}

std::vector<DocId> ElasticStore::MatchingDocs(const Index& index,
                                              const Query& query) const {
  const std::size_t num_shards = index.num_shards();
  std::vector<std::vector<DocId>> per_shard(num_shards);
  RunPerShard(num_shards, [&](std::size_t s) {
    const SubShard& shard = *index.shards[s];
    std::shared_lock shard_lock(shard.mu);
    per_shard[s] = ScanShard(shard, query);
  });

  // Merge the per-shard lists (each ascending) in ascending docid order
  // (= ingestion order), exactly as the unsharded store.
  std::size_t total = 0;
  for (const auto& list : per_shard) total += list.size();
  std::vector<DocId> matches;
  matches.reserve(total);
  std::vector<std::size_t> cursor(num_shards, 0);
  while (matches.size() < total) {
    std::size_t best = num_shards;
    for (std::size_t s = 0; s < num_shards; ++s) {
      if (cursor[s] < per_shard[s].size() &&
          (best == num_shards ||
           per_shard[s][cursor[s]] < per_shard[best][cursor[best]])) {
        best = s;
      }
    }
    matches.push_back(per_shard[best][cursor[best]++]);
  }
  return matches;
}

namespace {

// Decorated sort key for the top-k sort: the value class mirrors
// JsonSortBefore's branches (missing sorts last; numbers and strings
// compare within their class; anything else ties and falls through to the
// next sort spec).
struct SortKey {
  enum : std::uint8_t { kMissing = 0, kNumber, kString, kOther };
  std::uint8_t cls = kMissing;
  double num = 0.0;
  std::string_view str;
};

}  // namespace

Expected<SearchResult> ElasticStore::Search(const std::string& index_name,
                                            const SearchRequest& request) const {
  const std::shared_ptr<const Index> index = Find(index_name);
  if (index == nullptr) return NotFound("no such index: " + index_name);
  index->AwaitRefreshGate();
  std::shared_lock refresh_lock(index->refresh_mu);

  std::vector<DocId> matches = MatchingDocs(*index, request.query);
  RowReader rows(*index, request.source);

  // Paging bounds first (saturating), because the sort only needs the top
  // `end` entries.
  SearchResult result;
  result.total = matches.size();
  const std::size_t start = std::min(request.from, matches.size());
  const std::size_t end =
      start + std::min(request.size, matches.size() - start);

  if (request.sort.empty()) {
    result.hits.reserve(end - start);
    for (std::size_t i = start; i < end; ++i) {
      result.hits.push_back(Hit{matches[i], rows.Read(matches[i])});
    }
    return result;
  }

  // Decorate once: resolve each sort field's column per (shard, segment),
  // then gather one flat key per (match, spec). The comparator never
  // touches Json.
  const std::size_t nspecs = request.sort.size();
  const std::size_t num_shards = index->num_shards();
  std::vector<std::vector<const DocValueColumn*>> cols(nspecs * num_shards);
  for (std::size_t j = 0; j < nspecs; ++j) {
    for (std::size_t s = 0; s < num_shards; ++s) {
      auto& per_segment = cols[j * num_shards + s];
      const auto& segments = index->shards[s]->segments.segments();
      per_segment.reserve(segments.size());
      for (const auto& segment : segments) {
        per_segment.push_back(segment->columns.Find(request.sort[j].field));
      }
    }
  }
  std::vector<SortKey> keys(matches.size() * nspecs);
  for (std::size_t r = 0; r < matches.size(); ++r) {
    const auto id = static_cast<std::size_t>(matches[r]);
    const std::size_t s = id % num_shards;
    const std::size_t pos = id / num_shards;
    const SegmentedColumns& segments = index->shards[s]->segments;
    const std::size_t seg = segments.SegmentIndexFor(pos);
    const std::size_t local = segments.LocalPos(pos);
    for (std::size_t j = 0; j < nspecs; ++j) {
      const DocValueColumn* col = cols[j * num_shards + s][seg];
      SortKey& key = keys[r * nspecs + j];
      if (col == nullptr) continue;  // field absent from this whole segment
      switch (col->kind(local)) {
        case ValueKind::kMissing:
          break;
        case ValueKind::kInt:
        case ValueKind::kDouble:
          key.cls = SortKey::kNumber;
          key.num = col->dbls[local];
          break;
        case ValueKind::kString:
          key.cls = SortKey::kString;
          key.str = col->str(local);
          break;
        default:  // bools and non-scalars are present but never order docs
          key.cls = SortKey::kOther;
          break;
      }
    }
  }
  const auto before = [&](std::size_t a, std::size_t b) {
    for (std::size_t j = 0; j < nspecs; ++j) {
      const SortKey& ka = keys[a * nspecs + j];
      const SortKey& kb = keys[b * nspecs + j];
      if (ka.cls == SortKey::kMissing && kb.cls == SortKey::kMissing) continue;
      if (ka.cls == SortKey::kMissing) return false;
      if (kb.cls == SortKey::kMissing) return true;
      int cmp = 0;
      if (ka.cls == SortKey::kNumber && kb.cls == SortKey::kNumber) {
        cmp = ka.num < kb.num ? -1 : (ka.num > kb.num ? 1 : 0);
      } else if (ka.cls == SortKey::kString && kb.cls == SortKey::kString) {
        cmp = ka.str.compare(kb.str);
      }
      if (cmp != 0) return request.sort[j].ascending ? cmp < 0 : cmp > 0;
    }
    // Total docid tiebreak: the order is strict, so a plain (partial) sort
    // is deterministic and pages agree with any stable sort by docid.
    return matches[a] < matches[b];
  };
  std::vector<std::size_t> order(matches.size());
  std::iota(order.begin(), order.end(), 0);
  if (end < order.size()) {
    std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(end),
                      order.end(), before);
  } else {
    std::sort(order.begin(), order.end(), before);
  }
  result.hits.reserve(end - start);
  for (std::size_t i = start; i < end; ++i) {
    const DocId id = matches[order[i]];
    result.hits.push_back(Hit{id, rows.Read(id)});
  }
  return result;
}

Expected<SearchResult> ElasticStore::Search(const std::string& index_name,
                                            const Json& body) const {
  auto request = SearchRequest::FromJson(body, options_.max_result_window);
  if (!request.ok()) return request.status();
  return Search(index_name, *request);
}

Expected<std::size_t> ElasticStore::Count(const std::string& index_name,
                                          const Query& query) const {
  const std::shared_ptr<const Index> index = Find(index_name);
  if (index == nullptr) return NotFound("no such index: " + index_name);
  index->AwaitRefreshGate();
  std::shared_lock refresh_lock(index->refresh_mu);
  const std::size_t num_shards = index->num_shards();
  std::vector<std::size_t> counts(num_shards, 0);
  RunPerShard(num_shards, [&](std::size_t s) {
    const SubShard& shard = *index->shards[s];
    std::shared_lock shard_lock(shard.mu);
    for (const auto& segment : shard.segments.segments()) {
      counts[s] += SegmentMatches(shard.docs, *segment, query).CountSet();
    }
  });
  std::size_t total = 0;
  for (const std::size_t c : counts) total += c;
  return total;
}

Expected<AggResult> ElasticStore::Aggregate(const std::string& index_name,
                                            const Query& query,
                                            const Aggregation& agg) const {
  auto partial = AggregatePartial(index_name, query, agg);
  if (!partial.ok()) return partial.status();
  return agg.FinalizePartial(std::move(*partial));
}

Expected<AggPartial> ElasticStore::AggregatePartial(
    const std::string& index_name, const Query& query,
    const Aggregation& agg) const {
  const std::shared_ptr<const Index> index = Find(index_name);
  if (index == nullptr) return NotFound("no such index: " + index_name);
  index->AwaitRefreshGate();
  std::shared_lock refresh_lock(index->refresh_mu);
  const std::size_t num_shards = index->num_shards();
  // One partial per segment, merged segment by segment, then shard by shard.
  const auto collect = [&](bool docid_order) {
    std::vector<AggPartial> per_shard(num_shards);
    RunPerShard(num_shards, [&](std::size_t s) {
      const SubShard& shard = *index->shards[s];
      std::shared_lock shard_lock(shard.mu);
      for (const auto& segment : shard.segments.segments()) {
        agg.MergePartial(
            per_shard[s],
            agg.CollectSegment(
                segment->columns, SegmentDocs(shard.docs, *segment),
                SegmentTyped(shard.typed, *segment),
                SegmentMatches(shard.docs, *segment, query),
                segment->base * shard.stride + shard.shard_index,
                shard.stride, docid_order));
      }
    });
    AggPartial merged;
    for (AggPartial& partial : per_shard) {
      agg.MergePartial(merged, std::move(partial));
    }
    return merged;
  };
  // Integer stats sum exactly in any order; a stats field that turns out to
  // need the docid-order double sum is collected again with its docids.
  AggPartial partial = collect(false);
  if (!agg.ClosePartial(partial)) {
    partial = collect(true);
    (void)agg.ClosePartial(partial);
  }
  return partial;
}

Expected<std::size_t> ElasticStore::UpdateByQuery(
    const std::string& index_name, const Query& query,
    const std::function<bool(Json&)>& update) {
  const std::shared_ptr<Index> index = Find(index_name);
  if (index == nullptr) return NotFound("no such index: " + index_name);
  std::scoped_lock ingest_lock(index->ingest_mu);
  std::unique_lock refresh_lock = index->LockForMutation();
  std::vector<DocId> matches = MatchingDocs(*index, query);
  const std::size_t num_shards = index->num_shards();
  // Correlation's update keeps typed rows typed: their file_path goes
  // straight into the segment's columns through one FilePathColumnWriter
  // per (shard, segment). Matches ascend per shard, so each shard's current
  // segment only ever moves forward.
  const FilePathUpdate* file_path_update = update.target<FilePathUpdate>();
  struct SegmentWriter {
    std::size_t segment = std::numeric_limits<std::size_t>::max();
    std::optional<FilePathColumnWriter> writer;
  };
  std::vector<SegmentWriter> writers(num_shards);
  std::vector<std::vector<std::size_t>> modified_pos(num_shards);
  // Per shard, the segments whose columns changed: each must be padded,
  // re-ranked and have its filter cache dropped before the lock is released.
  std::vector<std::vector<std::uint8_t>> touched(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    touched[s].assign(index->shards[s]->segments.num_segments(), 0);
  }
  std::size_t modified = 0;
  for (DocId id : matches) {
    const std::size_t s = static_cast<std::size_t>(id) % num_shards;
    const auto pos = static_cast<std::size_t>(id) / num_shards;
    SubShard& shard = *index->shards[s];
    std::unique_lock shard_lock(shard.mu);
    if (shard.IsTyped(pos)) {
      const std::size_t seg = shard.segments.SegmentIndexFor(pos);
      if (file_path_update != nullptr) {
        SegmentWriter& w = writers[s];
        if (w.segment != seg) {
          w.segment = seg;
          w.writer.emplace(&shard.segments.segments()[seg]->columns,
                           *file_path_update->tag_to_path);
        }
        if (w.writer->Apply(shard.segments.LocalPos(pos))) ++modified;
        if (w.writer->changed()) touched[s][seg] = 1;
        continue;
      }
      // Any other update goes through the materialized document; a
      // modification converts the row to a JSON row.
      Json doc = MaterializeWireDoc(shard.segments.SegmentFor(pos).columns,
                                    shard.segments.LocalPos(pos));
      if (!update(doc)) continue;
      shard.docs[pos] = std::move(doc);
      shard.typed[pos] = 0;
      --shard.typed_rows;
    } else {
      if (!update(shard.docs[pos])) continue;
    }
    ++modified;
    modified_pos[s].push_back(pos);
  }
  index->updates.fetch_add(modified, std::memory_order_relaxed);
  // Rewrite just the modified JSON slots in place and invalidate only the
  // touched segments' caches: blocks the update never reached keep their
  // bitmaps and their dictionary ranks (a rewrite may add dictionary
  // entries, but FinishBatch re-ranks only dictionaries that grew).
  for (std::size_t s = 0; s < num_shards; ++s) {
    SubShard& shard = *index->shards[s];
    std::unique_lock shard_lock(shard.mu);
    for (const std::size_t pos : modified_pos[s]) {
      shard.segments.SegmentFor(pos).columns.ReplaceRow(
          shard.segments.LocalPos(pos), shard.docs[pos]);
      touched[s][shard.segments.SegmentIndexFor(pos)] = 1;
    }
    for (std::size_t k = 0; k < touched[s].size(); ++k) {
      if (touched[s][k] == 0) continue;
      ColumnSegment& segment = *shard.segments.segments()[k];
      segment.columns.FinishBatch();
      segment.cache.Clear();
    }
  }
  return modified;
}

Expected<IndexStats> ElasticStore::Stats(const std::string& index_name) const {
  const std::shared_ptr<const Index> index = Find(index_name);
  if (index == nullptr) return NotFound("no such index: " + index_name);
  index->AwaitRefreshGate();
  std::shared_lock refresh_lock(index->refresh_mu);
  IndexStats stats;
  for (const auto& shard : index->shards) {
    std::shared_lock shard_lock(shard->mu);
    stats.doc_count += shard->docs.size();
    stats.typed_rows += shard->typed_rows;
    stats.doc_value_fields += shard->segments.num_fields();
    stats.filter_cache_hits += shard->segments.cache_hits();
    stats.filter_cache_misses += shard->segments.cache_misses();
    stats.filter_cache_evictions += shard->segments.cache_evictions();
    stats.segments += shard->segments.num_segments();
    stats.sealed_segments += shard->segments.num_sealed();
  }
  for (const auto& lane : index->lanes) {
    std::scoped_lock lane_lock(lane->mu);
    for (const PendingBatch& batch : lane->batches) {
      stats.pending_count += batch.docs.size() + batch.wire.size();
    }
  }
  stats.bulk_requests = index->bulk_requests.load(std::memory_order_relaxed);
  stats.updates = index->updates.load(std::memory_order_relaxed);
  stats.column_build_ns =
      index->column_build_ns.load(std::memory_order_relaxed);
  stats.refreshes = index->refreshes.load(std::memory_order_relaxed);
  {
    std::scoped_lock pause_lock(index->pause_mu);
    stats.refresh_pause_ns = index->refresh_pause_ns;
  }
  return stats;
}

Status ElasticStore::SaveIndex(const std::string& index_name,
                               const std::string& file_path) const {
  const std::shared_ptr<const Index> index = Find(index_name);
  if (index == nullptr) return NotFound("no such index: " + index_name);
  std::ofstream out(file_path, std::ios::trunc);
  if (!out) return Unavailable("cannot open for writing: " + file_path);
  index->AwaitRefreshGate();
  std::shared_lock refresh_lock(index->refresh_mu);
  std::size_t doc_count = 0;
  for (const auto& shard : index->shards) doc_count += shard->docs.size();
  Json header = Json::MakeObject();
  header.Set("dio_index_snapshot", index_name);
  header.Set("docs", static_cast<std::int64_t>(doc_count));
  out << header.Dump() << "\n";
  RowReader rows(*index, {});
  for (DocId id = 0; id < doc_count; ++id) {
    out << rows.Read(id).Dump() << "\n";
  }
  out.close();
  if (!out) return Unavailable("write failed: " + file_path);
  return Status::Ok();
}

Expected<std::string> ElasticStore::LoadIndex(const std::string& file_path,
                                              const std::string& rename_to) {
  std::ifstream in(file_path);
  if (!in) return NotFound("cannot open snapshot: " + file_path);
  std::string line;
  if (!std::getline(in, line)) {
    return InvalidArgument("empty snapshot: " + file_path);
  }
  auto header = Json::Parse(line);
  const Json* name =
      header.ok() ? header->Find("dio_index_snapshot") : nullptr;
  if (name == nullptr || !name->is_string() || name->as_string().empty()) {
    return InvalidArgument(file_path +
                           ":1: not a DIO index snapshot header (needs a "
                           "non-empty string dio_index_snapshot)");
  }
  const Json* docs = header->Find("docs");
  if (docs == nullptr || !docs->is_int() || docs->as_int() < 0) {
    return InvalidArgument(file_path +
                           ":1: header docs must be a non-negative integer");
  }
  const auto expected = static_cast<std::uint64_t>(docs->as_int());
  const std::string index = rename_to.empty() ? name->as_string() : rename_to;
  if (HasIndex(index)) {
    return AlreadyExists("index exists: " + index);
  }
  // Read the whole file before creating the index, so a rejected snapshot
  // leaves no index behind.
  std::vector<Json> batch;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    auto doc = Json::Parse(line);
    if (!doc.ok()) {
      return InvalidArgument(file_path + ":" + std::to_string(line_no) +
                             ": corrupt snapshot line: " +
                             doc.status().message());
    }
    if (batch.size() == expected) {
      return InvalidArgument(file_path + ":" + std::to_string(line_no) +
                             ": more rows than the header's " +
                             std::to_string(expected) + " docs");
    }
    batch.push_back(std::move(doc.value()));
  }
  if (batch.size() != expected) {
    return InvalidArgument(file_path + ":" + std::to_string(line_no) +
                           ": snapshot ends after " +
                           std::to_string(batch.size()) + " of the header's " +
                           std::to_string(expected) + " docs");
  }
  DIO_RETURN_IF_ERROR(CreateIndex(index));
  Bulk(index, std::move(batch));
  Refresh(index);
  return index;
}

}  // namespace dio::backend
