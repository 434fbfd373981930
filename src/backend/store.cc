#include "backend/store.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <fstream>
#include <limits>
#include <numeric>
#include <optional>
#include <thread>

#include "backend/correlation.h"
#include "backend/simd_kernels.h"
#include "backend/typed_ingest.h"
#include "tracer/event.h"

namespace dio::backend {

namespace {

// A search body's `from` / `size`: a non-negative integer. A double counts
// only when it is integral and at most 2^53, so the conversion is exact and
// can never overflow.
Expected<std::size_t> ParseResultCount(const std::string& key,
                                       const Json& value) {
  if (value.is_int()) {
    if (value.as_int() >= 0) return static_cast<std::size_t>(value.as_int());
  } else if (value.is_double()) {
    const double d = value.as_double();
    if (d >= 0.0 && d == std::floor(d)) {
      if (d > 9007199254740992.0) {
        return InvalidArgument(key + " is out of range");
      }
      return static_cast<std::size_t>(d);
    }
  }
  return InvalidArgument(key + " must be a non-negative integer");
}

// One sort spec: "field", {"field": "asc"|"desc"} (ES shorthand) or
// {"field": {"order": "asc"|"desc"}}; the order defaults to ascending.
Expected<SortSpec> ParseSortSpec(const Json& spec) {
  if (spec.is_string()) return SortSpec{spec.as_string(), true};
  if (!spec.is_object() || spec.as_object().size() != 1) {
    return InvalidArgument(
        "sort: each spec must be a field name or a one-field object");
  }
  const auto& [field, opts] = spec.as_object().front();
  const Json* order = &opts;
  if (opts.is_object()) {
    order = opts.Find("order");
    if (order == nullptr) return SortSpec{field, true};
  }
  if (!order->is_string() ||
      (order->as_string() != "asc" && order->as_string() != "desc")) {
    return InvalidArgument("sort: order of '" + field +
                           "' must be \"asc\" or \"desc\"");
  }
  return SortSpec{field, order->as_string() == "asc"};
}

}  // namespace

Expected<SearchRequest> SearchRequest::FromJson(const Json& body,
                                                std::size_t max_result_window) {
  if (!body.is_object()) {
    return InvalidArgument("search body must be an object");
  }
  SearchRequest request;
  for (const JsonMember& member : body.as_object()) {
    const std::string& key = member.first;
    const Json& value = member.second;
    if (key == "query") {
      auto query = Query::FromJson(value);
      if (!query.ok()) return query.status();
      request.query = std::move(query.value());
    } else if (key == "sort") {
      if (!value.is_array()) {
        return InvalidArgument("sort must be an array");
      }
      for (const Json& spec : value.as_array()) {
        auto parsed = ParseSortSpec(spec);
        if (!parsed.ok()) return parsed.status();
        request.sort.push_back(std::move(*parsed));
      }
    } else if (key == "from" || key == "size") {
      auto count = ParseResultCount(key, value);
      if (!count.ok()) return count.status();
      (key == "from" ? request.from : request.size) = *count;
    } else {
      return InvalidArgument("unknown search body key: " + key);
    }
  }
  if (request.size > max_result_window ||
      request.from > max_result_window - request.size) {
    return InvalidArgument(
        "from + size must be <= max_result_window (" +
        std::to_string(max_result_window) + ")");
  }
  return request;
}

Expected<SearchRequest> SearchRequest::FromJsonText(
    std::string_view text, std::size_t max_result_window) {
  auto parsed = Json::Parse(text);
  if (!parsed.ok()) return parsed.status();
  return FromJson(*parsed, max_result_window);
}

Json ProjectFields(const Json& doc, std::span<const std::string> fields) {
  if (fields.empty() || !doc.is_object()) return doc;
  JsonObject members;
  for (const JsonMember& member : doc.as_object()) {
    if (std::find(fields.begin(), fields.end(), member.first) !=
        fields.end()) {
      members.push_back(member);
    }
  }
  return Json(std::move(members));
}

ElasticStoreOptions ElasticStoreOptions::FromConfig(const Config& config) {
  WarnUnknownKeys(config, "backend",
                  {"shards_per_index", "query_threads", "doc_values",
                   "typed_ingest", "simd_kernels", "max_result_window",
                   "segment_docs", "filter_cache_entries"});
  ElasticStoreOptions opts;
  opts.shards_per_index = static_cast<std::size_t>(std::max<std::int64_t>(
      1, config.GetInt("backend.shards_per_index",
                       static_cast<std::int64_t>(opts.shards_per_index))));
  opts.query_threads = static_cast<std::size_t>(std::max<std::int64_t>(
      0, config.GetInt("backend.query_threads",
                       static_cast<std::int64_t>(opts.query_threads))));
  opts.doc_values = config.GetBool("backend.doc_values", opts.doc_values);
  opts.typed_ingest =
      config.GetBool("backend.typed_ingest", opts.typed_ingest);
  opts.simd_kernels =
      config.GetBool("backend.simd_kernels", opts.simd_kernels);
  opts.max_result_window = static_cast<std::size_t>(std::max<std::int64_t>(
      1, config.GetInt("backend.max_result_window",
                       static_cast<std::int64_t>(opts.max_result_window))));
  opts.segment_docs = static_cast<std::size_t>(std::max<std::int64_t>(
      0, config.GetInt("backend.segment_docs",
                       static_cast<std::int64_t>(opts.segment_docs))));
  opts.filter_cache_entries = static_cast<std::size_t>(std::max<std::int64_t>(
      0, config.GetInt("backend.filter_cache_entries",
                       static_cast<std::int64_t>(opts.filter_cache_entries))));
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
  if (!options_.typed_ingest || !options_.doc_values) {
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

std::string ElasticStore::TermKey(const Json& value) {
  switch (value.type()) {
    case Json::Type::kString: return "s:" + value.as_string();
    case Json::Type::kInt: return "i:" + std::to_string(value.as_int());
    case Json::Type::kDouble: {
      // Integral doubles share the int key so term queries match across
      // numeric types (like ES numeric coercion).
      const double d = value.as_double();
      const auto i = static_cast<std::int64_t>(d);
      if (static_cast<double>(i) == d) return "i:" + std::to_string(i);
      return "d:" + std::to_string(d);
    }
    case Json::Type::kBool: return value.as_bool() ? "b:1" : "b:0";
    default: return "j:" + value.Dump();
  }
}

void ElasticStore::IndexDoc(SubShard& shard, DocId id, const Json& doc) {
  if (!doc.is_object()) return;
  for (const JsonMember& member : doc.as_object()) {
    const std::string& field = member.first;
    const Json& value = member.second;
    if (value.is_array() || value.is_object() || value.is_null()) continue;
    auto& postings = shard.terms[field][TermKey(value)];
    if (postings.empty() || postings.back() != id) postings.push_back(id);
    if (value.is_number()) {
      shard.numerics[field].emplace_back(value.as_int(), id);
      shard.numerics_dirty = true;
    }
  }
}

void ElasticStore::SortNumericsIfDirty(SubShard& shard) {
  if (!shard.numerics_dirty) return;
  for (auto& [field, entries] : shard.numerics) {
    std::sort(entries.begin(), entries.end());
  }
  shard.numerics_dirty = false;
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
    DocId id = 0;
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
      const DocId id = next_docid++;
      staged[static_cast<std::size_t>(id) % num_shards].push_back(
          StagedRow{id, std::move(doc), nullptr, nullptr});
    }
    for (const tracer::WireEvent& record : batch.wire) {
      const DocId id = next_docid++;
      staged[static_cast<std::size_t>(id) % num_shards].push_back(
          StagedRow{id, Json(), &record, &batch.session});
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

  // Phase 1 (segmented mode): build the new rows' columns entirely
  // off-lock. Queries keep running against the live segment lists the whole
  // time — sealed segments are adopted by pointer, the growing tail is
  // cloned and appended into, blocks seal at segment_docs. Nothing mutates
  // the base lists underneath us: every mutator holds ingest_mu.
  const bool segmented = options_.doc_values && options_.segment_docs != 0;
  std::vector<std::unique_ptr<StagedSegmentBuild>> builds(num_shards);
  if (segmented) {
    const Nanos start = SteadyClock::Instance()->NowNanos();
    per_shard([&index, &staged, &builds](std::size_t s) {
      if (staged[s].empty()) return;
      auto build =
          std::make_unique<StagedSegmentBuild>(index->shards[s]->segments);
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
      builds[s] = std::move(build);
    });
    index->column_build_ns.fetch_add(
        static_cast<std::uint64_t>(SteadyClock::Instance()->NowNanos() -
                                   start),
        std::memory_order_relaxed);
  }

  // Phase 2: the exclusive window — append the row store, index JSON rows'
  // postings, swap the staged segment lists in, publish the docids. In
  // segmented mode the column work already happened, so this pause is
  // bounded by the staged row count, never by index size.
  std::unique_lock refresh_lock = index->LockForMutation();
  const Nanos pause_start = SteadyClock::Instance()->NowNanos();
  per_shard([this, &index, &staged, &builds, segmented](std::size_t s) {
    SubShard& shard = *index->shards[s];
    std::unique_lock shard_lock(shard.mu);
    const bool legacy_columns = options_.doc_values && !segmented;
    const Nanos start = SteadyClock::Instance()->NowNanos();
    std::optional<WireColumnAppender> appender;
    for (StagedRow& row : staged[s]) {
      if (row.wire != nullptr) {
        // Typed rows get a null placeholder document and skip the
        // term/numeric indexes entirely — that skip is the bulk of the
        // typed route's win, paid for by forcing the scan path while the
        // shard holds typed rows.
        shard.docs.emplace_back();
        shard.typed.push_back(1);
        ++shard.typed_rows;
        if (legacy_columns) {
          if (!appender.has_value()) {
            appender.emplace(&shard.segments.EnsureTail().columns);
          }
          appender->Append(*row.wire, *row.session);
        }
      } else {
        shard.docs.push_back(std::move(row.doc));
        shard.typed.push_back(0);
        IndexDoc(shard, row.id, shard.docs.back());
        if (legacy_columns) {
          shard.segments.EnsureTail().columns.AppendDoc(shard.docs.back());
        }
      }
    }
    SortNumericsIfDirty(shard);
    if (segmented) {
      if (builds[s] != nullptr) builds[s]->Commit(&shard.segments);
    } else if (legacy_columns && !staged[s].empty()) {
      // Rebuild-everything mode: one block, grown in place under the lock,
      // every cached bitmap stale.
      ColumnSegment& tail = shard.segments.EnsureTail();
      tail.columns.FinishBatch();
      tail.cache.Clear();
      shard.segments.NoteInPlaceGrowth();
      index->column_build_ns.fetch_add(
          static_cast<std::uint64_t>(SteadyClock::Instance()->NowNanos() -
                                     start),
          std::memory_order_relaxed);
    }
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

namespace {

std::vector<DocId> Intersect(std::vector<DocId> a, std::vector<DocId> b) {
  std::vector<DocId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<DocId> Union(std::vector<DocId> a, std::vector<DocId> b) {
  std::vector<DocId> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

std::vector<DocId> Dedup(std::vector<DocId> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

}  // namespace

std::optional<std::vector<DocId>> ElasticStore::Candidates(
    const SubShard& shard, const Query& query) {
  switch (query.type()) {
    case Query::Type::kTerm:
    case Query::Type::kTerms: {
      auto field_it = shard.terms.find(query.field());
      if (field_it == shard.terms.end()) return std::vector<DocId>{};
      std::vector<DocId> out;
      for (const Json& value : query.values()) {
        auto term_it = field_it->second.find(TermKey(value));
        if (term_it != field_it->second.end()) {
          out = Union(std::move(out), term_it->second);
        }
      }
      return Dedup(std::move(out));
    }
    case Query::Type::kRange: {
      if (shard.numerics_dirty) return std::nullopt;  // pending resort
      auto field_it = shard.numerics.find(query.field());
      if (field_it == shard.numerics.end()) return std::vector<DocId>{};
      const auto& entries = field_it->second;
      auto lo = entries.begin();
      auto hi = entries.end();
      if (query.gte().has_value()) {
        lo = std::lower_bound(
            entries.begin(), entries.end(),
            std::make_pair(*query.gte(), std::numeric_limits<DocId>::min()));
      }
      if (query.lte().has_value()) {
        hi = std::upper_bound(
            entries.begin(), entries.end(),
            std::make_pair(*query.lte(), std::numeric_limits<DocId>::max()));
      }
      std::vector<DocId> out;
      out.reserve(static_cast<std::size_t>(std::distance(lo, hi)));
      for (auto it = lo; it != hi; ++it) out.push_back(it->second);
      return Dedup(std::move(out));
    }
    case Query::Type::kPrefix: {
      auto field_it = shard.terms.find(query.field());
      if (field_it == shard.terms.end()) return std::vector<DocId>{};
      // Term keys are sorted, so the matching "s:<prefix>…" terms are one
      // contiguous range starting at lower_bound.
      const std::string key_prefix = "s:" + query.prefix();
      std::vector<DocId> out;
      for (auto it = field_it->second.lower_bound(key_prefix);
           it != field_it->second.end() && it->first.starts_with(key_prefix);
           ++it) {
        out = Union(std::move(out), it->second);
      }
      return Dedup(std::move(out));
    }
    case Query::Type::kAnd: {
      std::optional<std::vector<DocId>> narrowed;
      for (const Query& clause : query.clauses()) {
        auto candidates = Candidates(shard, clause);
        if (!candidates.has_value()) continue;  // clause needs a scan
        narrowed = narrowed.has_value()
                       ? Intersect(std::move(*narrowed),
                                   std::move(*candidates))
                       : std::move(*candidates);
      }
      return narrowed;  // nullopt if no clause was indexable
    }
    case Query::Type::kOr: {
      std::vector<DocId> out;
      for (const Query& clause : query.clauses()) {
        auto candidates = Candidates(shard, clause);
        if (!candidates.has_value()) return std::nullopt;  // must scan
        out = Union(std::move(out), std::move(*candidates));
      }
      return out;
    }
    case Query::Type::kMatchAll:
    case Query::Type::kExists:
    case Query::Type::kNot:
      return std::nullopt;
  }
  return std::nullopt;
}

std::vector<DocId> ElasticStore::MatchingDocs(const SubShard& shard,
                                              const Query& query) {
  std::vector<DocId> matches;
  auto candidates = Candidates(shard, query);
  if (candidates.has_value()) {
    for (DocId id : *candidates) {
      if (shard.Owns(id) && query.Matches(shard.DocAt(id))) {
        matches.push_back(id);
      }
    }
  } else {
    for (std::size_t pos = 0; pos < shard.docs.size(); ++pos) {
      if (query.Matches(shard.docs[pos])) {
        matches.push_back(static_cast<DocId>(pos * shard.stride +
                                             shard.shard_index));
      }
    }
  }
  return matches;
}

std::vector<DocId> ElasticStore::MatchingDocsColumnar(const SubShard& shard,
                                                      const Query& query) {
  std::vector<DocId> matches;
  const SegmentedColumns& segments = shard.segments;
  // Typed rows have no postings/numerics entries, so while the shard holds
  // any, the candidate lists are incomplete — go straight to the scan path
  // (the compiled bitmaps read the columns, which do cover typed rows).
  auto candidates = shard.typed_rows == 0
                        ? Candidates(shard, query)
                        : std::optional<std::vector<DocId>>();
  if (candidates.has_value()) {
    // Candidates ascend, so the owning segment index is nondecreasing and
    // one compiled query per touched segment suffices (term ordinals and
    // prefix rank ranges resolve against that segment's dictionaries).
    std::optional<CompiledQuery> compiled;
    std::size_t current = std::numeric_limits<std::size_t>::max();
    for (DocId id : *candidates) {
      if (!shard.Owns(id)) continue;
      const std::size_t pos = static_cast<std::size_t>(id) / shard.stride;
      const std::size_t seg = segments.SegmentIndexFor(pos);
      if (seg != current) {
        compiled.emplace(query, segments.segments()[seg]->columns);
        current = seg;
      }
      if (compiled->Matches(segments.LocalPos(pos), shard.docs[pos])) {
        matches.push_back(id);
      }
    }
  } else {
    // Scan path, one segment at a time against that segment's bitmap
    // cache: sealed segments answer repeated predicates from cache, so
    // after a refresh only the tail is actually re-evaluated.
    for (const auto& segment : segments.segments()) {
      const CompiledQuery compiled(query, segment->columns);
      const FilterBitmap bitmap = compiled.Eval(
          std::span<const Json>(shard.docs.data() + segment->base,
                                segment->rows()),
          &segment->cache);
      const std::size_t base = segment->base;
      bitmap.ForEachSet([&matches, &shard, base](std::size_t local) {
        matches.push_back(static_cast<DocId>((base + local) * shard.stride +
                                             shard.shard_index));
      });
    }
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
    per_shard[s] = options_.doc_values ? MatchingDocsColumnar(shard, query)
                                       : MatchingDocs(shard, query);
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

// Decorated sort key for the columnar top-k path: the value class mirrors
// the JSON comparator's branches (missing sorts last; numbers and strings
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

  if (!options_.doc_values) {
    // Serial JSON engine: sort with per-comparison Json::Find (the oracle).
    if (!request.sort.empty()) {
      std::stable_sort(
          matches.begin(), matches.end(), [&](DocId a, DocId b) {
            for (const SortSpec& spec : request.sort) {
              const Json* va = index->DocAt(a).Find(spec.field);
              const Json* vb = index->DocAt(b).Find(spec.field);
              // Missing values sort last regardless of direction.
              if (va == nullptr && vb == nullptr) continue;
              if (va == nullptr) return false;
              if (vb == nullptr) return true;
              int cmp = 0;
              if (va->is_number() && vb->is_number()) {
                const double da = va->as_double();
                const double db = vb->as_double();
                cmp = da < db ? -1 : (da > db ? 1 : 0);
              } else if (va->is_string() && vb->is_string()) {
                cmp = va->as_string().compare(vb->as_string());
              }
              if (cmp != 0) return spec.ascending ? cmp < 0 : cmp > 0;
            }
            return a < b;
          });
    }
    SearchResult result;
    result.total = matches.size();
    const std::size_t start = std::min(request.from, matches.size());
    const std::size_t end = std::min(start + request.size, matches.size());
    result.hits.reserve(end - start);
    for (std::size_t i = start; i < end; ++i) {
      result.hits.push_back(Hit{matches[i], rows.Read(matches[i])});
    }
    return result;
  }

  // Columnar engine. Paging bounds first (saturating), because the sort only
  // needs the top `end` entries.
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
    // produces exactly what the oracle's stable_sort does.
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
    counts[s] = (options_.doc_values ? MatchingDocsColumnar(shard, query)
                                     : MatchingDocs(shard, query))
                    .size();
  });
  std::size_t total = 0;
  for (const std::size_t c : counts) total += c;
  return total;
}

namespace {

// AggSource over a matched docid set: gathers one ColumnSlice per field from
// the per-shard columns, falling back to the document only for non-scalar
// members.
class ShardedAggSource final : public AggSource {
 public:
  struct ShardView {
    const std::vector<Json>* docs = nullptr;
    const SegmentedColumns* segments = nullptr;
  };

  ShardedAggSource(std::vector<ShardView> shards, std::vector<DocId> matches)
      : shards_(std::move(shards)), matches_(std::move(matches)) {}

  [[nodiscard]] std::size_t rows() const override { return matches_.size(); }

  [[nodiscard]] const ColumnSlice& Slice(
      const std::string& field) const override {
    auto [it, inserted] = cache_.try_emplace(field);
    if (!inserted) return it->second;
    ColumnSlice& slice = it->second;
    const std::size_t n = matches_.size();
    const std::size_t num_shards = shards_.size();
    slice.kinds.assign(n, static_cast<std::uint8_t>(ValueKind::kMissing));
    slice.ints.assign(n, 0);
    slice.dbls.assign(n, 0.0);
    slice.strs.assign(n, {});
    slice.raws.assign(n, nullptr);
    // The field's column resolved once per (shard, segment).
    std::vector<std::vector<const DocValueColumn*>> cols(num_shards);
    for (std::size_t s = 0; s < num_shards; ++s) {
      const auto& segments = shards_[s].segments->segments();
      cols[s].reserve(segments.size());
      for (const auto& segment : segments) {
        cols[s].push_back(segment->columns.Find(field));
      }
    }
    for (std::size_t r = 0; r < n; ++r) {
      const auto id = static_cast<std::size_t>(matches_[r]);
      const std::size_t s = id % num_shards;
      const std::size_t pos = id / num_shards;
      const SegmentedColumns& segments = *shards_[s].segments;
      const std::size_t local = segments.LocalPos(pos);
      const DocValueColumn* col = cols[s][segments.SegmentIndexFor(pos)];
      if (col == nullptr) continue;
      const ValueKind kind = col->kind(local);
      slice.kinds[r] = static_cast<std::uint8_t>(kind);
      switch (kind) {
        case ValueKind::kInt:
        case ValueKind::kDouble:
          slice.ints[r] = col->ints[local];
          slice.dbls[r] = col->dbls[local];
          break;
        case ValueKind::kString:
          slice.strs[r] = col->str(local);
          break;
        case ValueKind::kBool:
          slice.ints[r] = col->ints[local];
          break;
        case ValueKind::kOther:
          slice.raws[r] = (*shards_[s].docs)[pos].Find(field);
          break;
        case ValueKind::kMissing:
          break;
      }
    }
    return slice;
  }

 private:
  std::vector<ShardView> shards_;
  std::vector<DocId> matches_;
  mutable std::map<std::string, ColumnSlice> cache_;
};

}  // namespace

Expected<AggResult> ElasticStore::Aggregate(const std::string& index_name,
                                            const Query& query,
                                            const Aggregation& agg) const {
  const std::shared_ptr<const Index> index = Find(index_name);
  if (index == nullptr) return NotFound("no such index: " + index_name);
  index->AwaitRefreshGate();
  std::shared_lock refresh_lock(index->refresh_mu);
  std::vector<DocId> matches = MatchingDocs(*index, query);
  if (!options_.doc_values) {
    std::vector<const Json*> docs;
    docs.reserve(matches.size());
    for (DocId id : matches) docs.push_back(&index->DocAt(id));
    return agg.Execute(docs);
  }
  std::vector<ShardedAggSource::ShardView> views;
  views.reserve(index->num_shards());
  for (const auto& shard : index->shards) {
    views.push_back({&shard->docs, &shard->segments});
  }
  const ShardedAggSource source(std::move(views), std::move(matches));
  return agg.ExecuteColumnar(source);
}

Expected<AggPartial> ElasticStore::AggregatePartial(
    const std::string& index_name, const Query& query,
    const Aggregation& agg) const {
  const std::shared_ptr<const Index> index = Find(index_name);
  if (index == nullptr) return NotFound("no such index: " + index_name);
  index->AwaitRefreshGate();
  std::shared_lock refresh_lock(index->refresh_mu);
  std::vector<DocId> matches = MatchingDocs(*index, query);
  if (!options_.doc_values) {
    std::vector<const Json*> docs;
    docs.reserve(matches.size());
    for (DocId id : matches) docs.push_back(&index->DocAt(id));
    return agg.ExecutePartial(docs);
  }
  std::vector<ShardedAggSource::ShardView> views;
  views.reserve(index->num_shards());
  for (const auto& shard : index->shards) {
    views.push_back({&shard->docs, &shard->segments});
  }
  const ShardedAggSource source(std::move(views), std::move(matches));
  return agg.ExecuteColumnarPartial(source);
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
    // Re-index the updated document: postings become a superset (stale
    // entries are filtered by re-verification at query time).
    IndexDoc(shard, id, shard.docs[pos]);
  }
  index->updates.fetch_add(modified, std::memory_order_relaxed);
  for (const auto& shard : index->shards) {
    std::unique_lock shard_lock(shard->mu);
    SortNumericsIfDirty(*shard);
  }
  if (options_.doc_values) {
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
  if (!header.ok() || !header->Has("dio_index_snapshot")) {
    return InvalidArgument("not a DIO index snapshot: " + file_path);
  }
  const std::string index = rename_to.empty()
                                ? header->GetString("dio_index_snapshot")
                                : rename_to;
  if (HasIndex(index)) {
    return AlreadyExists("index exists: " + index);
  }
  DIO_RETURN_IF_ERROR(CreateIndex(index));
  std::vector<Json> batch;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto doc = Json::Parse(line);
    if (!doc.ok()) {
      (void)DeleteIndex(index);
      return InvalidArgument("corrupt snapshot line: " + doc.status().message());
    }
    batch.push_back(std::move(doc.value()));
  }
  Bulk(index, std::move(batch));
  Refresh(index);
  return index;
}

}  // namespace dio::backend
