// ElasticStore: an embedded document store standing in for Elasticsearch
// (§II-C). It reproduces the properties DIO depends on:
//   * schemaless JSON documents ("distinct fields corresponding to syscall
//     arguments"),
//   * bulk indexing with near-real-time visibility (documents become
//     searchable at the next refresh, like ES's refresh_interval),
//   * term/terms/range/prefix/exists/bool queries,
//   * aggregations (terms, histograms, percentiles) with sub-aggregations,
//   * update-by-query, which the file-path correlation algorithm uses (its
//     FilePathUpdate writes typed rows' file_path into the columns in place).
//
// Query execution has one engine, over columns: at Refresh each sub-shard
// appends its new rows to typed doc-value columns held in sealed segments
// (backend/segments.h), and every query scans those segments one at a time
// — predicates resolve against the columns or the segment's cached filter
// bitmaps, and sort keys and aggregations read the columns instead of
// Json::Find per document, the way Lucene serves analytics from
// doc-values. With backend.query_threads > 0, sub-shards are evaluated in
// parallel on a shared pool and per-shard results merged in docid order;
// results are byte-identical either way. The JSON semantics the engine must
// reproduce (Query::Matches, JsonSortBefore, Aggregation::Execute) are the
// tests' reference.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <string>
#include <vector>

#include "backend/aggregation.h"
#include "backend/doc_values.h"
#include "backend/query.h"
#include "backend/query_backend.h"
#include "backend/segments.h"
#include "common/clock.h"
#include "common/config.h"
#include "common/json.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "tracer/wire.h"

namespace dio::backend {

// The request/result vocabulary (DocId, Hit, SortSpec, SearchRequest,
// SearchResult, IndexStats) lives in backend/query_backend.h, shared with
// the cluster router and every analysis consumer.

// Store-wide tuning knobs (the `[backend]` config section).
struct ElasticStoreOptions {
  // Sub-shards per index on a single store. A cluster router gives every
  // node store one sub-shard per logical-shard index instead (the logical
  // shards already spread the rows), so this applies to the single store
  // only.
  std::size_t shards_per_index = 4;
  // Worker threads for per-sub-shard query fan-out. 0 = evaluate sub-shards
  // on the calling thread (no pool).
  std::size_t query_threads = 0;
  // Rows per sealed column segment (>= 1). Each sub-shard's columns are an
  // ordered list of immutable sealed blocks of exactly this many rows plus
  // one growing tail: Refresh decodes only the new rows, off-lock, and
  // appends them to the tail in place; sealed blocks keep their
  // filter-bitmap caches and dictionary ranks across refreshes. SIZE_MAX
  // keeps every row in one never-sealed tail.
  std::size_t segment_docs = 1 << 16;
  // Cached filter bitmaps per segment, evicted in LRU order. 0 disables
  // bitmap caching entirely (the drop-all-caches parity twin).
  std::size_t filter_cache_entries = FilterBitmapCache::kDefaultEntries;
  // Ingest BulkWire() batches straight into doc-value columns, skipping the
  // per-event JSON build/parse entirely. Off = wire batches are
  // materialized to JSON and take the Bulk() route — the parity oracle for
  // the typed path.
  bool typed_ingest = true;
  // Route bitmap combination / range / term-list / histogram evaluation
  // through the vectorized kernels (backend/simd_kernels.h). Process-wide:
  // constructing a store applies this to the kernel switch. Off = the
  // original scalar loops (identical results, the parity fallback).
  bool simd_kernels = true;
  // Upper bound on from + size accepted by SearchRequest parsing (like ES's
  // index.max_result_window). Programmatic SearchRequests are not clamped.
  std::size_t max_result_window = 10'000;

  // Reads the `[backend]` section. Rejects, naming the key, a
  // shards_per_index, max_result_window or segment_docs below 1 and a
  // negative query_threads or filter_cache_entries.
  static Expected<ElasticStoreOptions> FromConfig(const Config& config);
};

class ElasticStore : public QueryBackend {
 public:
  // Each index is split into `shards_per_index` sub-shards (documents are
  // assigned by docid % shards): bulk ingest lands on per-sub-shard lanes
  // with independent locks, so N concurrent Bulk() callers (the tracer's
  // per-CPU consumers) do not serialize on one mutex, and Refresh() indexes
  // the sub-shards in parallel. Query semantics and docid (ingestion) order
  // are identical to a single-shard store.
  explicit ElasticStore(std::size_t shards_per_index = kDefaultShards);
  explicit ElasticStore(const ElasticStoreOptions& options);

  static constexpr std::size_t kDefaultShards = 4;

  [[nodiscard]] const ElasticStoreOptions& options() const { return options_; }

  // Index management. Bulk() auto-creates missing indices (like ES).
  Status CreateIndex(const std::string& name);
  Status DeleteIndex(const std::string& name);
  [[nodiscard]] std::vector<std::string> ListIndices() const;
  [[nodiscard]] bool HasIndex(const std::string& name) const override;

  // Bulk ingestion: documents are buffered and become searchable at the
  // next Refresh() (near-real-time semantics).
  void Bulk(const std::string& index, std::vector<Json> documents);
  // Typed bulk ingestion: buffers binary wire records; at Refresh their
  // fields are appended straight into doc-value columns (no JSON build).
  // Queries over typed rows read the columns; row-oriented views (hits,
  // snapshots, a generic update-by-query) are rebuilt on demand and
  // are byte-identical to the documents Bulk() would have produced from
  // WireEventToJson (plus a correlated file_path). Falls back to exactly
  // that Bulk() route when typed_ingest is off.
  void BulkWire(const std::string& index, std::string_view session,
                std::vector<tracer::WireEvent> records);
  // Makes all buffered documents searchable.
  void Refresh(const std::string& index) override;
  void RefreshAll();

  [[nodiscard]] Expected<SearchResult> Search(
      const std::string& index, const SearchRequest& request) const override;
  // Parses an ES-style search body (clamped to options().max_result_window)
  // and runs it.
  [[nodiscard]] Expected<SearchResult> Search(const std::string& index,
                                              const Json& body) const;
  [[nodiscard]] Expected<std::size_t> Count(
      const std::string& index, const Query& query) const override;
  [[nodiscard]] Expected<AggResult> Aggregate(
      const std::string& index, const Query& query,
      const Aggregation& agg) const override;
  // The closed partial behind Aggregate (which finalizes it): one
  // Aggregation::CollectSegment per segment, merged segment by segment, then
  // sub-shard by sub-shard. A cluster router folds these per logical shard
  // (Aggregation::MergePartial) and finalizes once, instead of re-gathering
  // every matched document.
  [[nodiscard]] Expected<AggPartial> AggregatePartial(
      const std::string& index, const Query& query,
      const Aggregation& agg) const;

  // Applies `update` to every matching document. The callback returns
  // whether it modified the document; only modified documents are re-indexed
  // and counted. Returns the number of documents actually modified.
  // A FilePathUpdate callback (backend/correlation.h) is recognized: typed
  // rows then gain file_path in their segment's columns and stay typed.
  // Any other callback converts each typed row it modifies to a JSON row.
  Expected<std::size_t> UpdateByQuery(
      const std::string& index, const Query& query,
      const std::function<bool(Json&)>& update) override;

  [[nodiscard]] Expected<IndexStats> Stats(
      const std::string& index) const override;

  // Durable snapshots (post-mortem analysis across process restarts, §II):
  // writes one JSON document per line, prefixed by a header line
  // {"dio_index_snapshot": <index>, "docs": <row count>}.
  Status SaveIndex(const std::string& index, const std::string& file_path) const;
  // Loads a snapshot into a new index named by the snapshot header (or
  // `rename_to` if non-empty). Fails if the target index already exists, if
  // the header is malformed, if a line is not JSON, or if the row count
  // differs from the header's `docs`; errors carry the 1-based line number,
  // and a failed load creates no index.
  Expected<std::string> LoadIndex(const std::string& file_path,
                                  const std::string& rename_to = "");

 private:
  // One sub-shard of an index: owns the documents with
  // docid % num_shards == shard_index (stored at position docid / num_shards)
  // plus the doc-value columns over exactly those documents.
  struct SubShard {
    SubShard(std::size_t segment_docs, std::size_t cache_entries)
        : segments(segment_docs, cache_entries) {}

    std::size_t shard_index = 0;
    std::size_t stride = 1;  // num_shards of the owning index

    mutable std::shared_mutex mu;
    std::vector<Json> docs;  // position = docid / stride

    // The sub-shard's ordered segment list — sealed immutable blocks plus
    // one growing tail, each with its own bitmap cache. Covers the same
    // positions as `docs` (segment index = pos / segment_docs).
    // Appended to only under refresh_mu unique; read under refresh_mu
    // shared.
    SegmentedColumns segments;

    // Typed-ingest state (backend.typed_ingest): typed[pos] != 0 marks a row
    // whose fields live only in `segments` — docs[pos] is a null
    // placeholder. Correlation keeps a row typed (its file_path is one more
    // column); any other update-by-query that modifies a typed row converts
    // it to a JSON row.
    std::vector<std::uint8_t> typed;
    std::size_t typed_rows = 0;

    [[nodiscard]] bool IsTyped(std::size_t pos) const {
      return pos < typed.size() && typed[pos] != 0;
    }
  };

  // Bulked-but-unrefreshed documents, tagged with the bulk sequence number
  // that fixes their ingestion (docid) order. A batch holds either JSON
  // documents (Bulk) or binary wire records (BulkWire), never both.
  struct PendingBatch {
    std::uint64_t seq = 0;
    std::vector<Json> docs;
    std::vector<tracer::WireEvent> wire;
    std::string session;  // labels the wire records' documents
  };

  // Ingest lane: where Bulk() parks batches. One lane per sub-shard, each
  // with its own lock, chosen round-robin by sequence number so concurrent
  // bulk callers contend only 1/num_shards of the time.
  struct IngestLane {
    mutable std::mutex mu;
    std::vector<PendingBatch> batches;
  };

  struct Index {
    Index(std::size_t num_shards, std::size_t segment_docs,
          std::size_t cache_entries);

    std::vector<std::unique_ptr<SubShard>> shards;
    std::vector<std::unique_ptr<IngestLane>> lanes;
    std::atomic<std::uint64_t> bulk_seq{0};
    std::atomic<std::uint64_t> bulk_requests{0};
    std::atomic<std::uint64_t> updates{0};
    std::atomic<std::uint64_t> column_build_ns{0};
    std::atomic<std::uint64_t> refreshes{0};
    // Serializes mutators (Refresh, UpdateByQuery) end-to-end, so a staged
    // off-lock column build can never race another mutation of the segment
    // lists it snapshotted. Always acquired before refresh_mu.
    std::mutex ingest_mu;
    // Readers take it shared; mutators take it unique so a refresh becomes
    // visible to queries atomically across sub-shards. With segmented
    // columns, Refresh holds it only for the brief swap-in window.
    mutable std::shared_mutex refresh_mu;
    // Writer-preference gate for refresh_mu: std::shared_mutex (glibc
    // rwlocks) lets a continuous stream of readers barge ahead of a waiting
    // writer indefinitely, which turns the segmented refresh's
    // microsecond swap into an unbounded acquisition stall under a hot
    // dashboard. Readers spin-yield while a mutator is acquiring; the flag
    // is only set around the unique acquisition itself, so the uncontended
    // read path pays one relaxed atomic load.
    std::atomic<bool> refresh_waiting{false};
    void AwaitRefreshGate() const {
      while (refresh_waiting.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    }
    // Unique acquisition with writer preference; mutators are already
    // serialized by ingest_mu, so only one flag owner exists at a time.
    [[nodiscard]] std::unique_lock<std::shared_mutex> LockForMutation() {
      refresh_waiting.store(true, std::memory_order_release);
      std::unique_lock lock(refresh_mu);
      refresh_waiting.store(false, std::memory_order_release);
      return lock;
    }
    std::uint64_t next_docid = 0;  // written under ingest_mu + refresh_mu
    // Exclusive-window durations of past refreshes (the pause concurrent
    // queries can observe), oldest first, capped at kPauseSamples.
    static constexpr std::size_t kPauseSamples = 4096;
    mutable std::mutex pause_mu;
    std::vector<std::uint64_t> refresh_pause_ns;

    [[nodiscard]] std::size_t num_shards() const { return shards.size(); }
  };

  class RowReader;

  // This sub-shard's matches, ascending: one CompiledQuery per segment,
  // evaluated against the segment's columns and bitmap cache.
  static std::vector<DocId> ScanShard(const SubShard& shard,
                                      const Query& query);
  // All matches across sub-shards, ascending docid (= ingestion order),
  // fanned out on the query pool when configured. Caller must hold
  // refresh_mu (shared or unique).
  std::vector<DocId> MatchingDocs(const Index& index, const Query& query) const;
  // Runs fn(shard_index) for every sub-shard: shard 0 on the calling thread,
  // the rest on the query pool when configured (the calls must be
  // independent).
  void RunPerShard(std::size_t num_shards,
                   const std::function<void(std::size_t)>& fn) const;

  std::shared_ptr<Index> Find(const std::string& name);
  std::shared_ptr<const Index> Find(const std::string& name) const;
  std::shared_ptr<Index> FindOrCreate(const std::string& name);

  const ElasticStoreOptions options_;
  std::unique_ptr<ThreadPool> query_pool_;
  mutable std::shared_mutex indices_mu_;
  std::map<std::string, std::shared_ptr<Index>> indices_;
};

}  // namespace dio::backend
