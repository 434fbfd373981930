// QueryBackend: the abstract query surface of the analysis tier. Everything
// that *reads* traced data — the file-path correlator, the misbehaviour
// detectors, the dashboards, DioService's analysis entry points — is written
// against this interface, so the same algorithms run unchanged over a
// single embedded ElasticStore or over a multi-node cluster of them
// (cluster::ClusterRouter): the paper's "dedicated analysis servers"
// deployment shape without forking the analysis code.
//
// The request/response vocabulary (SearchRequest, SearchResult, Hit,
// IndexStats) lives here because it is the contract between backends and
// their consumers; ElasticStore adds the ingest/refresh/snapshot surface on
// top in store.h.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "backend/aggregation.h"
#include "backend/query.h"
#include "common/json.h"
#include "common/status.h"

namespace dio::backend {

using DocId = std::uint64_t;

struct Hit {
  DocId id = 0;
  Json source;
};

struct SortSpec {
  std::string field;
  bool ascending = true;
};

struct SearchRequest {
  Query query = Query::MatchAll();
  std::vector<SortSpec> sort;  // empty = docid (ingestion) order
  std::size_t from = 0;
  std::size_t size = 10'000;
  // Source projection, like ES `_source` includes: empty = whole documents;
  // otherwise each hit carries only the listed top-level fields its
  // document has, in document member order (ProjectFields). Matching,
  // sort, total and paging are unaffected — a sort field need not be
  // listed. Typed rows build just these fields from the columns, so an
  // analysis that reads a few fields of many hits should list them.
  std::vector<std::string> source;

  // Parses an Elasticsearch-style search body:
  //   {"query": {...}, "sort": ["time_enter", {"ret": {"order": "desc"}},
  //    {"pid": "asc"}], "from": 0, "size": 100}
  // A sort order must be "asc" or "desc"; from and size must be
  // non-negative integers. Rejects requests paging past
  // `max_result_window` (from + size), like ES's index.max_result_window
  // guard. Every error names the offending key.
  static Expected<SearchRequest> FromJson(
      const Json& body, std::size_t max_result_window = 10'000);
  static Expected<SearchRequest> FromJsonText(
      std::string_view text, std::size_t max_result_window = 10'000);
};

// The `fields` projection of one document (SearchRequest::source): only the
// listed top-level members the document has, in document member order. An
// empty list, or a document that is not an object, returns it unchanged.
Json ProjectFields(const Json& doc, std::span<const std::string> fields);

// The sort order every backend honors, over whole JSON documents: per spec,
// a document missing the field sorts last in either direction; two numbers
// or two strings compare by value; any other pair ties and falls through to
// the next spec. Returns false on a full tie — callers break ties by docid
// (or, equivalently, stable-sort input that ascends by docid).
bool JsonSortBefore(std::span<const SortSpec> specs, const Json& a,
                    const Json& b);

struct SearchResult {
  std::vector<Hit> hits;
  std::size_t total = 0;  // matches before from/size paging
};

struct IndexStats {
  std::size_t doc_count = 0;       // searchable documents
  std::size_t pending_count = 0;   // bulked but not yet refreshed
  std::size_t typed_rows = 0;      // rows ingested via the typed route
  std::uint64_t bulk_requests = 0;
  std::uint64_t updates = 0;
  // Columnar engine: fields with doc-value columns (summed over sub-shards),
  // cumulative time spent building columns, and filter-bitmap cache traffic.
  std::size_t doc_value_fields = 0;
  std::uint64_t column_build_ns = 0;
  std::uint64_t filter_cache_hits = 0;
  std::uint64_t filter_cache_misses = 0;
  std::uint64_t filter_cache_evictions = 0;
  // Sealed-segment layout: total and sealed column blocks across sub-shards,
  // completed refreshes, and the exclusive-window duration of each recent
  // refresh (the pause concurrent queries can observe; bounded by the
  // refreshed row count, not by index size).
  std::size_t segments = 0;
  std::size_t sealed_segments = 0;
  std::uint64_t refreshes = 0;
  std::vector<std::uint64_t> refresh_pause_ns;
  // Cluster query fan-out (zero on a single store): queries that took the
  // pooled scatter path, and per-shard tasks they fanned out.
  std::uint64_t fanout_queries = 0;
  std::uint64_t fanout_shard_tasks = 0;
};

// The read/analysis contract every backend implementation honors. All
// implementations return hits in ascending docid (ingestion) order when no
// sort is given, apply the same missing-last sort semantics, and count only
// actually-modified documents in UpdateByQuery — so analysis results are
// byte-identical across backends holding the same documents.
class QueryBackend {
 public:
  virtual ~QueryBackend() = default;

  [[nodiscard]] virtual Expected<SearchResult> Search(
      const std::string& index, const SearchRequest& request) const = 0;
  [[nodiscard]] virtual Expected<std::size_t> Count(
      const std::string& index, const Query& query) const = 0;
  [[nodiscard]] virtual Expected<AggResult> Aggregate(
      const std::string& index, const Query& query,
      const Aggregation& agg) const = 0;

  // Applies `update` to every matching document. The callback returns
  // whether it modified the document; only modified documents are
  // re-indexed and counted. Returns the number of documents modified.
  virtual Expected<std::size_t> UpdateByQuery(
      const std::string& index, const Query& query,
      const std::function<bool(Json&)>& update) = 0;

  // Makes all buffered documents searchable (near-real-time refresh).
  virtual void Refresh(const std::string& index) = 0;
  [[nodiscard]] virtual bool HasIndex(const std::string& index) const = 0;
  [[nodiscard]] virtual Expected<IndexStats> Stats(
      const std::string& index) const = 0;
};

}  // namespace dio::backend
