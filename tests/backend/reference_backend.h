// ReferenceBackend: the JSON semantics ElasticStore's columnar engine must
// reproduce, as a plain in-memory QueryBackend for the parity suites.
//
// Documents are stored as JSON in docid (ingestion) order and every request
// walks all of them: Query::Matches filters, JsonSortBefore plus a docid
// tiebreak sorts, ProjectFields projects, Aggregation::Execute /
// ExecutePartial aggregate, and UpdateByQuery calls the update on each
// matching document. BulkWire materializes records with WireEventToJson,
// exactly as the store's JSON ingest route does. Nothing is indexed or
// cached, so a result that differs from ElasticStore's is the engine's
// defect. Not thread-safe: the parity suites drive it from one thread.
#pragma once

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "backend/query_backend.h"
#include "tracer/event.h"
#include "tracer/wire.h"

namespace dio::backend {

class ReferenceBackend final : public QueryBackend {
 public:
  void Bulk(const std::string& index, std::vector<Json> documents) {
    Index& ix = indices_[index];
    ++ix.bulk_requests;
    for (Json& doc : documents) ix.pending.push_back(std::move(doc));
  }

  void BulkWire(const std::string& index, std::string_view session,
                const std::vector<tracer::WireEvent>& records) {
    std::vector<Json> documents;
    documents.reserve(records.size());
    for (const tracer::WireEvent& record : records) {
      documents.push_back(tracer::WireEventToJson(record, session));
    }
    Bulk(index, std::move(documents));
  }

  void Refresh(const std::string& index) override {
    auto it = indices_.find(index);
    if (it == indices_.end()) return;
    Index& ix = it->second;
    for (Json& doc : ix.pending) ix.docs.push_back(std::move(doc));
    ix.pending.clear();
  }

  [[nodiscard]] bool HasIndex(const std::string& index) const override {
    return indices_.contains(index);
  }

  [[nodiscard]] Expected<SearchResult> Search(
      const std::string& index, const SearchRequest& request) const override {
    const Index* ix = Find(index);
    if (ix == nullptr) return NotFound("no such index: " + index);
    std::vector<DocId> matches = Matching(*ix, request.query);
    std::sort(matches.begin(), matches.end(), [&](DocId a, DocId b) {
      if (JsonSortBefore(request.sort, ix->docs[a], ix->docs[b])) return true;
      if (JsonSortBefore(request.sort, ix->docs[b], ix->docs[a])) return false;
      return a < b;
    });
    SearchResult result;
    result.total = matches.size();
    const std::size_t start = std::min(request.from, matches.size());
    const std::size_t end =
        start + std::min(request.size, matches.size() - start);
    for (std::size_t i = start; i < end; ++i) {
      result.hits.push_back(
          Hit{matches[i], ProjectFields(ix->docs[matches[i]], request.source)});
    }
    return result;
  }

  [[nodiscard]] Expected<std::size_t> Count(
      const std::string& index, const Query& query) const override {
    const Index* ix = Find(index);
    if (ix == nullptr) return NotFound("no such index: " + index);
    return Matching(*ix, query).size();
  }

  [[nodiscard]] Expected<AggResult> Aggregate(
      const std::string& index, const Query& query,
      const Aggregation& agg) const override {
    auto docs = MatchingDocs(index, query);
    if (!docs.ok()) return docs.status();
    return agg.Execute(*docs);
  }

  [[nodiscard]] Expected<AggPartial> AggregatePartial(
      const std::string& index, const Query& query,
      const Aggregation& agg) const {
    auto docs = MatchingDocs(index, query);
    if (!docs.ok()) return docs.status();
    return agg.ExecutePartial(*docs);
  }

  Expected<std::size_t> UpdateByQuery(
      const std::string& index, const Query& query,
      const std::function<bool(Json&)>& update) override {
    auto it = indices_.find(index);
    if (it == indices_.end()) return NotFound("no such index: " + index);
    Index& ix = it->second;
    std::size_t modified = 0;
    for (const DocId id : Matching(ix, query)) {
      if (update(ix.docs[id])) ++modified;
    }
    ix.updates += modified;
    return modified;
  }

  [[nodiscard]] Expected<IndexStats> Stats(
      const std::string& index) const override {
    const Index* ix = Find(index);
    if (ix == nullptr) return NotFound("no such index: " + index);
    IndexStats stats;
    stats.doc_count = ix->docs.size();
    stats.pending_count = ix->pending.size();
    stats.bulk_requests = ix->bulk_requests;
    stats.updates = ix->updates;
    return stats;
  }

 private:
  struct Index {
    std::vector<Json> docs;  // position = docid
    std::vector<Json> pending;
    std::uint64_t bulk_requests = 0;
    std::uint64_t updates = 0;
  };

  [[nodiscard]] const Index* Find(const std::string& index) const {
    auto it = indices_.find(index);
    return it == indices_.end() ? nullptr : &it->second;
  }

  static std::vector<DocId> Matching(const Index& ix, const Query& query) {
    std::vector<DocId> out;
    for (DocId id = 0; id < ix.docs.size(); ++id) {
      if (query.Matches(ix.docs[id])) out.push_back(id);
    }
    return out;
  }

  [[nodiscard]] Expected<std::vector<const Json*>> MatchingDocs(
      const std::string& index, const Query& query) const {
    const Index* ix = Find(index);
    if (ix == nullptr) return NotFound("no such index: " + index);
    std::vector<const Json*> docs;
    for (const DocId id : Matching(*ix, query)) docs.push_back(&ix->docs[id]);
    return docs;
  }

  std::map<std::string, Index> indices_;
};

}  // namespace dio::backend
