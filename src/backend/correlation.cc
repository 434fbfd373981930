#include "backend/correlation.h"

#include "backend/typed_ingest.h"

namespace dio::backend {

bool FilePathUpdate::operator()(Json& doc) const {
  if (doc.Has(kFilePathField)) return false;
  auto it = tag_to_path->find(doc.GetString("file_tag"));
  if (it == tag_to_path->end()) return false;
  doc.Set(std::string(kFilePathField), it->second);
  return true;
}

Expected<CorrelationStats> FilePathCorrelator::Run(const std::string& index) {
  CorrelationStats stats;
  // A fresh table per run: an earlier run's table may still be referenced
  // by a replication log entry.
  auto table = std::make_shared<FilePathUpdate::Table>();
  tag_to_path_ = table;

  // Step 1: harvest tag -> path from open-type events: per tag, the first
  // open (by docid) whose path is a non-empty string. A tag that is not a
  // non-empty string names no bucket worth keeping.
  const auto opens = store_->Aggregate(
      index,
      Query::And({
          Query::Terms("syscall",
                       {Json("open"), Json("openat"), Json("creat")}),
          Query::Exists("file_tag"),
          Query::Prefix("path", ""),
          Query::Not(Query::Term("path", Json(""))),
      }),
      Aggregation::Terms("file_tag")
          .SubAgg("first", Aggregation::TopHits({}, {"path"})));
  if (!opens.ok()) return opens.status();
  for (const AggBucket& bucket : opens->buckets) {
    if (!bucket.key.is_string() || bucket.key.as_string().empty()) continue;
    const Json& hit =
        bucket.sub.at("first").metrics.Find("hits")->as_array().front();
    table->emplace(bucket.key.as_string(),
                   hit.Find("_source")->GetString("path"));
  }
  stats.tags_discovered = table->size();

  // Step 2: update every tagged event with the resolved path. Events that
  // already carry a file_path (a previous run, or an overlapping pass) are
  // skipped and must not count as updated.
  auto updated = store_->UpdateByQuery(index, Query::Exists("file_tag"),
                                       FilePathUpdate{tag_to_path_});
  if (!updated.ok()) return updated.status();
  stats.events_updated = *updated;

  // Step 3: count outcomes.
  auto resolved = store_->Count(
      index,
      Query::And({Query::Exists("file_tag"), Query::Exists("file_path")}));
  if (!resolved.ok()) return resolved.status();
  auto tagged = store_->Count(index, Query::Exists("file_tag"));
  if (!tagged.ok()) return tagged.status();
  stats.events_resolved = *resolved;
  stats.events_unresolved = *tagged - *resolved;
  return stats;
}

}  // namespace dio::backend
