// File path correlation algorithm (§II-C).
//
// The tracer labels fd-handling syscalls with a file tag (dev|ino|first-
// access-ts) but only open-type syscalls carry the path argument. This
// algorithm — built purely on the store's query and update-by-query
// features, like the paper's Elasticsearch implementation — translates each
// event's file tag into the actual file path:
//
//   1. aggregate the events whose syscall is open/openat/creat, with a tag
//      and a non-empty path, as terms(file_tag) > top_hits (docid order,
//      source [path]) -> build the tag-key -> path dictionary from each
//      tag's first open, with no search hits read;
//   2. update-by-query every tagged event, setting "file_path" (the
//      FilePathUpdate callback below).
//
// Step 2 goes through the generic QueryBackend::UpdateByQuery, but
// ElasticStore recognizes a FilePathUpdate callback and writes typed rows'
// file_path straight into their columns, so rows ingested on the typed
// route stay typed after correlation. Every other backend, every JSON row,
// and the JSON-ingest parity oracle run the callback on the document.
//
// Events whose tag was never seen on an open (e.g. the open happened before
// tracing started, or the open event was discarded at the ring buffer) stay
// unresolved — exactly the ≤5% unreported-path effect of §III-D.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "backend/query_backend.h"
#include "common/status.h"

namespace dio::backend {

struct CorrelationStats {
  std::size_t tags_discovered = 0;   // distinct tag -> path mappings
  std::size_t events_updated = 0;    // events that gained a file_path THIS run
  std::size_t events_resolved = 0;   // tagged events with a path after the run
  std::size_t events_unresolved = 0; // tagged events left without a path

  [[nodiscard]] double unresolved_ratio() const {
    const std::size_t total = events_resolved + events_unresolved;
    return total == 0 ? 0.0
                      : static_cast<double>(events_unresolved) /
                            static_cast<double>(total);
  }
};

// The correlator's step 2 as a named callable. Skips a document that
// already has file_path; otherwise sets file_path when the document's
// file_tag is in the table. The table is shared, not copied, because a
// cluster router keeps the callback in its replication log.
struct FilePathUpdate {
  using Table = std::map<std::string, std::string>;

  std::shared_ptr<const Table> tag_to_path;

  bool operator()(Json& doc) const;
};

class FilePathCorrelator {
 public:
  explicit FilePathCorrelator(QueryBackend* store) : store_(store) {}

  // Runs the algorithm over one tracing session's index. Can be re-run
  // on-demand as more data arrives (§II-E: "automatically executed by the
  // tracer or on-demand by users").
  Expected<CorrelationStats> Run(const std::string& index);

  // The tag dictionary discovered by the last Run (for inspection/tests).
  [[nodiscard]] const FilePathUpdate::Table& tag_to_path() const {
    return *tag_to_path_;
  }

 private:
  QueryBackend* store_;
  std::shared_ptr<const FilePathUpdate::Table> tag_to_path_ =
      std::make_shared<const FilePathUpdate::Table>();
};

}  // namespace dio::backend
