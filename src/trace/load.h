// Trace loader: bulk-indexes a trace file into an ElasticStore index,
// making a recorded or spooled session analyzable as if it had been shipped
// to the backend live — the offline half of the shipping path, and the
// crash-recovery restore of a session whose "trace" sink (TraceRecordSink)
// spooled it to disk.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "backend/store.h"
#include "common/status.h"
#include "trace/reader.h"

namespace dio::trace {

struct TraceLoadStats {
  std::uint64_t loaded = 0;      // records bulk-indexed
  std::uint64_t duplicates = 0;  // exact repeats skipped
  bool truncated_tail = false;   // a torn final record was tolerated
};

// Decodes `path` (torn-tail rule per `options`, see trace/reader.h) and
// ingests its records into `index` through BulkWire in batches, stamped
// with `session` — trace records carry none. The index is refreshed before
// returning.
//
// Always dedupes. A retry stage above a fan-out re-drives a whole batch
// when the bulk ack is lost, so a spooled trace is at-least-once; loading
// it verbatim would double-index. A record is skipped (and counted) only
// when every decoded field equals an earlier record's, which restores
// exactly-once without ever merging two distinct events.
Expected<TraceLoadStats> LoadTrace(backend::ElasticStore* store,
                                   const std::string& path,
                                   const std::string& index,
                                   std::string_view session,
                                   TraceReadOptions options = {});

}  // namespace dio::trace
