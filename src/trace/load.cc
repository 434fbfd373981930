#include "trace/load.h"

#include <cstring>
#include <unordered_map>
#include <utility>
#include <vector>

#include "trace/replay.h"

namespace dio::trace {

namespace {

constexpr std::size_t kBatchRecords = 512;
constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

bool SameBytes(const char* a, std::uint16_t a_len, const char* b,
               std::uint16_t b_len) {
  return a_len == b_len && std::memcmp(a, b, a_len) == 0;
}

// Field-by-field equality over everything the trace format encodes (raw
// struct bytes would compare padding and unused string capacity).
bool SameFields(const tracer::WireEvent& a, const tracer::WireEvent& b) {
  return a.time_enter == b.time_enter && a.time_exit == b.time_exit &&
         a.ret == b.ret && a.count == b.count &&
         a.arg_offset == b.arg_offset && a.file_offset == b.file_offset &&
         a.tag_dev == b.tag_dev && a.tag_ino == b.tag_ino &&
         a.tag_ts == b.tag_ts && a.pid == b.pid && a.tid == b.tid &&
         a.cpu == b.cpu && a.fd == b.fd && a.whence == b.whence &&
         a.flags == b.flags && a.mode == b.mode &&
         a.comm_trunc == b.comm_trunc &&
         a.proc_name_trunc == b.proc_name_trunc &&
         a.path_trunc == b.path_trunc && a.path2_trunc == b.path2_trunc &&
         a.xattr_trunc == b.xattr_trunc && a.phase == b.phase &&
         a.nr == b.nr && a.file_type == b.file_type &&
         a.tag_valid == b.tag_valid &&
         SameBytes(a.comm, a.comm_len, b.comm, b.comm_len) &&
         SameBytes(a.proc_name, a.proc_name_len, b.proc_name,
                   b.proc_name_len) &&
         SameBytes(a.path, a.path_len, b.path, b.path_len) &&
         SameBytes(a.path2, a.path2_len, b.path2, b.path2_len) &&
         SameBytes(a.xattr_name, a.xattr_len, b.xattr_name, b.xattr_len);
}

}  // namespace

Expected<TraceLoadStats> LoadTrace(backend::ElasticStore* store,
                                   const std::string& path,
                                   const std::string& index,
                                   std::string_view session,
                                   TraceReadOptions options) {
  auto reader = TraceReader::Open(path, options);
  if (!reader.ok()) return reader.status();
  TraceLoadStats stats;
  // Every kept record, keyed by its field hash; a hash hit is a duplicate
  // only when the fields compare equal.
  std::unordered_multimap<std::uint64_t, tracer::WireEvent> seen;
  std::vector<tracer::WireEvent> batch;
  tracer::WireEvent record;
  while (true) {
    auto more = (*reader)->Next(&record);
    if (!more.ok()) return more.status();
    if (!*more) break;
    const std::uint64_t hash = HashWireEvent(kFnvBasis, record);
    auto [first, last] = seen.equal_range(hash);
    bool duplicate = false;
    for (auto it = first; it != last && !duplicate; ++it) {
      duplicate = SameFields(it->second, record);
    }
    if (duplicate) {
      ++stats.duplicates;
      continue;
    }
    seen.emplace(hash, record);
    batch.push_back(record);
    ++stats.loaded;
    if (batch.size() >= kBatchRecords) {
      store->BulkWire(index, session, std::exchange(batch, {}));
    }
  }
  if (!batch.empty()) store->BulkWire(index, session, std::move(batch));
  store->Refresh(index);
  stats.truncated_tail = (*reader)->stats().truncated_tail();
  return stats;
}

}  // namespace dio::trace
