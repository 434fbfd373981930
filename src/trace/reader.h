// Trace reader: streaming decoder for the binary trace format
// (trace/format.h). A trace file is also the transport's spool (the "trace"
// sink), so the tail semantics are the crash-recovery rule:
//
//  * A TORN final record — EOF hit inside a frame, the leftover of a crash
//    mid-flush — is skipped and counted in tolerant mode
//    (allow_truncated_tail), and is an error in strict mode. A torn header
//    (zero-byte or short file) is the degenerate case of the same rule.
//  * CORRUPTION anywhere — CRC mismatch, bad magic/version, unknown record
//    type, malformed payload, dangling dictionary reference — is an error
//    in BOTH modes. Every error message carries the 1-based record index
//    and the exact byte offset of the failing frame, so a corrupt capture
//    is diagnosable without a hex dump.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "trace/format.h"
#include "tracer/wire.h"

namespace dio::trace {

struct TraceReadOptions {
  // Tolerate a torn FINAL record (or torn header): reading stops there and
  // the truncation is reported in TraceReadStats. Corruption anywhere else
  // still fails the read.
  bool allow_truncated_tail = false;
};

struct TraceReadStats {
  std::uint64_t events = 0;        // event records decoded
  std::uint64_t dict_entries = 0;  // dictionary records decoded
  std::uint64_t bytes = 0;         // bytes consumed, header included
  // Torn final records tolerated (0 or 1: a file has one tail).
  std::uint64_t torn_tail_records = 0;
  [[nodiscard]] bool truncated_tail() const { return torn_tail_records > 0; }
};

class TraceReader {
 public:
  // Opens `path` and validates the header (magic, version, CRC).
  static Expected<std::unique_ptr<TraceReader>> Open(
      const std::string& path, TraceReadOptions options = {});

  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  // Decodes the next event record into `*out` (a fully reconstructed wire
  // record: strings resolved from the dictionary, timestamps un-deltaed).
  // Returns false at end of trace. Dictionary records are consumed
  // internally. A non-OK status reports corruption (both modes) or a torn
  // tail (strict mode).
  Expected<bool> Next(tracer::WireEvent* out);

  [[nodiscard]] const TraceReadStats& stats() const { return stats_; }

 private:
  TraceReader(std::ifstream in, TraceReadOptions options);

  Status CorruptAt(std::uint64_t offset, const std::string& what) const;

  std::ifstream in_;
  TraceReadOptions options_;
  TraceReadStats stats_;
  std::vector<std::string> dict_{""};  // id 0 = empty string
  std::int64_t prev_time_enter_ = 0;
  std::uint64_t record_index_ = 0;  // 1-based index of the current frame
  bool done_ = false;
  std::string frame_;  // reused frame buffer
};

// Convenience: decodes the whole file. `stats` (optional) receives the read
// accounting either way.
Expected<std::vector<tracer::WireEvent>> ReadTraceFile(
    const std::string& path, TraceReadOptions options = {},
    TraceReadStats* stats = nullptr);

}  // namespace dio::trace
