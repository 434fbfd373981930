// Automated I/O-misbehaviour detectors — the §V future-work direction
// ("build a collection of correlation algorithms that can quickly identify
// the inefficient behaviors observed in the aforementioned applications"),
// implemented on top of the store's query API.
//
// Each detector scans one tracing session and returns typed findings with
// the evidence (event ids / values) a user would otherwise dig out of the
// dashboards by hand. Where a detector needs one row per group it asks the
// store for an aggregation rather than for the rows, so it reads no search
// hits and its memory grows with groups, not with matched rows:
//
//   * StaleOffsetDetector   — the §III-B data-loss pattern: a file is read
//     from a non-zero offset right after being (re)created, so leading
//     bytes are silently skipped or reads return 0 at EOF.
//   * ContentionDetector    — the §III-C pattern: time windows where
//     background threads' I/O coincides with a latency jump for foreground
//     threads.
//   * SmallIoDetector       — costly access patterns: files dominated by
//     tiny data syscalls.
//   * RandomAccessDetector  — files accessed with mostly non-sequential
//     offsets.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "backend/query_backend.h"
#include "common/status.h"

namespace dio::backend {

struct Finding {
  std::string detector;
  std::string severity;  // "info" | "warning" | "critical"
  std::string file_path; // empty when not file-specific
  std::string message;
  Json evidence = Json::MakeObject();
};

// -- data loss / stale offset (§III-B) ---------------------------------------

struct StaleOffsetOptions {
  // A first read on a fresh file generation at an offset >= this is flagged.
  std::int64_t min_suspicious_offset = 1;
};

// Detects reads that start beyond offset 0 on the FIRST read of a file
// generation (identified by its file tag): the reader skipped leading bytes
// that were never consumed — the Fluent Bit bug signature. Runs as one
// aggregation over the reads, terms(file_tag) > top_hits(sort time_enter
// asc): each generation's first read by (time_enter, docid), missing
// time_enter last. Findings come out in (time_enter, docid) order; a
// non-string tag reads as "", so such tags count as one generation.
Expected<std::vector<Finding>> DetectStaleOffsets(
    QueryBackend* store, const std::string& index,
    const StaleOffsetOptions& options = {});

// -- background/foreground contention (§III-C) --------------------------------

struct ContentionOptions {
  std::int64_t window_ns = 250'000'000;
  // Thread-name prefixes considered background (e.g. compaction pools).
  std::vector<std::string> background_prefixes = {"rocksdb:low"};
  // Thread-name prefix considered foreground (clients).
  std::string foreground_prefix = "db_bench";
  // Flag windows where foreground p99 latency exceeds the run median by
  // this multiple while >= min_background_threads are active.
  double latency_factor = 1.5;
  int min_background_threads = 2;
};

Expected<std::vector<Finding>> DetectContention(
    QueryBackend* store, const std::string& index,
    const ContentionOptions& options = {});

// -- inefficient access patterns ----------------------------------------------

struct SmallIoOptions {
  std::uint64_t small_threshold_bytes = 4096;
  // Flag files where at least this fraction of data syscalls are small and
  // there are at least min_ops of them.
  double min_fraction = 0.8;
  std::int64_t min_ops = 64;
};

Expected<std::vector<Finding>> DetectSmallIo(
    QueryBackend* store, const std::string& index,
    const SmallIoOptions& options = {});

// Folds each file's accesses in time order (a sorted search over the data
// syscalls); a finding per file with mostly non-sequential offsets.
struct RandomAccessOptions {
  // Flag files whose non-sequential access fraction exceeds this.
  double min_random_fraction = 0.5;
  std::int64_t min_ops = 32;
};

Expected<std::vector<Finding>> DetectRandomAccess(
    QueryBackend* store, const std::string& index,
    const RandomAccessOptions& options = {});

// -- failing syscalls (dependability) -----------------------------------------

struct ErrorRateOptions {
  // Flag (syscall, errno) pairs with at least this many failures...
  std::int64_t min_failures = 8;
  // ...or any occurrence of these always-suspicious errnos.
  std::vector<int> critical_errnos = {28 /*ENOSPC*/, 5 /*EIO*/};
};

// Flags syscalls that repeatedly fail (ret < 0), grouped by syscall and
// errno, with the dominant process — surfacing dependability problems like
// a filesystem running out of space.
Expected<std::vector<Finding>> DetectSyscallErrors(
    QueryBackend* store, const std::string& index,
    const ErrorRateOptions& options = {});

// Runs every detector with default options and concatenates findings.
Expected<std::vector<Finding>> RunAllDetectors(QueryBackend* store,
                                               const std::string& index);

// One-line-per-finding report.
std::string RenderFindings(const std::vector<Finding>& findings);

}  // namespace dio::backend
