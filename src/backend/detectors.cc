#include "backend/detectors.h"

#include <algorithm>
#include <map>

#include "common/string_util.h"

namespace dio::backend {

namespace {

std::vector<Json> DataSyscallNames() {
  return {Json("read"),  Json("write"),  Json("pread64"),
          Json("pwrite64"), Json("readv"), Json("writev")};
}

}  // namespace

Expected<std::vector<Finding>> DetectStaleOffsets(
    QueryBackend* store, const std::string& index,
    const StaleOffsetOptions& options) {
  // All reads with tags and offsets, in time order; track the first read of
  // every file generation (tag).
  SearchRequest request;
  request.query = Query::And({
      Query::Terms("syscall", {Json("read"), Json("pread64"), Json("readv")}),
      Query::Exists("file_tag"),
      Query::Exists("file_offset"),
  });
  request.sort = {{"time_enter", true}};
  request.size = std::numeric_limits<std::size_t>::max();
  request.source = {"file_tag", "file_offset", "file_path", "ret", "comm",
                    "time_enter"};
  auto reads = store->Search(index, request);
  if (!reads.ok()) return reads.status();

  std::vector<Finding> findings;
  std::map<std::string, bool> seen_tag;
  for (const Hit& hit : reads->hits) {
    const std::string tag = hit.source.GetString("file_tag");
    if (seen_tag[tag]) continue;
    seen_tag[tag] = true;
    const std::int64_t offset = hit.source.GetInt("file_offset");
    if (offset < options.min_suspicious_offset) continue;
    Finding finding;
    finding.detector = "stale-offset";
    finding.file_path = hit.source.GetString("file_path");
    const std::int64_t ret = hit.source.GetInt("ret");
    finding.severity = ret == 0 ? "critical" : "warning";
    finding.message =
        "first read of file generation starts at offset " +
        std::to_string(offset) + " (ret " + std::to_string(ret) +
        "); leading bytes were never consumed" +
        (ret == 0 ? " and the read returned 0 — data loss" : "");
    finding.evidence.Set("file_tag", tag);
    finding.evidence.Set("offset", offset);
    finding.evidence.Set("ret", ret);
    finding.evidence.Set("comm", hit.source.GetString("comm"));
    finding.evidence.Set("time_enter", hit.source.GetInt("time_enter"));
    findings.push_back(std::move(finding));
  }
  return findings;
}

Expected<std::vector<Finding>> DetectContention(
    QueryBackend* store, const std::string& index,
    const ContentionOptions& options) {
  // Foreground latency per window.
  auto fg_agg =
      Aggregation::DateHistogram("time_enter", options.window_ns)
          .SubAgg("lat", Aggregation::Percentiles("duration_ns", {99.0}));
  auto fg = store->Aggregate(
      index, Query::Prefix("comm", options.foreground_prefix), fg_agg);
  if (!fg.ok()) return fg.status();

  // Background activity per window: distinct busy background threads.
  auto bg_agg = Aggregation::DateHistogram("time_enter", options.window_ns)
                    .SubAgg("threads", Aggregation::Terms("comm"));
  std::vector<Query> bg_clauses;
  bg_clauses.reserve(options.background_prefixes.size());
  for (const std::string& prefix : options.background_prefixes) {
    bg_clauses.push_back(Query::Prefix("comm", prefix));
  }
  auto bg = store->Aggregate(index, Query::Or(std::move(bg_clauses)), bg_agg);
  if (!bg.ok()) return bg.status();

  std::map<std::int64_t, int> busy_threads;
  for (const AggBucket& bucket : bg->buckets) {
    const auto threads_it = bucket.sub.find("threads");
    if (threads_it != bucket.sub.end()) {
      busy_threads[bucket.key.as_int()] =
          static_cast<int>(threads_it->second.buckets.size());
    }
  }

  // Median foreground p99 across windows as the baseline.
  struct WindowLat {
    std::int64_t start;
    double p99;
  };
  std::vector<WindowLat> windows;
  for (const AggBucket& bucket : fg->buckets) {
    const auto lat_it = bucket.sub.find("lat");
    if (lat_it == bucket.sub.end() || lat_it->second.metrics.as_object().empty()) {
      continue;
    }
    windows.push_back(
        {bucket.key.as_int(),
         lat_it->second.metrics.as_object().front().second.as_double()});
  }
  if (windows.empty()) return std::vector<Finding>{};
  std::vector<double> latencies;
  latencies.reserve(windows.size());
  for (const WindowLat& w : windows) latencies.push_back(w.p99);
  std::nth_element(latencies.begin(),
                   latencies.begin() + latencies.size() / 2,
                   latencies.end());
  const double median = latencies[latencies.size() / 2];

  std::vector<Finding> findings;
  for (const WindowLat& w : windows) {
    const int threads = busy_threads.count(w.start) != 0
                            ? busy_threads[w.start]
                            : 0;
    if (threads >= options.min_background_threads &&
        w.p99 >= median * options.latency_factor) {
      Finding finding;
      finding.detector = "io-contention";
      finding.severity = "warning";
      finding.message =
          "foreground p99 " + FormatFixed(w.p99 / 1000.0, 0) + "us (" +
          FormatFixed(w.p99 / median, 1) + "x the median) while " +
          std::to_string(threads) + " background threads issued I/O";
      finding.evidence.Set("window_start", w.start);
      finding.evidence.Set("foreground_p99_ns", w.p99);
      finding.evidence.Set("median_p99_ns", median);
      finding.evidence.Set("background_threads", threads);
      findings.push_back(std::move(finding));
    }
  }
  return findings;
}

Expected<std::vector<Finding>> DetectSmallIo(
    QueryBackend* store, const std::string& index,
    const SmallIoOptions& options) {
  // Count per file: all data syscalls, then small ones.
  auto all = store->Aggregate(
      index,
      Query::And({Query::Terms("syscall", DataSyscallNames()),
                  Query::Exists("file_path"),
                  Query::Range("ret", 1, std::nullopt)}),
      Aggregation::Terms("file_path"));
  if (!all.ok()) return all.status();
  auto small = store->Aggregate(
      index,
      Query::And({Query::Terms("syscall", DataSyscallNames()),
                  Query::Exists("file_path"),
                  Query::Range("ret", 1,
                               static_cast<std::int64_t>(
                                   options.small_threshold_bytes - 1))}),
      Aggregation::Terms("file_path"));
  if (!small.ok()) return small.status();

  std::map<std::string, std::int64_t> small_counts;
  for (const AggBucket& bucket : small->buckets) {
    small_counts[bucket.key.as_string()] = bucket.doc_count;
  }
  std::vector<Finding> findings;
  for (const AggBucket& bucket : all->buckets) {
    if (bucket.doc_count < options.min_ops) continue;
    const std::int64_t small_count = small_counts[bucket.key.as_string()];
    const double fraction = static_cast<double>(small_count) /
                            static_cast<double>(bucket.doc_count);
    if (fraction < options.min_fraction) continue;
    Finding finding;
    finding.detector = "small-io";
    finding.severity = "info";
    finding.file_path = bucket.key.as_string();
    finding.message = FormatFixed(fraction * 100.0, 0) + "% of " +
                      std::to_string(bucket.doc_count) +
                      " data syscalls move <" +
                      std::to_string(options.small_threshold_bytes) +
                      " bytes; consider batching";
    finding.evidence.Set("total_ops", bucket.doc_count);
    finding.evidence.Set("small_ops", small_count);
    findings.push_back(std::move(finding));
  }
  return findings;
}

Expected<std::vector<Finding>> DetectRandomAccess(
    QueryBackend* store, const std::string& index,
    const RandomAccessOptions& options) {
  SearchRequest request;
  request.query = Query::And({Query::Terms("syscall", DataSyscallNames()),
                              Query::Exists("file_offset"),
                              Query::Exists("file_path")});
  request.sort = {{"time_enter", true}};
  request.size = std::numeric_limits<std::size_t>::max();
  request.source = {"file_path", "file_offset", "ret"};
  auto events = store->Search(index, request);
  if (!events.ok()) return events.status();

  struct Pattern {
    std::int64_t next_expected = -1;
    std::int64_t sequential = 0;
    std::int64_t random = 0;
  };
  std::map<std::string, Pattern> per_file;
  for (const Hit& hit : events->hits) {
    Pattern& pattern = per_file[hit.source.GetString("file_path")];
    const std::int64_t offset = hit.source.GetInt("file_offset");
    const std::int64_t ret = hit.source.GetInt("ret");
    if (pattern.next_expected >= 0) {
      (offset == pattern.next_expected ? pattern.sequential
                                       : pattern.random)++;
    }
    pattern.next_expected = offset + std::max<std::int64_t>(ret, 0);
  }

  std::vector<Finding> findings;
  for (const auto& [path, pattern] : per_file) {
    const std::int64_t total = pattern.sequential + pattern.random;
    if (total < options.min_ops) continue;
    const double fraction =
        static_cast<double>(pattern.random) / static_cast<double>(total);
    if (fraction < options.min_random_fraction) continue;
    Finding finding;
    finding.detector = "random-access";
    finding.severity = "info";
    finding.file_path = path;
    finding.message = FormatFixed(fraction * 100.0, 0) +
                      "% non-sequential accesses across " +
                      std::to_string(total) + " data syscalls";
    finding.evidence.Set("sequential", pattern.sequential);
    finding.evidence.Set("random", pattern.random);
    findings.push_back(std::move(finding));
  }
  return findings;
}

Expected<std::vector<Finding>> DetectSyscallErrors(
    QueryBackend* store, const std::string& index,
    const ErrorRateOptions& options) {
  // Group failures by (syscall, ret); find the dominant comm per group.
  auto agg = Aggregation::Terms("syscall").SubAgg(
      "by_errno",
      Aggregation::Terms("ret").SubAgg("by_comm", Aggregation::Terms("comm", 1)));
  auto failures = store->Aggregate(
      index, Query::Range("ret", std::nullopt, -1), agg);
  if (!failures.ok()) return failures.status();

  std::vector<Finding> findings;
  for (const AggBucket& syscall_bucket : failures->buckets) {
    const auto errno_it = syscall_bucket.sub.find("by_errno");
    if (errno_it == syscall_bucket.sub.end()) continue;
    for (const AggBucket& errno_bucket : errno_it->second.buckets) {
      const int error = static_cast<int>(-errno_bucket.key.as_int());
      const bool critical =
          std::find(options.critical_errnos.begin(),
                    options.critical_errnos.end(),
                    error) != options.critical_errnos.end();
      if (!critical && errno_bucket.doc_count < options.min_failures) {
        continue;
      }
      std::string comm;
      const auto comm_it = errno_bucket.sub.find("by_comm");
      if (comm_it != errno_bucket.sub.end() &&
          !comm_it->second.buckets.empty()) {
        comm = comm_it->second.buckets.front().key.as_string();
      }
      Finding finding;
      finding.detector = "syscall-errors";
      finding.severity = critical ? "critical" : "warning";
      finding.message = std::string(syscall_bucket.key.as_string()) +
                        " failed " + std::to_string(errno_bucket.doc_count) +
                        " times with errno " + std::to_string(error) +
                        (comm.empty() ? "" : " (mostly from " + comm + ")");
      finding.evidence.Set("syscall", syscall_bucket.key);
      finding.evidence.Set("errno", error);
      finding.evidence.Set("failures", errno_bucket.doc_count);
      if (!comm.empty()) finding.evidence.Set("comm", comm);
      findings.push_back(std::move(finding));
    }
  }
  return findings;
}

Expected<std::vector<Finding>> RunAllDetectors(QueryBackend* store,
                                               const std::string& index) {
  std::vector<Finding> all;
  auto stale = DetectStaleOffsets(store, index);
  if (!stale.ok()) return stale.status();
  auto contention = DetectContention(store, index);
  if (!contention.ok()) return contention.status();
  auto small = DetectSmallIo(store, index);
  if (!small.ok()) return small.status();
  auto random = DetectRandomAccess(store, index);
  if (!random.ok()) return random.status();
  auto errors = DetectSyscallErrors(store, index);
  if (!errors.ok()) return errors.status();
  for (auto* findings : {&stale.value(), &contention.value(), &small.value(),
                         &random.value(), &errors.value()}) {
    for (Finding& finding : *findings) all.push_back(std::move(finding));
  }
  return all;
}

std::string RenderFindings(const std::vector<Finding>& findings) {
  if (findings.empty()) return "(no findings)\n";
  std::string out;
  for (const Finding& finding : findings) {
    out += "[" + finding.severity + "] " + finding.detector;
    if (!finding.file_path.empty()) out += " " + finding.file_path;
    out += ": " + finding.message + "\n";
  }
  return out;
}

}  // namespace dio::backend
