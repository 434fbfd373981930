// Macro-benchmark: sustained typed ingest under a live dashboard query mix.
//
// The sealed-segment refresh (backend.segment_docs) exists for exactly this
// workload: an analyst keeps a dashboard of filtered counts/aggregations
// open while the tracer is still shipping events, so every refresh races
// with readers. This harness runs one ingest thread (BulkWire batches, a
// Refresh after every batch) against two query threads looping the
// dashboard mix on a sealed-segment store. It reports the sustained ingest
// rate, the reader-visible refresh-pause distribution, and the
// filter-cache economy, then proves the caches changed nothing: a
// deterministic post-run query replay must produce byte-identical digests
// on the segmented store and on a cache-disabled twin
// (backend.filter_cache_entries=0) ingested without concurrent readers.
// Emits BENCH_mb_live_ingest.json.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "backend/store.h"
#include "bench/harness_util.h"
#include "common/clock.h"
#include "common/random.h"
#include "tracer/wire.h"

using namespace dio;
using backend::AggBucket;
using backend::Aggregation;
using backend::AggResult;
using backend::ElasticStore;
using backend::ElasticStoreOptions;
using backend::Hit;
using backend::Query;
using backend::SearchRequest;
using backend::SearchResult;

namespace {

constexpr std::size_t kDefaultEvents = 500'000;
constexpr std::size_t kQueryThreads = 2;
constexpr char kIndex[] = "events";
constexpr char kSession[] = "mb-live";

// Same deterministic synthetic stream as mb_ingest: hot syscall mix,
// per-thread comms, paths + file tags on most data events.
tracer::WireEvent MakeEvent(Random& rng, std::size_t i) {
  static const os::SyscallNr kMix[] = {
      os::SyscallNr::kRead,  os::SyscallNr::kWrite, os::SyscallNr::kOpenat,
      os::SyscallNr::kClose, os::SyscallNr::kFsync, os::SyscallNr::kLseek};
  static const char* kComms[] = {"rocksdb:low", "rocksdb:high", "fluent-bit",
                                 "postgres", "dio-tracer"};
  tracer::WireEvent e;
  const os::SyscallNr nr = kMix[rng.Uniform(6)];
  const os::SyscallDescriptor& desc = os::Describe(nr);
  e.nr = static_cast<std::uint8_t>(nr);
  e.phase = 2;
  e.pid = 4242;
  e.tid = static_cast<std::int32_t>(100 + rng.Uniform(64));
  e.cpu = static_cast<std::int32_t>(rng.Uniform(8));
  e.comm_len = tracer::WireEvent::FillString(
      e.comm, tracer::kWireCommCap, kComms[rng.Uniform(5)], &e.comm_trunc);
  e.proc_name_len = tracer::WireEvent::FillString(
      e.proc_name, tracer::kWireCommCap, "db_bench", &e.proc_name_trunc);
  e.time_enter = static_cast<std::int64_t>(i * 13 + rng.Uniform(11));
  e.time_exit =
      e.time_enter + static_cast<std::int64_t>(rng.Uniform(5'000'000));
  e.ret = rng.OneIn(16) ? -static_cast<std::int64_t>(1 + rng.Uniform(32))
                        : static_cast<std::int64_t>(rng.Uniform(1 << 16));
  if (desc.takes_fd) e.fd = static_cast<std::int32_t>(3 + rng.Uniform(61));
  if (desc.data_related) {
    e.count = rng.Uniform(1 << 16);
    e.file_offset = static_cast<std::int64_t>(rng.Uniform(1 << 24));
  }
  if (!rng.OneIn(5)) {
    const std::string path =
        "/data/db/sstable-" + std::to_string(rng.Uniform(64));
    e.path_len = tracer::WireEvent::FillString(e.path, tracer::kWirePathCap,
                                               path, &e.path_trunc);
    e.tag_valid = 1;
    e.tag_dev = 259;
    e.tag_ino = 1000 + rng.Uniform(64);
    e.tag_ts = static_cast<std::int64_t>(rng.Uniform(1 << 20));
  }
  if (nr == os::SyscallNr::kLseek) {
    e.whence = static_cast<std::int32_t>(rng.Uniform(3));
    e.arg_offset = static_cast<std::int64_t>(rng.Uniform(1 << 20));
  }
  if (nr == os::SyscallNr::kOpenat) {
    e.flags = 0x241;
    e.mode = 0644;
  }
  return e;
}

std::string DumpResult(const SearchResult& result) {
  Json out = Json::MakeObject();
  out.Set("total", result.total);
  Json hits = Json::MakeArray();
  for (const Hit& hit : result.hits) {
    Json h = Json::MakeObject();
    h.Set("id", hit.id);
    h.Set("source", hit.source);
    hits.Append(std::move(h));
  }
  out.Set("hits", std::move(hits));
  return out.Dump();
}

std::string DumpAgg(const AggResult& agg) {
  Json out = Json::MakeObject();
  out.Set("metrics", agg.metrics);
  Json buckets = Json::MakeArray();
  for (const AggBucket& bucket : agg.buckets) {
    Json b = Json::MakeObject();
    b.Set("key", bucket.key);
    b.Set("doc_count", bucket.doc_count);
    for (const auto& [name, sub] : bucket.sub) {
      b.Set("sub_" + name, DumpAgg(sub));
    }
    buckets.Append(std::move(b));
  }
  out.Set("buckets", std::move(buckets));
  return out.Dump();
}

// The dashboard mix: two cached count predicates (one column range, one
// scan-path Not/Exists), a selective sorted window search, a filtered terms
// aggregation with a stats sub-agg, and a prefix count. `horizon` bounds
// the time window (events ingested so far during the live phase, the full
// stream during replay).
std::uint64_t DashboardMix(const ElasticStore& store, std::size_t horizon,
                           std::string* digest_out) {
  std::uint64_t sink = 0;
  std::string digest;
  auto absorb = [&](const std::string& s) {
    if (digest_out != nullptr) digest += s + "\n";
  };

  auto failed = store.Count(
      kIndex,
      Query::Range("ret", std::numeric_limits<std::int64_t>::min(), -1));
  sink += failed.ok() ? *failed : 0;
  absorb("failed=" + std::to_string(failed.ok() ? *failed : 0));

  auto pathless = store.Count(kIndex, Query::Not(Query::Exists("path")));
  sink += pathless.ok() ? *pathless : 0;
  absorb("pathless=" + std::to_string(pathless.ok() ? *pathless : 0));

  SearchRequest window;
  window.query =
      Query::Range("time_enter", static_cast<std::int64_t>(horizon) * 13 / 2,
                   static_cast<std::int64_t>(horizon) * 13);
  window.sort = {{"duration_ns", false}, {"time_enter", true}};
  window.size = 50;
  auto search = store.Search(kIndex, window);
  if (search.ok()) {
    sink += search->total;
    absorb(DumpResult(*search));
  }

  auto terms = store.Aggregate(
      kIndex, Query::Term("syscall", "write"),
      Aggregation::Terms("comm").SubAgg("lat",
                                        Aggregation::Stats("duration_ns")));
  if (terms.ok()) {
    for (const AggBucket& bucket : terms->buckets) {
      sink += static_cast<std::uint64_t>(bucket.doc_count);
    }
    absorb(DumpAgg(*terms));
  }

  auto sst = store.Count(kIndex, Query::Prefix("path", "/data/db/sstable-1"));
  sink += sst.ok() ? *sst : 0;
  absorb("sst=" + std::to_string(sst.ok() ? *sst : 0));

  if (digest_out != nullptr) *digest_out = digest;
  return sink;
}

std::uint64_t Fnv1a(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : text) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

struct ModeRun {
  std::string mode;
  bool concurrent = false;
  double ingest_ms = 0.0;
  double events_per_sec = 0.0;  // sustained: batches + per-batch refreshes
  std::uint64_t query_ops = 0;  // dashboard mixes completed during ingest
  double refresh_pause_ms_p50 = 0.0;
  double refresh_pause_ms_p99 = 0.0;
  double live_cache_hit_rate = 0.0;    // over the concurrent query phase
  double replay_cache_hit_rate = 0.0;  // over the two-pass digest replay
  std::uint64_t sealed_segments = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t digest = 0;
  std::size_t typed_rows = 0;
};

double MsSince(Nanos start) {
  return static_cast<double>(SteadyClock::Instance()->NowNanos() - start) /
         1e6;
}

ModeRun RunMode(const std::string& mode, ElasticStoreOptions options,
                std::size_t events, std::size_t batch_size, bool concurrent) {
  ElasticStore store(options);
  ModeRun run;
  run.mode = mode;
  run.concurrent = concurrent;

  std::atomic<bool> done{false};
  std::atomic<std::size_t> ingested{0};
  std::atomic<std::uint64_t> query_ops{0};
  std::atomic<std::uint64_t> query_sink{0};
  std::vector<std::thread> readers;
  if (concurrent) {
    for (std::size_t t = 0; t < kQueryThreads; ++t) {
      readers.emplace_back([&] {
        std::uint64_t ops = 0;
        std::uint64_t sink = 0;
        while (!done.load(std::memory_order_relaxed)) {
          sink += DashboardMix(
              store, std::max<std::size_t>(1, ingested.load()), nullptr);
          ++ops;
        }
        query_ops.fetch_add(ops);
        query_sink.fetch_add(sink);
      });
    }
  }

  Random rng(42);
  std::vector<tracer::WireEvent> batch;
  batch.reserve(batch_size);
  const Nanos start = SteadyClock::Instance()->NowNanos();
  for (std::size_t i = 0; i < events; ++i) {
    batch.push_back(MakeEvent(rng, i));
    if (batch.size() == batch_size) {
      store.BulkWire(kIndex, kSession, std::move(batch));
      store.Refresh(kIndex);
      ingested.store(i + 1, std::memory_order_relaxed);
      batch.clear();
      batch.reserve(batch_size);
    }
  }
  if (!batch.empty()) store.BulkWire(kIndex, kSession, std::move(batch));
  store.Refresh(kIndex);
  ingested.store(events, std::memory_order_relaxed);
  run.ingest_ms = MsSince(start);
  run.events_per_sec =
      run.ingest_ms > 0 ? static_cast<double>(events) / (run.ingest_ms / 1e3)
                        : 0.0;

  done.store(true);
  for (std::thread& reader : readers) reader.join();
  run.query_ops = query_ops.load();

  std::uint64_t live_hits = 0;
  std::uint64_t live_misses = 0;
  if (auto stats = store.Stats(kIndex); stats.ok()) {
    run.refresh_pause_ms_p50 = bench::PercentileMs(stats->refresh_pause_ns, 50);
    run.refresh_pause_ms_p99 = bench::PercentileMs(stats->refresh_pause_ns, 99);
    run.sealed_segments = stats->sealed_segments;
    run.refreshes = stats->refreshes;
    run.typed_rows = stats->typed_rows;
    live_hits = stats->filter_cache_hits;
    live_misses = stats->filter_cache_misses;
    const double lookups = static_cast<double>(live_hits + live_misses);
    run.live_cache_hit_rate =
        lookups > 0 ? static_cast<double>(live_hits) / lookups : 0.0;
  }

  // Deterministic replay, two passes: the first may miss (the live phase
  // used a moving horizon), the second must hit every cached predicate —
  // unless the cache is disabled or the engine has none. Both passes must
  // produce the same digest (nothing ingests between them).
  std::string digest_a;
  std::string digest_b;
  DashboardMix(store, events, &digest_a);
  DashboardMix(store, events, &digest_b);
  run.digest = Fnv1a(digest_a);
  if (digest_a != digest_b) {
    std::printf("%s: replay digest unstable across passes\n", mode.c_str());
    run.digest = 0;  // forces the cross-mode digest check to fail
  }
  if (auto stats = store.Stats(kIndex); stats.ok()) {
    const double hits =
        static_cast<double>(stats->filter_cache_hits - live_hits);
    const double lookups =
        hits + static_cast<double>(stats->filter_cache_misses - live_misses);
    run.replay_cache_hit_rate = lookups > 0 ? hits / lookups : 0.0;
  }
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t events = kDefaultEvents;
  if (argc > 1) events = static_cast<std::size_t>(std::atoll(argv[1]));
  // Scale the batch (= refresh cadence) down with tiny smoke runs so the
  // concurrent phase still sees many refreshes; segments seal at one
  // batch's size, so every mode crosses seal boundaries mid-run.
  const std::size_t batch_size =
      events >= 65536 ? 4096 : std::max<std::size_t>(128, events / 8);
  const std::size_t segment_docs = batch_size;

  std::printf(
      "MACRO-BENCH: live typed ingest under %zu-thread dashboard query mix — "
      "sealed segments (%zu events, %zu-event bulks, refresh per bulk, "
      "segment_docs=%zu)\n\n",
      kQueryThreads, events, batch_size, segment_docs);

  bench::BenchReport report("mb_live_ingest");
  report.SetConfig("events", Json(static_cast<std::int64_t>(events)));
  report.SetConfig("bulk_size", Json(static_cast<std::int64_t>(batch_size)));
  report.SetConfig("segment_docs",
                   Json(static_cast<std::int64_t>(segment_docs)));
  report.SetConfig("query_threads",
                   Json(static_cast<std::int64_t>(kQueryThreads)));
  report.SetConfig("shards_per_index", Json(static_cast<std::int64_t>(4)));

  ElasticStoreOptions segmented;
  segmented.shards_per_index = 4;
  segmented.segment_docs = segment_docs;

  ElasticStoreOptions nocache = segmented;
  nocache.filter_cache_entries = 0;

  std::printf("%-10s %-10s %-12s %-14s %-10s %-10s %-10s %-9s %-9s %-8s\n",
              "mode", "load", "ingest_ms", "events_per_s", "query_ops",
              "pause_p50", "pause_p99", "live_hit", "replay_hit", "sealed");

  std::vector<ModeRun> runs;
  const struct {
    const char* mode;
    ElasticStoreOptions options;
    bool concurrent;
  } kModes[] = {
      {"segmented", segmented, true},
      {"nocache", nocache, false},
  };
  for (const auto& spec : kModes) {
    runs.push_back(
        RunMode(spec.mode, spec.options, events, batch_size, spec.concurrent));
    const ModeRun& run = runs.back();
    std::printf(
        "%-10s %-10s %-12.1f %-14.0f %-10llu %-10.3f %-10.3f %-9.2f %-9.2f "
        "%-8llu\n",
        run.mode.c_str(), run.concurrent ? "2q" : "idle", run.ingest_ms,
        run.events_per_sec, static_cast<unsigned long long>(run.query_ops),
        run.refresh_pause_ms_p50, run.refresh_pause_ms_p99,
        run.live_cache_hit_rate, run.replay_cache_hit_rate,
        static_cast<unsigned long long>(run.sealed_segments));
  }

  const ModeRun& seg = runs[0];

  for (const ModeRun& run : runs) {
    Json row = Json::MakeObject();
    row.Set("mode", run.mode);
    row.Set("concurrent_queries",
            static_cast<std::int64_t>(run.concurrent ? kQueryThreads : 0));
    row.Set("ingest_ms", run.ingest_ms);
    row.Set("sustained_events_per_sec", run.events_per_sec);
    row.Set("query_ops", static_cast<std::int64_t>(run.query_ops));
    row.Set("refresh_pause_ms_p50", run.refresh_pause_ms_p50);
    row.Set("refresh_pause_ms_p99", run.refresh_pause_ms_p99);
    row.Set("filter_cache_hit_rate", run.live_cache_hit_rate);
    row.Set("replay_cache_hit_rate", run.replay_cache_hit_rate);
    row.Set("sealed_segments", static_cast<std::int64_t>(run.sealed_segments));
    row.Set("refreshes", static_cast<std::int64_t>(run.refreshes));
    row.Set("digest", static_cast<std::int64_t>(run.digest));
    report.AddRow(std::move(row));
  }
  report.Write();

  std::printf("\nsustained ingest under load: %.0f events/s\n",
              seg.events_per_sec);

  bool ok = true;
  for (const ModeRun& run : runs) {
    if (run.digest != seg.digest || run.digest == 0) {
      std::printf("DIGEST MISMATCH: %s=%016llx segmented=%016llx\n",
                  run.mode.c_str(),
                  static_cast<unsigned long long>(run.digest),
                  static_cast<unsigned long long>(seg.digest));
      ok = false;
    }
  }
  std::printf("replay digests: %s across segmented/nocache\n",
              ok ? "identical" : "MISMATCH");
  if (seg.replay_cache_hit_rate <= 0.0) {
    std::printf("segmented replay produced no filter-cache hits\n");
    ok = false;
  }
  if (runs[1].replay_cache_hit_rate != 0.0) {
    std::printf("cache-disabled twin somehow hit its filter cache\n");
    ok = false;
  }
  if (seg.typed_rows != events) {
    std::printf("segmented store indexed %zu typed rows, expected %zu\n",
                seg.typed_rows, events);
    ok = false;
  }
  return ok ? 0 : 1;
}
