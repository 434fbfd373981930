// Ablation: parallel shard fan-out in the ElasticStore's columnar query
// engine.
//
// The paper's analysis loop (§II-C) is an Elasticsearch dashboard: sorted
// event searches, error counts, terms/date-histogram/percentiles panels, all
// re-issued on every refresh. This harness indexes the same synthetic syscall
// corpus (JSON documents, so the rows carry no typed-ingest shortcut) into
// stores that differ only in backend.query_threads — typed doc-value columns
// plus cached filter bitmaps, sub-shards evaluated on the calling thread or
// fanned out on a query pool — then times an analyst's query mix against
// each.
//
// A second phase, `panels`, times the four dashboard aggregations of
// viz::Dashboards on their own (terms(syscall), terms(syscall)>stats,
// terms(comm)>date_histogram, prefix(comm) + date_histogram>percentiles) and
// reports each as ns per indexed row, best of 15 rounds, at 80k and 400k
// rows (at 20k rows for a smaller run, where the per-call cost would swamp
// the per-row cost at a smoke-sized event count). Its checksum hashes
// every result's full dump, so two builds that report the same checksum
// returned byte-identical aggregations. Emits BENCH_ab_query_backend.json.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "backend/store.h"
#include "bench/harness_util.h"
#include "common/clock.h"
#include "common/random.h"

using namespace dio;
using backend::Aggregation;
using backend::ElasticStore;
using backend::ElasticStoreOptions;
using backend::Query;
using backend::SearchRequest;

namespace {

constexpr std::size_t kDefaultDocs = 1'000'000;
constexpr char kIndex[] = "events";

// Synthetic traced-syscall corpus, same shape the DIO pipeline ships:
// hot fields are ints (timestamps, sizes, results), plus a process name and
// a resolved file path for the correlation-style panels.
void Fill(ElasticStore& store, std::size_t docs) {
  static const char* kSyscalls[] = {"read",  "write", "openat", "close",
                                    "fsync", "lseek"};
  static const char* kComms[] = {"rocksdb:low", "rocksdb:high", "fluent-bit",
                                 "postgres", "dio-tracer"};
  Random rng(42);
  std::vector<Json> batch;
  batch.reserve(8192);
  for (std::size_t i = 0; i < docs; ++i) {
    Json doc = Json::MakeObject();
    doc.Set("syscall", kSyscalls[rng.Uniform(6)]);
    doc.Set("comm", kComms[rng.Uniform(5)]);
    doc.Set("tid", static_cast<std::int64_t>(100 + rng.Uniform(64)));
    doc.Set("time_enter", static_cast<std::int64_t>(i * 13 + rng.Uniform(11)));
    doc.Set("duration_ns", static_cast<std::int64_t>(rng.Uniform(5'000'000)));
    doc.Set("ret",
            rng.OneIn(16) ? -static_cast<std::int64_t>(1 + rng.Uniform(32))
                          : static_cast<std::int64_t>(rng.Uniform(1 << 16)));
    if (!rng.OneIn(5)) {
      doc.Set("file_path", "/data/db/sstable-" + std::to_string(rng.Uniform(64)));
    }
    batch.push_back(std::move(doc));
    if (batch.size() == 8192) {
      store.Bulk(kIndex, std::move(batch));
      batch.clear();
    }
  }
  if (!batch.empty()) store.Bulk(kIndex, std::move(batch));
  store.Refresh(kIndex);
}

struct MixTiming {
  double search_ms = 0.0;     // sorted event search, size 100
  double count_ms = 0.0;      // failed-syscall count (ret < 0)
  double terms_ms = 0.0;      // terms(comm) x stats(duration_ns)
  double hist_ms = 0.0;       // date_histogram x percentiles
  double prefix_ms = 0.0;     // file-path prefix panel
  double scan_ms = 0.0;       // scan-path predicate (bitmap cache)
  [[nodiscard]] double total_ms() const {
    return search_ms + count_ms + terms_ms + hist_ms + prefix_ms + scan_ms;
  }
};

double MsSince(Nanos start) {
  return static_cast<double>(SteadyClock::Instance()->NowNanos() - start) /
         1e6;
}

// One dashboard refresh: every panel re-issued once. `checksum` defends the
// whole mix against dead-code elimination and doubles as a cross-config
// sanity check (every thread count must report identical totals).
MixTiming RunMix(const ElasticStore& store, std::size_t docs,
                 std::uint64_t* checksum) {
  MixTiming timing;
  Nanos t0 = SteadyClock::Instance()->NowNanos();

  SearchRequest recent;
  recent.query = Query::Range("time_enter", static_cast<std::int64_t>(docs),
                              static_cast<std::int64_t>(docs * 13));
  recent.sort = {{"duration_ns", false}, {"time_enter", true}};
  recent.size = 100;
  auto search = store.Search(kIndex, recent);
  *checksum += search.ok() ? search->total : 0;
  timing.search_ms = MsSince(t0);

  t0 = SteadyClock::Instance()->NowNanos();
  auto failed = store.Count(
      kIndex, Query::Range("ret", std::numeric_limits<std::int64_t>::min(), -1));
  *checksum += failed.ok() ? *failed : 0;
  timing.count_ms = MsSince(t0);

  t0 = SteadyClock::Instance()->NowNanos();
  auto terms = store.Aggregate(
      kIndex, Query::MatchAll(),
      Aggregation::Terms("comm").SubAgg("lat", Aggregation::Stats("duration_ns")));
  *checksum += terms.ok() ? terms->buckets.size() : 0;
  timing.terms_ms = MsSince(t0);

  t0 = SteadyClock::Instance()->NowNanos();
  auto hist = store.Aggregate(
      kIndex, Query::Term("syscall", "write"),
      Aggregation::DateHistogram("time_enter",
                                 static_cast<std::int64_t>(docs) * 13 / 20 + 1)
          .SubAgg("p", Aggregation::Percentiles("duration_ns",
                                                {50.0, 95.0, 99.0})));
  *checksum += hist.ok() ? hist->buckets.size() : 0;
  timing.hist_ms = MsSince(t0);

  t0 = SteadyClock::Instance()->NowNanos();
  SearchRequest panel;
  panel.query = Query::And({Query::Prefix("file_path", "/data/db/sstable-1"),
                            Query::Range("ret", 0, 1 << 16)});
  panel.sort = {{"time_enter", true}};
  panel.size = 100;
  auto prefix = store.Search(kIndex, panel);
  *checksum += prefix.ok() ? prefix->total : 0;
  timing.prefix_ms = MsSince(t0);

  t0 = SteadyClock::Instance()->NowNanos();
  auto scan = store.Count(kIndex, Query::Not(Query::Exists("file_path")));
  *checksum += scan.ok() ? *scan : 0;
  timing.scan_ms = MsSince(t0);
  return timing;
}

struct EngineRun {
  std::size_t threads = 0;
  MixTiming timing;
  double build_ms = 0.0;       // Bulk + Refresh (includes column build)
  double column_build_ms = 0.0;
  std::uint64_t checksum = 0;
};

EngineRun RunEngine(std::size_t threads, std::size_t docs, int rounds) {
  ElasticStoreOptions options;
  options.shards_per_index = 4;
  options.query_threads = threads;
  ElasticStore store(options);

  EngineRun run;
  run.threads = threads;

  const Nanos build_start = SteadyClock::Instance()->NowNanos();
  Fill(store, docs);
  run.build_ms = MsSince(build_start);
  auto stats = store.Stats(kIndex);
  if (stats.ok()) {
    run.column_build_ms = static_cast<double>(stats->column_build_ns) / 1e6;
  }

  std::uint64_t warm = 0;
  (void)RunMix(store, docs, &warm);  // warm-up: caches, lazy sorts
  for (int r = 0; r < rounds; ++r) {
    run.checksum = 0;
    const MixTiming timing = RunMix(store, docs, &run.checksum);
    run.timing.search_ms += timing.search_ms;
    run.timing.count_ms += timing.count_ms;
    run.timing.terms_ms += timing.terms_ms;
    run.timing.hist_ms += timing.hist_ms;
    run.timing.prefix_ms += timing.prefix_ms;
    run.timing.scan_ms += timing.scan_ms;
  }
  run.timing.search_ms /= rounds;
  run.timing.count_ms /= rounds;
  run.timing.terms_ms /= rounds;
  run.timing.hist_ms /= rounds;
  run.timing.prefix_ms /= rounds;
  run.timing.scan_ms /= rounds;
  return run;
}

// FNV-1a over an aggregation result's full dump (keys, counts, metrics,
// sub-aggregations).
void HashAgg(const backend::AggResult& agg, std::uint64_t* hash) {
  const auto mix = [hash](const std::string& text) {
    for (const unsigned char c : text) {
      *hash = (*hash ^ c) * 0x100000001b3ULL;
    }
  };
  mix(agg.metrics.Dump());
  for (const backend::AggBucket& bucket : agg.buckets) {
    mix(bucket.key.Dump());
    mix(std::to_string(bucket.doc_count));
    for (const auto& [name, sub] : bucket.sub) {
      mix(name);
      HashAgg(sub, hash);
    }
  }
}

struct PanelsRun {
  std::size_t rows = 0;
  double ns_per_row[4] = {};  // in kPanelNames order
  std::uint64_t checksum = 0xcbf29ce484222325ULL;
};

constexpr const char* kPanelNames[] = {"terms", "terms_stats", "timeline",
                                       "latency"};

PanelsRun RunPanels(std::size_t rows) {
  constexpr int kRounds = 15;
  ElasticStoreOptions options;
  options.shards_per_index = 4;
  ElasticStore store(options);
  Fill(store, rows);
  const auto interval = static_cast<std::int64_t>(rows) * 13 / 20 + 1;
  struct Panel {
    Query query;
    Aggregation agg;
  };
  const Panel panels[] = {
      {Query::MatchAll(), Aggregation::Terms("syscall")},
      {Query::MatchAll(),
       Aggregation::Terms("syscall").SubAgg(
           "latency", Aggregation::Stats("duration_ns"))},
      {Query::MatchAll(),
       Aggregation::Terms("comm").SubAgg(
           "over_time", Aggregation::DateHistogram("time_enter", interval))},
      {Query::Prefix("comm", "rocksdb"),
       Aggregation::DateHistogram("time_enter", interval)
           .SubAgg("lat", Aggregation::Percentiles("duration_ns", {99.0}))},
  };
  PanelsRun run;
  run.rows = rows;
  for (std::size_t p = 0; p < 4; ++p) {
    double best_ms = 0.0;
    for (int r = 0; r <= kRounds; ++r) {  // round 0 warms the caches
      const Nanos t0 = SteadyClock::Instance()->NowNanos();
      auto result = store.Aggregate(kIndex, panels[p].query, panels[p].agg);
      const double ms = MsSince(t0);
      if (r == 0) {
        if (result.ok()) HashAgg(*result, &run.checksum);
        continue;
      }
      if (r == 1 || ms < best_ms) best_ms = ms;
    }
    run.ns_per_row[p] = best_ms * 1e6 / static_cast<double>(rows);
  }
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t docs = kDefaultDocs;
  if (argc > 1) docs = static_cast<std::size_t>(std::atoll(argv[1]));
  const int rounds = docs > 100'000 ? 3 : 5;

  std::printf("ABLATION: ElasticStore columnar query engine, per-shard "
              "fan-out (%zu events, %d-round dashboard mix)\n\n",
              docs, rounds);

  const std::size_t thread_counts[] = {0, 2, 4};

  bench::BenchReport report("ab_query_backend");
  report.SetConfig("docs", Json(static_cast<std::int64_t>(docs)));
  report.SetConfig("rounds", Json(static_cast<std::int64_t>(rounds)));
  report.SetConfig("shards_per_index", Json(static_cast<std::int64_t>(4)));

  std::printf("%-10s %-8s %-10s %-10s %-10s %-10s %-10s %-10s %-10s\n",
              "engine", "threads", "search", "count", "terms", "hist",
              "prefix", "scan", "mix_ms");

  std::vector<EngineRun> runs;
  for (const std::size_t threads : thread_counts) {
    runs.push_back(RunEngine(threads, docs, rounds));
    const EngineRun& run = runs.back();
    std::printf("%-10s %-8zu %-10.2f %-10.2f %-10.2f %-10.2f %-10.2f %-10.2f "
                "%-10.2f\n",
                "columnar", run.threads, run.timing.search_ms,
                run.timing.count_ms, run.timing.terms_ms, run.timing.hist_ms,
                run.timing.prefix_ms, run.timing.scan_ms,
                run.timing.total_ms());
  }

  bool checksums_agree = true;
  for (const EngineRun& run : runs) {
    checksums_agree =
        checksums_agree && run.checksum == runs.front().checksum;
    Json row = Json::MakeObject();
    row.Set("engine", "columnar");
    row.Set("query_threads", static_cast<std::int64_t>(run.threads));
    row.Set("search_ms", run.timing.search_ms);
    row.Set("count_ms", run.timing.count_ms);
    row.Set("terms_ms", run.timing.terms_ms);
    row.Set("hist_ms", run.timing.hist_ms);
    row.Set("prefix_ms", run.timing.prefix_ms);
    row.Set("scan_ms", run.timing.scan_ms);
    row.Set("mix_ms", run.timing.total_ms());
    row.Set("build_ms", run.build_ms);
    row.Set("column_build_ms", run.column_build_ms);
    row.Set("checksum", static_cast<std::int64_t>(run.checksum));
    report.AddRow(std::move(row));
  }

  std::printf("\n%-8s %-10s %-12s %-12s %-12s %-12s %-12s %s\n", "phase",
              "rows", "terms", "terms_stats", "timeline", "latency",
              "total", "checksum (ns/row per panel)");
  const std::vector<std::size_t> panel_rows =
      docs >= 80'000 ? std::vector<std::size_t>{80'000, 400'000}
                     : std::vector<std::size_t>{20'000};
  for (const std::size_t rows : panel_rows) {
    const PanelsRun panels = RunPanels(rows);
    double total = 0.0;
    Json row = Json::MakeObject();
    row.Set("phase", "panels");
    row.Set("rows", static_cast<std::int64_t>(rows));
    for (std::size_t p = 0; p < 4; ++p) {
      row.Set(std::string(kPanelNames[p]) + "_ns_per_row",
              panels.ns_per_row[p]);
      total += panels.ns_per_row[p];
    }
    row.Set("panels_ns_per_row", total);
    row.Set("checksum", static_cast<std::int64_t>(panels.checksum));
    report.AddRow(std::move(row));
    std::printf("%-8s %-10zu %-12.1f %-12.1f %-12.1f %-12.1f %-12.1f "
                "%016llx\n",
                "panels", rows, panels.ns_per_row[0], panels.ns_per_row[1],
                panels.ns_per_row[2], panels.ns_per_row[3], total,
                static_cast<unsigned long long>(panels.checksum));
  }
  report.Write();

  std::printf("\nchecksums (totals across all panels): %s\n",
              checksums_agree ? "identical across thread counts"
                              : "MISMATCH");
  std::printf("note: thread rows measure fan-out overhead too; on a "
              "single-core host they cannot show a parallel speedup.\n");
  if (!checksums_agree) return 1;
  return 0;
}
