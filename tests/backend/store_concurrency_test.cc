// Refresh-vs-search hammer for the columnar engine. A writer thread streams
// bulk batches and refreshes (and occasionally runs update-by-query) while
// reader threads issue searches, counts, and aggregations against a store
// with a query pool fanning sub-shards out in parallel.
// Every reader must observe a consistent refresh generation: results are
// internally coherent (hits sorted, totals match) and nothing crashes or
// races. This file is also compiled into tsan_stress_test so the whole
// reader/writer interleaving runs under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "backend/store.h"
#include "tracer/wire.h"

namespace dio::backend {
namespace {

Json Event(int docnum) {
  Json doc = Json::MakeObject();
  doc.Set("syscall", docnum % 3 == 0 ? "read" : (docnum % 3 == 1 ? "write"
                                                                 : "fsync"));
  doc.Set("tid", static_cast<std::int64_t>(100 + docnum % 5));
  doc.Set("time_enter", static_cast<std::int64_t>(1000 + docnum));
  doc.Set("ret", static_cast<std::int64_t>(docnum % 128));
  if (docnum % 4 != 0) {
    doc.Set("file_path", "/data/db/sstable-" + std::to_string(docnum % 7));
  }
  return doc;
}

tracer::WireEvent Wire(int docnum) {
  tracer::WireEvent e;
  const os::SyscallNr nr = docnum % 3 == 0
                               ? os::SyscallNr::kRead
                               : (docnum % 3 == 1 ? os::SyscallNr::kWrite
                                                  : os::SyscallNr::kFsync);
  e.nr = static_cast<std::uint8_t>(nr);
  e.phase = 2;
  e.pid = 99;
  e.tid = static_cast<std::int32_t>(100 + docnum % 5);
  e.time_enter = 1000 + docnum;
  e.time_exit = e.time_enter + 50 + docnum % 7;
  e.ret = docnum % 16 == 0 ? -5 : docnum % 128;
  if (docnum % 4 != 0) {
    const std::string path = "/data/db/sstable-" + std::to_string(docnum % 7);
    e.path_len = tracer::WireEvent::FillString(e.path, tracer::kWirePathCap,
                                               path, &e.path_trunc);
  }
  return e;
}

TEST(StoreConcurrencyTest, RefreshVsSearchHammer) {
  ElasticStoreOptions options;
  options.shards_per_index = 4;
  options.query_threads = 2;
  ElasticStore store(options);

  constexpr int kBatches = 40;
  constexpr int kBatchSize = 25;
  constexpr std::size_t kTotalDocs = kBatches * kBatchSize;

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> visible{0};  // docs made searchable so far

  std::thread writer([&] {
    int docnum = 0;
    for (int b = 0; b < kBatches; ++b) {
      std::vector<Json> docs;
      for (int i = 0; i < kBatchSize; ++i) docs.push_back(Event(docnum++));
      store.Bulk("hammer", std::move(docs));
      store.Refresh("hammer");
      visible.store(static_cast<std::size_t>(docnum),
                    std::memory_order_release);
      if (b % 8 == 7) {
        // Update-by-query concurrently with readers: takes refresh_mu unique
        // and rebuilds the touched shards' columns.
        auto updated = store.UpdateByQuery(
            "hammer", Query::Term("syscall", "fsync"), [](Json& d) {
              if (d.Has("flagged")) return false;
              d.Set("flagged", true);
              return true;
            });
        EXPECT_TRUE(updated.ok());
      }
    }
    stop.store(true);
  });

  const Aggregation agg =
      Aggregation::Terms("syscall").SubAgg("lat", Aggregation::Stats("ret"));
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      // Bounded and yielding: glibc rwlocks prefer readers, so readers that
      // re-acquire back-to-back can starve the writer's unique Refresh lock
      // on a single-core host. The yield opens a writer window each lap and
      // the cap bounds the test even if the stop flag is slow to arrive.
      constexpr std::uint64_t kMaxIterations = 20'000;
      std::uint64_t iterations = 0;
      while (!stop.load(std::memory_order_acquire) &&
             iterations < kMaxIterations) {
        ++iterations;
        std::this_thread::yield();
        if (!store.HasIndex("hammer")) continue;
        // The refresh lock pins one generation: a query never sees a
        // half-refreshed store, so counts are bounded by what the writer
        // published before we started (floor) and the final total (ceiling).
        const std::size_t floor = visible.load(std::memory_order_acquire);
        auto count = store.Count("hammer", Query::MatchAll());
        if (count.ok()) {
          EXPECT_GE(*count, floor);
          EXPECT_LE(*count, kTotalDocs);
        }
        switch ((iterations + static_cast<std::uint64_t>(r)) % 3) {
          case 0: {
            SearchRequest request;
            request.query = Query::And(
                {Query::Term("syscall", "read"),
                 Query::Prefix("file_path", "/data/db/sstable-")});
            request.sort = {{"time_enter", false}};
            request.size = 50;
            auto result = store.Search("hammer", request);
            if (result.ok()) {
              for (std::size_t i = 1; i < result->hits.size(); ++i) {
                EXPECT_GE(
                    result->hits[i - 1].source.GetInt("time_enter"),
                    result->hits[i].source.GetInt("time_enter"));
              }
            }
            break;
          }
          case 1: {
            // Scan-path predicate: exercises the filter-bitmap cache while
            // refreshes clear it.
            auto scanned =
                store.Count("hammer", Query::Not(Query::Exists("file_path")));
            if (scanned.ok()) {
              EXPECT_LE(*scanned, kTotalDocs);
            }
            break;
          }
          default: {
            auto result = store.Aggregate("hammer", Query::MatchAll(), agg);
            if (result.ok()) {
              std::size_t bucketed = 0;
              for (const AggBucket& bucket : result->buckets) {
                bucketed += bucket.doc_count;
              }
              EXPECT_LE(bucketed, kTotalDocs);
            }
            break;
          }
        }
      }
    });
  }

  writer.join();
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(*store.Count("hammer", Query::MatchAll()), kTotalDocs);
  auto stats = store.Stats("hammer");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->doc_count, kTotalDocs);
  EXPECT_GT(stats->doc_value_fields, 0u);
}

// Off-lock staged-refresh hammer: typed wire ingest with a tiny
// segment_docs so every few batches cross a seal boundary while readers
// run. The writer's Phase-1 column build (tail clone + appends) happens
// with no lock held — TSan must see no race between it and readers walking
// the live segment list, and sealed-segment bitmap reuse across refreshes
// must never produce an out-of-bounds count.
TEST(StoreConcurrencyTest, SegmentedOffLockBuildHammer) {
  ElasticStoreOptions options;
  options.shards_per_index = 4;
  options.query_threads = 2;
  options.segment_docs = 16;
  options.filter_cache_entries = 8;  // small: eviction runs concurrently too
  ElasticStore store(options);

  constexpr int kBatches = 50;
  constexpr int kBatchSize = 20;
  constexpr std::size_t kTotalDocs = kBatches * kBatchSize;

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> visible{0};

  std::thread writer([&] {
    int docnum = 0;
    for (int b = 0; b < kBatches; ++b) {
      std::vector<tracer::WireEvent> batch;
      for (int i = 0; i < kBatchSize; ++i) batch.push_back(Wire(docnum++));
      store.BulkWire("seg", "hammer", std::move(batch));
      store.Refresh("seg");
      visible.store(static_cast<std::size_t>(docnum),
                    std::memory_order_release);
      if (b % 10 == 9) {
        // Rewrites rows inside sealed blocks while readers hold their
        // cached bitmaps; only the touched segments may drop caches.
        auto updated = store.UpdateByQuery(
            "seg", Query::Term("syscall", "fsync"), [](Json& d) {
              if (d.Has("flagged")) return false;
              d.Set("flagged", true);
              return true;
            });
        EXPECT_TRUE(updated.ok());
      }
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      constexpr std::uint64_t kMaxIterations = 20'000;
      std::uint64_t iterations = 0;
      while (!stop.load(std::memory_order_acquire) &&
             iterations < kMaxIterations) {
        ++iterations;
        std::this_thread::yield();
        if (!store.HasIndex("seg")) continue;
        const std::size_t floor = visible.load(std::memory_order_acquire);
        auto count = store.Count("seg", Query::MatchAll());
        if (count.ok()) {
          EXPECT_GE(*count, floor);
          EXPECT_LE(*count, kTotalDocs);
        }
        if ((iterations + static_cast<std::uint64_t>(r)) % 2 == 0) {
          // Cached column predicate: hits sealed-segment bitmaps that
          // survive the concurrent refreshes.
          auto failed = store.Count(
              "seg", Query::Range("ret", std::numeric_limits<std::int64_t>::min(),
                                  -1));
          if (failed.ok()) EXPECT_LE(*failed, kTotalDocs);
        } else {
          SearchRequest request;
          request.query = Query::Prefix("path", "/data/db/sstable-");
          request.sort = {{"time_enter", false}};
          request.size = 30;
          auto result = store.Search("seg", request);
          if (result.ok()) {
            for (std::size_t i = 1; i < result->hits.size(); ++i) {
              EXPECT_GE(result->hits[i - 1].source.GetInt("time_enter"),
                        result->hits[i].source.GetInt("time_enter"));
            }
          }
        }
      }
    });
  }

  writer.join();
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(*store.Count("seg", Query::MatchAll()), kTotalDocs);
  auto stats = store.Stats("seg");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->doc_count, kTotalDocs);
  // Update-by-query materializes the rows it rewrites (they stop being
  // typed), so typed_rows is the untouched remainder.
  EXPECT_GT(stats->typed_rows, 0u);
  EXPECT_LE(stats->typed_rows, kTotalDocs);
  EXPECT_GT(stats->sealed_segments, 0u);
  EXPECT_EQ(stats->refreshes, static_cast<std::uint64_t>(kBatches));
}

// Append-in-place hammer: with one never-sealed tail per sub-shard every
// refresh appends to the live tail the readers are scanning. Each batch
// brings strings no earlier batch had (its own path and comm), so every
// refresh merges dictionary suffixes and swaps rank arrays; every fifth
// batch is JSON rows with a field the tail has not seen; update-by-query
// rewrites tail rows in place. Readers run prefix counts (whose rank range
// moves), path-sorted searches, terms aggregations and counts: a prefix
// count never falls between two reads, sorted hits stay sorted, and
// totals stay between what was published before the call and the final
// total. Compiled into tsan_stress_test and asan_parsers_test as well.
TEST(StoreConcurrencyTest, AppendInPlaceTailHammer) {
  ElasticStoreOptions options;
  options.shards_per_index = 2;
  options.query_threads = 2;
  options.segment_docs = std::numeric_limits<std::size_t>::max();
  ElasticStore store(options);

  constexpr int kBatches = 60;
  constexpr int kBatchSize = 16;
  constexpr std::size_t kTotalDocs = kBatches * kBatchSize;

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> visible{0};

  std::thread writer([&] {
    int docnum = 0;
    for (int b = 0; b < kBatches; ++b) {
      const std::string tag = std::to_string(kBatches - b);
      if (b % 5 == 4) {
        std::vector<Json> docs;
        for (int i = 0; i < kBatchSize; ++i) {
          Json doc = Event(docnum++);
          doc.Set("path", "/data/db/json-" + tag);
          doc.Set("batch_" + tag, static_cast<std::int64_t>(b));
          docs.push_back(std::move(doc));
        }
        store.Bulk("tail", std::move(docs));
      } else {
        std::vector<tracer::WireEvent> batch;
        for (int i = 0; i < kBatchSize; ++i) {
          tracer::WireEvent e = Wire(docnum++);
          const std::string path =
              std::string(i % 2 ? "/data/db/m-" : "/data/db/a-") + tag;
          e.path_len = tracer::WireEvent::FillString(
              e.path, tracer::kWirePathCap, path, &e.path_trunc);
          e.comm_len = tracer::WireEvent::FillString(
              e.comm, tracer::kWireCommCap, "comm-" + tag, &e.comm_trunc);
          batch.push_back(e);
        }
        store.BulkWire("tail", "hammer", std::move(batch));
      }
      store.Refresh("tail");
      visible.store(static_cast<std::size_t>(docnum),
                    std::memory_order_release);
      if (b % 12 == 11) {
        auto updated = store.UpdateByQuery(
            "tail", Query::Term("syscall", "fsync"), [](Json& d) {
              if (d.Has("flagged")) return false;
              d.Set("flagged", true);
              return true;
            });
        EXPECT_TRUE(updated.ok());
      }
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      constexpr std::uint64_t kMaxIterations = 20'000;
      std::uint64_t iterations = 0;
      std::size_t last_prefix = 0;
      while (!stop.load(std::memory_order_acquire) &&
             iterations < kMaxIterations) {
        ++iterations;
        std::this_thread::yield();
        if (!store.HasIndex("tail")) continue;
        const std::size_t floor = visible.load(std::memory_order_acquire);
        switch ((iterations + static_cast<std::uint64_t>(r)) % 4) {
          case 0: {
            auto count =
                store.Count("tail", Query::Prefix("path", "/data/db/m-"));
            if (count.ok()) {
              EXPECT_GE(*count, last_prefix);
              last_prefix = *count;
            }
            break;
          }
          case 1: {
            SearchRequest request;
            request.query = Query::Prefix("path", "/data/db/");
            request.sort = {{"path", true}};
            request.size = 20;
            auto result = store.Search("tail", request);
            if (result.ok()) {
              EXPECT_GE(result->total, floor);
              for (std::size_t i = 1; i < result->hits.size(); ++i) {
                EXPECT_LE(result->hits[i - 1].source.GetString("path"),
                          result->hits[i].source.GetString("path"));
              }
            }
            break;
          }
          case 2: {
            auto result = store.Aggregate("tail", Query::MatchAll(),
                                          Aggregation::Terms("comm", 200));
            if (result.ok()) {
              std::size_t bucketed = 0;
              for (const AggBucket& bucket : result->buckets) {
                bucketed += static_cast<std::size_t>(bucket.doc_count);
              }
              EXPECT_LE(bucketed, kTotalDocs);
            }
            break;
          }
          default: {
            auto count = store.Count("tail", Query::MatchAll());
            if (count.ok()) {
              EXPECT_GE(*count, floor);
              EXPECT_LE(*count, kTotalDocs);
            }
            break;
          }
        }
      }
    });
  }

  writer.join();
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(*store.Count("tail", Query::MatchAll()), kTotalDocs);
  auto stats = store.Stats("tail");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->sealed_segments, 0u);
  EXPECT_EQ(stats->segments, 2u);
  EXPECT_EQ(stats->refreshes, static_cast<std::uint64_t>(kBatches));
}

// Per-segment aggregation under concurrent typed ingest: readers run the
// four dashboard aggregations on a two-thread query pool while the writer
// bulks wire records and refreshes across seal boundaries. Each Aggregate
// pins one refresh generation, so its buckets must add up to one Count of
// that generation's rows — between what was published before the call and
// the final total — and every nested level must account for its parent.
TEST(StoreConcurrencyTest, AggregateVsBulkWireRefreshHammer) {
  ElasticStoreOptions options;
  options.shards_per_index = 4;
  options.query_threads = 2;
  options.segment_docs = 16;
  ElasticStore store(options);

  constexpr int kBatches = 50;
  constexpr int kBatchSize = 20;
  constexpr std::size_t kTotalDocs = kBatches * kBatchSize;

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> visible{0};

  std::thread writer([&] {
    int docnum = 0;
    for (int b = 0; b < kBatches; ++b) {
      std::vector<tracer::WireEvent> batch;
      for (int i = 0; i < kBatchSize; ++i) batch.push_back(Wire(docnum++));
      store.BulkWire("agg", "hammer", std::move(batch));
      store.Refresh("agg");
      visible.store(static_cast<std::size_t>(docnum),
                    std::memory_order_release);
    }
    stop.store(true);
  });

  const Aggregation panels[] = {
      Aggregation::Terms("syscall"),
      Aggregation::Terms("syscall").SubAgg("lat",
                                           Aggregation::Stats("duration_ns")),
      Aggregation::Terms("tid").SubAgg(
          "over_time", Aggregation::DateHistogram("time_enter", 64)),
      Aggregation::DateHistogram("time_enter", 64)
          .SubAgg("p", Aggregation::Percentiles("duration_ns", {50, 99})),
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      constexpr std::uint64_t kMaxIterations = 20'000;
      std::uint64_t iterations = 0;
      while (!stop.load(std::memory_order_acquire) &&
             iterations < kMaxIterations) {
        ++iterations;
        std::this_thread::yield();
        if (!store.HasIndex("agg")) continue;
        const std::size_t floor = visible.load(std::memory_order_acquire);
        const Aggregation& agg =
            panels[(iterations + static_cast<std::uint64_t>(r)) % 4];
        auto result = store.Aggregate("agg", Query::MatchAll(), agg);
        if (!result.ok()) continue;
        std::int64_t total = 0;
        for (const AggBucket& bucket : result->buckets) {
          total += bucket.doc_count;
          for (const auto& [name, sub] : bucket.sub) {
            if (!sub.buckets.empty()) {
              std::int64_t nested = 0;
              for (const AggBucket& inner : sub.buckets) {
                nested += inner.doc_count;
              }
              EXPECT_EQ(nested, bucket.doc_count);
            } else if (name == "lat") {
              EXPECT_EQ(sub.metrics.GetInt("count"), bucket.doc_count);
            }
          }
        }
        EXPECT_GE(static_cast<std::size_t>(total), floor);
        EXPECT_LE(static_cast<std::size_t>(total), kTotalDocs);
      }
    });
  }

  writer.join();
  for (std::thread& reader : readers) reader.join();

  auto terms = store.Aggregate("agg", Query::MatchAll(), panels[0]);
  ASSERT_TRUE(terms.ok());
  std::int64_t total = 0;
  for (const AggBucket& bucket : terms->buckets) total += bucket.doc_count;
  EXPECT_EQ(static_cast<std::size_t>(total), kTotalDocs);
}

}  // namespace
}  // namespace dio::backend
