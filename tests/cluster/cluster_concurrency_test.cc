// Concurrency stress for the cluster tier (runs under ThreadSanitizer in
// tsan_check): producers ingest in parallel with a replication pump, a
// scatter/gather reader, and a chaos thread crashing/partitioning nodes.
// After the dust settles every batch must be applied exactly once and all
// replicas must converge byte-identically.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "backend/store.h"
#include "cluster/cluster_sink.h"
#include "cluster/router.h"
#include "common/clock.h"

namespace dio::cluster {
namespace {

using backend::Query;

Json Doc(int tid, std::int64_t ts, std::int64_t ret) {
  Json doc = Json::MakeObject();
  doc.Set("syscall", ret % 2 == 0 ? "read" : "write");
  doc.Set("tid", tid);
  doc.Set("time_enter", ts);
  doc.Set("ret", ret);
  return doc;
}

TEST(ClusterConcurrencyTest, ParallelIngestWithChaosConvergesExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kBatches = 20;
  constexpr int kPerBatch = 8;

  ClusterOptions opts;
  opts.nodes = 4;
  opts.replicas = 1;
  opts.ack = AckLevel::kQuorum;
  ClusterRouter router(opts);

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&router, p] {
      for (int b = 0; b < kBatches; ++b) {
        // Unique content per (producer, batch): routing keys spread across
        // shards, fingerprints never collide across producers.
        std::vector<Json> docs;
        for (int i = 0; i < kPerBatch; ++i) {
          docs.push_back(Doc(100 + p, 1'000'000 * (p + 1) + b * 100 + i,
                             b * kPerBatch + i));
        }
        // A rejected batch (ack unsatisfiable mid-crash) is re-driven until
        // accepted — the retry transport's behavior. HealAll from the chaos
        // thread guarantees eventual acceptance.
        for (;;) {
          transport::EventBatch batch;
          batch.documents = docs;
          if (router.Ingest("events", std::move(batch)).ok()) break;
          std::this_thread::yield();
        }
      }
    });
  }

  threads.emplace_back([&router, &stop] {  // replication pump
    while (!stop.load(std::memory_order_relaxed)) {
      if (router.PumpReplication(8) == 0) std::this_thread::yield();
    }
  });

  threads.emplace_back([&router, &stop] {  // scatter/gather reader
    while (!stop.load(std::memory_order_relaxed)) {
      if (router.HasIndex("events")) {
        router.Refresh("events");
        (void)router.Count("events", Query::MatchAll());
        backend::SearchRequest request;
        request.query = Query::Term("syscall", Json("read"));
        request.size = 16;
        (void)router.Search("events", request);
      }
      std::this_thread::yield();
    }
  });

  threads.emplace_back([&router] {  // chaos: one crash cycle, two partitions
    for (int round = 0; round < 2; ++round) {
      (void)router.SetReachable(3, false);
      std::this_thread::yield();
      (void)router.SetReachable(3, true);
      (void)router.CrashNode(2);
      std::this_thread::yield();
      (void)router.RestartNode(2);
    }
    router.HealAll();
  });

  for (int p = 0; p < kProducers; ++p) threads[p].join();
  stop.store(true, std::memory_order_relaxed);
  for (std::size_t t = kProducers; t < threads.size(); ++t) threads[t].join();

  router.HealAll();
  ASSERT_TRUE(router.Settle().ok());
  EXPECT_EQ(router.PendingApplies(), 0u);
  router.Refresh("events");

  constexpr std::uint64_t kTotal = kProducers * kBatches * kPerBatch;
  auto count = router.Count("events", Query::MatchAll());
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, kTotal);
  EXPECT_EQ(router.acked_batches(),
            static_cast<std::uint64_t>(kProducers * kBatches));
  EXPECT_EQ(router.VerifyConvergence("events"), std::vector<std::string>{});

  // Global sequence ids remain a gap-free 0..N-1 enumeration: every batch
  // applied exactly once, none duplicated by crash replay or re-drive.
  backend::SearchRequest all;
  all.query = Query::MatchAll();
  all.size = kTotal + 1;
  auto result = router.Search("events", all);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->hits.size(), kTotal);
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    EXPECT_EQ(result->hits[i].id, i);
  }
}

// Router queries during periodic refreshes: a sender drives a
// ClusterBulkSink whose refresh deadline comes due on every batch, so
// ClusterRouter::Refresh runs all the time, while readers scatter Count,
// Search, Aggregate and Stats. Refresh holds the router mutex shared, so
// the readers run beside it; each read sees at least every batch that was
// refreshed before it started and never more than the whole stream.
TEST(ClusterConcurrencyTest, QueriesRunDuringPeriodicRefresh) {
  constexpr int kBatches = 60;
  constexpr int kPerBatch = 12;
  constexpr std::uint64_t kTotal = kBatches * kPerBatch;

  ClusterOptions opts;
  opts.nodes = 3;
  opts.replicas = 1;
  opts.ack = AckLevel::kQuorum;
  opts.logical_shards = 8;
  opts.query_threads = 2;
  ClusterRouter router(opts);
  ManualClock clock;
  ClusterBulkSink sink(&router, "events", /*network_latency_ns=*/0, &clock,
                       kMillisecond);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> visible{0};
  std::thread sender([&] {
    for (int b = 0; b < kBatches; ++b) {
      std::vector<Json> docs;
      for (int i = 0; i < kPerBatch; ++i) {
        docs.push_back(Doc(100 + i % 5, 1'000 + b * kPerBatch + i, b));
      }
      clock.AdvanceNanos(kMillisecond);
      transport::EventBatch batch;
      batch.documents = std::move(docs);
      EXPECT_TRUE(sink.Submit(std::move(batch)).ok());
      visible.store(static_cast<std::uint64_t>((b + 1) * kPerBatch),
                    std::memory_order_release);
    }
    stop.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      std::uint64_t iterations = 0;
      while (!stop.load(std::memory_order_acquire) && iterations < 20'000) {
        ++iterations;
        std::this_thread::yield();
        if (!router.HasIndex("events")) continue;
        const std::uint64_t floor = visible.load(std::memory_order_acquire);
        std::uint64_t seen = 0;
        switch ((iterations + static_cast<std::uint64_t>(r)) % 4) {
          case 0: {
            auto count = router.Count("events", Query::MatchAll());
            if (!count.ok()) continue;
            seen = *count;
            break;
          }
          case 1: {
            backend::SearchRequest request;
            request.sort = {{"time_enter", false}};
            request.size = 10;
            auto result = router.Search("events", request);
            if (!result.ok()) continue;
            for (std::size_t i = 1; i < result->hits.size(); ++i) {
              EXPECT_GE(result->hits[i - 1].source.GetInt("time_enter"),
                        result->hits[i].source.GetInt("time_enter"));
            }
            seen = result->total;
            break;
          }
          case 2: {
            auto result = router.Aggregate("events", Query::MatchAll(),
                                           backend::Aggregation::Terms("tid"));
            if (!result.ok()) continue;
            for (const backend::AggBucket& bucket : result->buckets) {
              seen += static_cast<std::uint64_t>(bucket.doc_count);
            }
            break;
          }
          default: {
            auto stats = router.Stats("events");
            if (!stats.ok()) continue;
            seen = stats->doc_count;
            break;
          }
        }
        EXPECT_GE(seen, floor);
        EXPECT_LE(seen, kTotal);
      }
    });
  }

  sender.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(*router.Count("events", Query::MatchAll()), kTotal);
  sink.Flush();
  EXPECT_EQ(router.VerifyConvergence("events"), std::vector<std::string>{});
}

}  // namespace
}  // namespace dio::cluster
