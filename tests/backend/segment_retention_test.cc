// Randomized retention test for the sealed-segment columnar layout
// (backend.segment_docs). Four stores replay one randomly interleaved
// BulkWire / Refresh / UpdateByQuery / read-op sequence:
//
//   segmented — sealed segments + filter-bitmap cache (the production path)
//   nocache   — same segments, backend.filter_cache_entries=0: every bitmap
//               recomputed from the columns on every query
//   unsealed  — backend.segment_docs=SIZE_MAX: one tail that never seals
//   json      — the JSON ReferenceBackend (tests/backend/reference_backend.h)
//
// After every read op the four answers must be byte-identical
// (ColumnarParityTest discipline: DumpResult/DumpAgg string equality), which
// proves segment-granular cache retention and sealed-block reuse never leak
// a stale bitmap, a stale dictionary rank, or a stale compiled query across
// a refresh or an update-by-query. The segmented store must actually
// exercise the machinery: sealed segments and cache hits are asserted > 0.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "backend/reference_backend.h"
#include "backend/store.h"
#include "common/random.h"
#include "tracer/wire.h"

namespace dio::backend {
namespace {

constexpr char kIndex[] = "retention";
constexpr char kSession[] = "seg-retention";

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

tracer::WireEvent MakeWire(Random& rng, int i) {
  static const os::SyscallNr kMix[] = {
      os::SyscallNr::kRead,  os::SyscallNr::kWrite, os::SyscallNr::kOpenat,
      os::SyscallNr::kFsync, os::SyscallNr::kLseek, os::SyscallNr::kClose};
  static const char* kComms[] = {"rocksdb:low", "rocksdb:high", "fluent-bit",
                                 "postgres"};
  tracer::WireEvent e;
  const os::SyscallNr nr = kMix[rng.Uniform(6)];
  const os::SyscallDescriptor& desc = os::Describe(nr);
  e.nr = static_cast<std::uint8_t>(nr);
  e.phase = 2;
  e.pid = 777;
  e.tid = static_cast<std::int32_t>(10 + rng.Uniform(8));
  e.cpu = static_cast<std::int32_t>(rng.Uniform(4));
  e.comm_len = tracer::WireEvent::FillString(
      e.comm, tracer::kWireCommCap, kComms[rng.Uniform(4)], &e.comm_trunc);
  e.proc_name_len = tracer::WireEvent::FillString(
      e.proc_name, tracer::kWireCommCap, "db_bench", &e.proc_name_trunc);
  e.time_enter = 1'000 + i * 7 + static_cast<std::int64_t>(rng.Uniform(5));
  e.time_exit = e.time_enter + static_cast<std::int64_t>(rng.Uniform(90'000));
  e.ret = rng.OneIn(8) ? -static_cast<std::int64_t>(1 + rng.Uniform(16))
                       : static_cast<std::int64_t>(rng.Uniform(4096));
  if (desc.takes_fd) e.fd = static_cast<std::int32_t>(3 + rng.Uniform(9));
  if (desc.data_related) e.count = rng.Uniform(1 << 12);
  if (!rng.OneIn(4)) {
    const std::string path =
        "/data/db/" + std::string(rng.OneIn(2) ? "sstable-" : "wal-") +
        std::to_string(rng.Uniform(12));
    e.path_len = tracer::WireEvent::FillString(e.path, tracer::kWirePathCap,
                                               path, &e.path_trunc);
  }
  if (nr == os::SyscallNr::kLseek) {
    e.whence = static_cast<std::int32_t>(rng.Uniform(3));
    e.arg_offset = static_cast<std::int64_t>(rng.Uniform(1 << 12));
  }
  return e;
}

// The read mix: column range count, scan-path Not/Exists count, prefix
// count, sorted window search, filtered terms agg with a stats sub-agg.
// Each returns its dump; equality across stores is asserted per op.
std::string ReadOp(const QueryBackend& store, std::size_t which,
                   int horizon) {
  switch (which % 5) {
    case 0: {
      auto count = store.Count(
          kIndex,
          Query::Range("ret", std::numeric_limits<std::int64_t>::min(), -1));
      return "failed=" + std::to_string(count.ok() ? *count : 0);
    }
    case 1: {
      auto count = store.Count(kIndex, Query::Not(Query::Exists("path")));
      return "pathless=" + std::to_string(count.ok() ? *count : 0);
    }
    case 2: {
      auto count =
          store.Count(kIndex, Query::Prefix("path", "/data/db/sstable-"));
      return "sst=" + std::to_string(count.ok() ? *count : 0);
    }
    case 3: {
      SearchRequest request;
      request.query =
          Query::Range("time_enter", 1'000 + horizon * 7 / 2, std::nullopt);
      request.sort = {{"duration_ns", false}, {"time_enter", true}};
      request.size = 25;
      auto result = store.Search(kIndex, request);
      return result.ok() ? DumpResult(*result) : "search-error";
    }
    default: {
      auto agg = store.Aggregate(
          kIndex, Query::Term("syscall", "write"),
          Aggregation::Terms("comm").SubAgg(
              "lat", Aggregation::Stats("duration_ns")));
      return agg.ok() ? DumpAgg(*agg) : "agg-error";
    }
  }
}

TEST(SegmentRetentionTest, InterleavedMutationsMatchAllOracles) {
  for (const std::size_t segment_docs : {4u, 8u, 16u, 64u}) {
    SCOPED_TRACE("segment_docs=" + std::to_string(segment_docs));

    ElasticStoreOptions segmented;
    segmented.shards_per_index = 3;
    segmented.segment_docs = segment_docs;

    ElasticStoreOptions nocache = segmented;
    nocache.filter_cache_entries = 0;

    ElasticStoreOptions unsealed = segmented;
    unsealed.segment_docs = std::numeric_limits<std::size_t>::max();

    ElasticStore segmented_store(segmented);
    ElasticStore nocache_store(nocache);
    ElasticStore unsealed_store(unsealed);
    ReferenceBackend json_store;
    ElasticStore* stores[] = {&segmented_store, &nocache_store,
                              &unsealed_store};
    QueryBackend* backends[] = {&segmented_store, &nocache_store,
                                &unsealed_store, &json_store};
    static const char* kNames[] = {"segmented", "nocache", "unsealed", "json"};

    Random rng(1234 + static_cast<std::uint64_t>(segment_docs));
    int docnum = 0;
    std::size_t reads = 0;
    for (int step = 0; step < 160; ++step) {
      const std::uint64_t op = rng.Uniform(10);
      if (op < 3) {
        // BulkWire a batch sized to straddle seal boundaries both ways.
        const int batch_size = static_cast<int>(1 + rng.Uniform(2 * 16));
        std::vector<tracer::WireEvent> batch;
        Random gen(9000 + static_cast<std::uint64_t>(docnum));
        for (int i = 0; i < batch_size; ++i) {
          batch.push_back(MakeWire(gen, docnum + i));
        }
        for (ElasticStore* store : stores) {
          store->BulkWire(kIndex, kSession, std::vector(batch));
        }
        json_store.BulkWire(kIndex, kSession, batch);
        docnum += batch_size;
      } else if (op < 6) {
        for (ElasticStore* store : stores) store->Refresh(kIndex);
        json_store.Refresh(kIndex);
      } else if (op == 6) {
        // Update-by-query rewrites rows inside sealed segments in place;
        // only the touched blocks may drop their bitmaps.
        for (QueryBackend* store : backends) {
          auto updated = store->UpdateByQuery(
              kIndex, Query::Term("syscall", "fsync"), [](Json& doc) {
                if (doc.Has("correlated")) return false;
                doc.Set("correlated", true);
                return true;
              });
          if (docnum > 0) EXPECT_TRUE(updated.ok());
        }
      } else {
        ++reads;
        const std::size_t which = rng.Uniform(5);
        const std::string expected = ReadOp(*backends[0], which, docnum);
        for (std::size_t s = 1; s < 4; ++s) {
          EXPECT_EQ(expected, ReadOp(*backends[s], which, docnum))
              << "read op " << which << " diverged: segmented vs "
              << kNames[s] << " at step " << step;
        }
      }
    }
    ASSERT_GT(reads, 0u);
    // The interleaving may end on an unrefreshed bulk; drain it so the
    // final doc-count assertion sees the whole stream.
    for (ElasticStore* store : stores) store->Refresh(kIndex);
    json_store.Refresh(kIndex);

    // The machinery under test must actually have engaged: blocks sealed,
    // bitmaps cached and re-used across the interleaved refreshes — and the
    // cache-disabled twin must have stayed cold.
    auto stats = stores[0]->Stats(kIndex);
    ASSERT_TRUE(stats.ok());
    EXPECT_GT(stats->sealed_segments, 0u);
    EXPECT_GT(stats->filter_cache_hits, 0u);
    EXPECT_EQ(stats->doc_count, static_cast<std::size_t>(docnum));

    auto cold = stores[1]->Stats(kIndex);
    ASSERT_TRUE(cold.ok());
    EXPECT_EQ(cold->filter_cache_hits, 0u);
    EXPECT_GT(cold->sealed_segments, 0u);

    auto unsealed_stats = stores[2]->Stats(kIndex);
    ASSERT_TRUE(unsealed_stats.ok());
    EXPECT_EQ(unsealed_stats->sealed_segments, 0u);
    EXPECT_EQ(json_store.Stats(kIndex)->doc_count,
              static_cast<std::size_t>(docnum));
  }
}

// LRU eviction sanity at a tiny capacity: a parade of distinct cacheable
// predicates overflows a 2-entry cache; evictions tick up, results stay
// identical to the cache-disabled twin throughout.
TEST(SegmentRetentionTest, TinyCacheEvictsButNeverLies) {
  ElasticStoreOptions small;
  small.shards_per_index = 2;
  small.segment_docs = 8;
  small.filter_cache_entries = 2;

  ElasticStoreOptions nocache = small;
  nocache.filter_cache_entries = 0;

  ElasticStore cached(small);
  ElasticStore plain(nocache);

  Random gen(77);
  std::vector<tracer::WireEvent> batch;
  for (int i = 0; i < 96; ++i) batch.push_back(MakeWire(gen, i));
  cached.BulkWire(kIndex, kSession, std::vector(batch));
  plain.BulkWire(kIndex, kSession, std::move(batch));
  cached.Refresh(kIndex);
  plain.Refresh(kIndex);

  for (int round = 0; round < 3; ++round) {
    for (std::int64_t bound = 0; bound < 8; ++bound) {
      const Query query = Query::Range("ret", bound * 100, std::nullopt);
      auto a = cached.Count(kIndex, query);
      auto b = plain.Count(kIndex, query);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(*a, *b) << "bound " << bound << " round " << round;
    }
  }

  auto stats = cached.Stats(kIndex);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->filter_cache_evictions, 0u);
  auto cold = plain.Stats(kIndex);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->filter_cache_hits, 0u);
  EXPECT_EQ(cold->filter_cache_evictions, 0u);
}

}  // namespace
}  // namespace dio::backend
