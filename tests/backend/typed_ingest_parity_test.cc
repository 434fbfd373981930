// Parity tests for the typed ingest route (backend.typed_ingest) and the
// SIMD query kernels (backend.simd_kernels). The JSON route — the same
// BulkWire call sequence with typed_ingest off, which materializes every
// record through tracer::WireEventToJson — is the oracle: every observable
// result (hits with full sources, totals, sort order, counts, aggregation
// buckets and metrics, update-by-query effects) must be byte-identical
// across routes, shard counts, and query-thread counts. Kernel parity is
// checked separately by flipping the process-wide simd switch on one store.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "backend/correlation.h"
#include "backend/simd_kernels.h"
#include "backend/store.h"
#include "backend/typed_ingest.h"
#include "common/random.h"
#include "tracer/event.h"
#include "tracer/wire.h"

namespace dio::backend {
namespace {

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

// ---- randomized wire corpus -------------------------------------------------
// Exercises every conditional in WireEventToJson / WireColumnAppender:
// fd present on fd-taking syscalls and deliberately set on non-fd ones (must
// stay absent either way), paths and xattr names up to and past the inline
// caps (truncation counters), zero and non-zero flags/mode, whence/arg_offset
// only on seeks, file tags, negative returns, empty comm strings.

tracer::WireEvent RandomWire(Random& rng, int i) {
  static const os::SyscallNr kMix[] = {
      os::SyscallNr::kRead,   os::SyscallNr::kWrite,
      os::SyscallNr::kOpenat, os::SyscallNr::kClose,
      os::SyscallNr::kFsync,  os::SyscallNr::kLseek,
      os::SyscallNr::kRename, os::SyscallNr::kSetxattr,
      os::SyscallNr::kStat,   os::SyscallNr::kPwrite64};
  static const char* kComms[] = {"rocksdb:low", "rocksdb:high", "fluent-bit",
                                 "", "a-very-long-thread-name-over-cap"};
  tracer::WireEvent e;
  const os::SyscallNr nr = kMix[rng.Uniform(10)];
  e.nr = static_cast<std::uint8_t>(nr);
  e.phase = 2;
  e.pid = static_cast<std::int32_t>(1000 + rng.Uniform(3));
  e.tid = static_cast<std::int32_t>(100 + rng.Uniform(16));
  e.cpu = static_cast<std::int32_t>(rng.Uniform(4));
  e.comm_len = tracer::WireEvent::FillString(
      e.comm, tracer::kWireCommCap, kComms[rng.Uniform(5)], &e.comm_trunc);
  e.proc_name_len = tracer::WireEvent::FillString(
      e.proc_name, tracer::kWireCommCap, "db_bench", &e.proc_name_trunc);
  e.time_enter = 1'000'000 + i * 17 + static_cast<std::int64_t>(rng.Uniform(13));
  e.time_exit = e.time_enter + static_cast<std::int64_t>(rng.Uniform(900'000));
  e.ret = rng.OneIn(8) ? -static_cast<std::int64_t>(1 + rng.Uniform(32))
                       : static_cast<std::int64_t>(rng.Uniform(65536));
  // fd sometimes set even for non-fd syscalls: both routes must drop it.
  if (!rng.OneIn(3)) e.fd = static_cast<std::int32_t>(3 + rng.Uniform(13));
  if (!rng.OneIn(3)) {
    std::string path = "/data/db/" +
                       std::string(rng.OneIn(2) ? "sstable-" : "wal-") +
                       std::to_string(rng.Uniform(40));
    if (rng.OneIn(7)) {
      // Blow past kWirePathCap: stored truncated, counted, still queryable.
      path += std::string(200, 'x');
    }
    e.path_len = tracer::WireEvent::FillString(e.path, tracer::kWirePathCap,
                                               path, &e.path_trunc);
  }
  if (nr == os::SyscallNr::kRename && !rng.OneIn(4)) {
    e.path2_len = tracer::WireEvent::FillString(
        e.path2, tracer::kWirePathCap,
        "/data/db/renamed-" + std::to_string(rng.Uniform(40)), &e.path2_trunc);
  }
  if (nr == os::SyscallNr::kSetxattr) {
    const std::string name =
        rng.OneIn(3) ? std::string("user.") + std::string(40, 'k')  // > cap
                     : "user.tag";
    e.xattr_len = tracer::WireEvent::FillString(
        e.xattr_name, tracer::kWireXattrCap, name, &e.xattr_trunc);
  }
  if (rng.OneIn(2)) e.count = rng.Uniform(1 << 16);
  if (nr == os::SyscallNr::kLseek) {
    e.whence = static_cast<std::int32_t>(rng.Uniform(3));
    e.arg_offset = static_cast<std::int64_t>(rng.Uniform(1 << 20));
  }
  if (nr == os::SyscallNr::kOpenat && rng.OneIn(2)) {
    e.flags = 0x241;
    e.mode = 0644;
  }
  if (!rng.OneIn(4)) {
    e.file_type = static_cast<std::uint8_t>(1 + rng.Uniform(7));
  }
  if (rng.OneIn(2)) {
    e.file_offset = static_cast<std::int64_t>(rng.Uniform(1 << 24));
  }
  if (!rng.OneIn(3)) {
    e.tag_valid = 1;
    e.tag_dev = 259;
    e.tag_ino = 1000 + rng.Uniform(64);
    e.tag_ts = static_cast<std::int64_t>(rng.Uniform(1 << 20));
  }
  return e;
}

void FillStores(std::uint64_t seed, const std::vector<ElasticStore*>& stores) {
  Random rng(seed);
  int docnum = 0;
  for (const int batch_size : {3, 41, 128, 1, 64, 17, 200}) {
    std::vector<tracer::WireEvent> records;
    records.reserve(batch_size);
    for (int i = 0; i < batch_size; ++i, ++docnum) {
      records.push_back(RandomWire(rng, docnum));
    }
    for (ElasticStore* store : stores) {
      store->BulkWire("ev", "parity", records);
    }
    if (batch_size == 128) {  // interleave a refresh mid-sequence
      for (ElasticStore* store : stores) store->Refresh("ev");
    }
  }
  for (ElasticStore* store : stores) store->Refresh("ev");
}

std::vector<SearchRequest> ParityRequests() {
  std::vector<SearchRequest> out;
  out.emplace_back();  // match_all, docid order
  SearchRequest term;
  term.query = Query::Term("syscall", "read");
  out.push_back(term);
  SearchRequest ranged;
  ranged.query = Query::Range("time_enter", 1'000'500, 1'004'000);
  ranged.sort = {{"duration_ns", false}, {"tid", true}};
  ranged.from = 5;
  ranged.size = 40;
  out.push_back(ranged);
  SearchRequest boolean;
  boolean.query = Query::And(
      {Query::Or({Query::Term("syscall", "write"),
                  Query::Term("syscall", "fsync"),
                  Query::Terms("comm", {Json("rocksdb:low"), Json("")})}),
       Query::Not(Query::Term("ret", -1)), Query::Exists("path")});
  boolean.sort = {{"time_enter", true}};
  out.push_back(boolean);
  SearchRequest prefix;
  prefix.query = Query::Prefix("path", "/data/db/wal-1");
  out.push_back(prefix);
  SearchRequest scan_only;  // no indexable clause: pure bitmap/scan path
  scan_only.query = Query::Not(Query::Exists("file_tag"));
  scan_only.sort = {{"ret", false}};
  out.push_back(scan_only);
  SearchRequest failed;
  failed.query =
      Query::Range("ret", std::numeric_limits<std::int64_t>::min(), -1);
  out.push_back(failed);
  SearchRequest deep_page;
  deep_page.sort = {{"duration_ns", true}};
  deep_page.from = 300;
  deep_page.size = 100;
  out.push_back(deep_page);
  return out;
}

std::vector<Aggregation> ParityAggs() {
  std::vector<Aggregation> out;
  out.push_back(Aggregation::Terms("syscall").SubAgg(
      "lat", Aggregation::Stats("duration_ns")));
  out.push_back(Aggregation::Terms("comm"));  // includes the empty string
  out.push_back(Aggregation::DateHistogram("time_enter", 500)
                    .SubAgg("p", Aggregation::Percentiles(
                                     "duration_ns", {50.0, 95.0, 99.0})));
  out.push_back(Aggregation::Histogram("ret", 1000));  // negative buckets
  out.push_back(Aggregation::Terms("category", 3)
                    .SubAgg("by_path", Aggregation::Terms("path", 4)));
  out.push_back(Aggregation::Stats("file_offset"));
  return out;
}

struct EngineConfig {
  std::size_t shards;
  std::size_t threads;
};

class TypedIngestParityTest : public ::testing::TestWithParam<EngineConfig> {};

TEST_P(TypedIngestParityTest, MatchesJsonRoute) {
  for (const std::uint64_t seed : {7ULL, 1234ULL, 982451653ULL}) {
    ElasticStoreOptions oracle_opts;
    oracle_opts.shards_per_index = GetParam().shards;
    oracle_opts.typed_ingest = false;
    oracle_opts.query_threads = 0;
    ElasticStore oracle(oracle_opts);

    ElasticStoreOptions typed_opts;
    typed_opts.shards_per_index = GetParam().shards;
    typed_opts.typed_ingest = true;
    typed_opts.query_threads = GetParam().threads;
    ElasticStore typed(typed_opts);

    FillStores(seed, {&oracle, &typed});

    // The typed store must actually have taken the typed route.
    auto typed_stats = typed.Stats("ev");
    ASSERT_TRUE(typed_stats.ok());
    EXPECT_GT(typed_stats->typed_rows, 0u);
    auto oracle_stats = oracle.Stats("ev");
    ASSERT_TRUE(oracle_stats.ok());
    EXPECT_EQ(oracle_stats->typed_rows, 0u);
    EXPECT_EQ(typed_stats->doc_count, oracle_stats->doc_count);

    const auto requests = ParityRequests();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      auto ref = oracle.Search("ev", requests[i]);
      auto got = typed.Search("ev", requests[i]);
      ASSERT_TRUE(ref.ok() && got.ok()) << "seed " << seed << " request " << i;
      EXPECT_EQ(DumpResult(*got), DumpResult(*ref))
          << "seed " << seed << " request " << i;
      EXPECT_EQ(*typed.Count("ev", requests[i].query),
                *oracle.Count("ev", requests[i].query))
          << "seed " << seed << " request " << i;
    }

    const auto aggs = ParityAggs();
    for (std::size_t i = 0; i < aggs.size(); ++i) {
      auto ref = oracle.Aggregate("ev", Query::MatchAll(), aggs[i]);
      auto got = typed.Aggregate("ev", Query::MatchAll(), aggs[i]);
      ASSERT_TRUE(ref.ok() && got.ok()) << "seed " << seed << " agg " << i;
      EXPECT_EQ(DumpAgg(*got), DumpAgg(*ref))
          << "seed " << seed << " agg " << i;
      const Query filter = Query::Range("ret", 0, 40'000);
      auto ref_f = oracle.Aggregate("ev", filter, aggs[i]);
      auto got_f = typed.Aggregate("ev", filter, aggs[i]);
      ASSERT_TRUE(ref_f.ok() && got_f.ok());
      EXPECT_EQ(DumpAgg(*got_f), DumpAgg(*ref_f))
          << "seed " << seed << " filtered agg " << i;
    }

    // Update-by-query converts touched typed rows to JSON rows in place;
    // results and subsequent queries must still match the oracle exactly.
    const auto tag = [](Json& d) {
      if (d.Has("correlated")) return false;
      d.Set("correlated", true);
      return true;
    };
    auto ref_updated =
        oracle.UpdateByQuery("ev", Query::Term("syscall", "fsync"), tag);
    auto got_updated =
        typed.UpdateByQuery("ev", Query::Term("syscall", "fsync"), tag);
    ASSERT_TRUE(ref_updated.ok() && got_updated.ok());
    EXPECT_EQ(*got_updated, *ref_updated) << "seed " << seed;
    SearchRequest updated;
    updated.query = Query::Term("correlated", true);
    updated.size = std::numeric_limits<std::size_t>::max();
    auto ref_after = oracle.Search("ev", updated);
    auto got_after = typed.Search("ev", updated);
    ASSERT_TRUE(ref_after.ok() && got_after.ok());
    EXPECT_EQ(DumpResult(*got_after), DumpResult(*ref_after))
        << "seed " << seed;
    // Untouched typed rows remain typed; touched ones were converted.
    auto after_stats = typed.Stats("ev");
    ASSERT_TRUE(after_stats.ok());
    EXPECT_EQ(after_stats->typed_rows, typed_stats->typed_rows - *got_updated);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, TypedIngestParityTest,
    ::testing::Values(EngineConfig{1, 0}, EngineConfig{4, 0},
                      EngineConfig{3, 2}, EngineConfig{8, 4}),
    [](const ::testing::TestParamInfo<EngineConfig>& info) {
      return "shards" + std::to_string(info.param.shards) + "_threads" +
             std::to_string(info.param.threads);
    });

// ---- materialized documents are byte-identical ------------------------------
// The strongest form of the contract: for every record, the document
// rebuilt from the columns must Dump() to the same bytes as the document
// WireEventToJson produces — including member order.

TEST(TypedIngestDocTest, MaterializedDocsMatchWireEventToJson) {
  Random rng(99);
  ColumnSet columns;
  WireColumnAppender appender(&columns);
  std::vector<std::string> expected;
  for (int i = 0; i < 500; ++i) {
    const tracer::WireEvent e = RandomWire(rng, i);
    appender.Append(e, "parity");
    expected.push_back(tracer::WireEventToJson(e, "parity").Dump());
  }
  columns.FinishBatch();
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(MaterializeWireDoc(columns, static_cast<std::size_t>(i)).Dump(),
              expected[static_cast<std::size_t>(i)])
        << "record " << i;
  }
}

// The same contract for correlated rows: FilePathColumnWriter writes
// file_path into the columns in place, and the rebuilt document must equal
// the JSON route's document after FilePathUpdate — wire fields, then
// file_path — while rows whose tag is unknown stay without it. Projected
// builders (a search's source list) must equal the filtered document.
TEST(TypedIngestDocTest, CorrelatedDocsMatchJsonRouteUpdate) {
  Random rng(123);
  ColumnSet columns;
  WireColumnAppender appender(&columns);
  std::vector<Json> expected;
  auto table = std::make_shared<FilePathUpdate::Table>();
  for (int i = 0; i < 500; ++i) {
    const tracer::WireEvent e = RandomWire(rng, i);
    appender.Append(e, "parity");
    expected.push_back(tracer::WireEventToJson(e, "parity"));
    // Half of the tag identities resolve.
    if (e.tag_valid != 0 && e.tag_ino % 2 == 0) {
      table->emplace(expected.back().GetString("file_tag"),
                     "/data/db/file-" + std::to_string(e.tag_ino));
    }
  }
  columns.FinishBatch();
  const FilePathUpdate update{table};
  FilePathColumnWriter writer(&columns, *table);
  std::size_t updated = 0;
  for (int i = 0; i < 500; ++i) {
    const auto pos = static_cast<std::size_t>(i);
    const bool typed_changed = writer.Apply(pos);
    EXPECT_EQ(typed_changed, update(expected[pos])) << "record " << i;
    updated += typed_changed ? 1 : 0;
    // A second application is a no-op on both routes.
    EXPECT_FALSE(writer.Apply(pos));
  }
  columns.FinishBatch();
  EXPECT_GT(updated, 0u);
  EXPECT_TRUE(writer.changed());
  const std::vector<std::string> fields = {"ret", "file_path", "file_tag",
                                           "no_such_field"};
  const WireDocBuilder projected(columns, fields);
  for (int i = 0; i < 500; ++i) {
    const auto pos = static_cast<std::size_t>(i);
    EXPECT_EQ(MaterializeWireDoc(columns, pos).Dump(), expected[pos].Dump())
        << "record " << i;
    EXPECT_EQ(projected.Build(pos).Dump(),
              ProjectFields(expected[pos], fields).Dump())
        << "record " << i;
  }
}

// Records decoded off a padded, wrap-style byte buffer (the ring hands out
// 8-byte-aligned in-place reservations; a record is valid wherever it lands)
// must ingest identically to the originals.
TEST(TypedIngestDocTest, PaddedBufferRecordsIngestIdentically) {
  Random rng(17);
  std::vector<tracer::WireEvent> originals;
  for (int i = 0; i < 32; ++i) originals.push_back(RandomWire(rng, i));

  // Lay the records into one buffer at stride sizeof(WireEvent)+64 with an
  // 8-byte-aligned base — every record sits mid-buffer like a wrapped ring
  // frame, never at a "nice" allocation boundary.
  const std::size_t stride = sizeof(tracer::WireEvent) + 64;
  std::vector<std::uint64_t> backing((stride * originals.size()) / 8 + 1);
  auto* base = reinterpret_cast<std::byte*>(backing.data());
  std::vector<tracer::WireEvent> decoded;
  for (std::size_t i = 0; i < originals.size(); ++i) {
    std::memcpy(base + i * stride, &originals[i], sizeof(tracer::WireEvent));
    auto view = tracer::WireEventView::FromBytes(
        {base + i * stride, sizeof(tracer::WireEvent)});
    ASSERT_TRUE(view.ok()) << "record " << i;
    decoded.push_back(view->raw());
  }

  ElasticStore from_originals;
  ElasticStore from_decoded;
  from_originals.BulkWire("ev", "wrap", std::move(originals));
  from_decoded.BulkWire("ev", "wrap", std::move(decoded));
  from_originals.Refresh("ev");
  from_decoded.Refresh("ev");
  SearchRequest all;
  all.size = std::numeric_limits<std::size_t>::max();
  auto a = from_originals.Search("ev", all);
  auto b = from_decoded.Search("ev", all);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(DumpResult(*b), DumpResult(*a));
}

// ---- simd kernel parity -----------------------------------------------------
// Same store, same queries, kernels on vs off: identical bytes. This is the
// scalar-fallback contract for backend.simd_kernels.

TEST(SimdKernelParityTest, KernelAndScalarPathsAgree) {
  // Two identically-filled stores, so each pass computes its bitmaps from
  // scratch (a shared store's filter cache would hand the scalar pass the
  // kernel pass's bitmaps and prove nothing).
  ElasticStoreOptions options;
  options.shards_per_index = 3;
  ElasticStore kernel_store(options);
  ElasticStore scalar_store(options);
  FillStores(4242, {&kernel_store, &scalar_store});

  const auto requests = ParityRequests();
  const auto aggs = ParityAggs();
  std::vector<std::string> with_kernels;
  simd::SetEnabled(true);
  for (const SearchRequest& request : requests) {
    auto result = kernel_store.Search("ev", request);
    ASSERT_TRUE(result.ok());
    with_kernels.push_back(DumpResult(*result));
  }
  for (const Aggregation& agg : aggs) {
    auto result = kernel_store.Aggregate("ev", Query::MatchAll(), agg);
    ASSERT_TRUE(result.ok());
    with_kernels.push_back(DumpAgg(*result));
  }

  simd::SetEnabled(false);  // scalar fallback, computed on a cold cache
  std::size_t i = 0;
  for (const SearchRequest& request : requests) {
    auto result = scalar_store.Search("ev", request);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(DumpResult(*result), with_kernels[i++]) << "request";
  }
  for (const Aggregation& agg : aggs) {
    auto result = scalar_store.Aggregate("ev", Query::MatchAll(), agg);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(DumpAgg(*result), with_kernels[i++]) << "agg";
  }
  simd::SetEnabled(true);
}

// ---- config plumbing --------------------------------------------------------

TEST(TypedIngestOptionsTest, FromConfigParsesKnobs) {
  auto config = Config::ParseString(
      "[backend]\n"
      "typed_ingest = false\n"
      "simd_kernels = false\n");
  ASSERT_TRUE(config.ok());
  const ElasticStoreOptions options = *ElasticStoreOptions::FromConfig(*config);
  EXPECT_FALSE(options.typed_ingest);
  EXPECT_FALSE(options.simd_kernels);

  auto defaults = Config::ParseString("");
  ASSERT_TRUE(defaults.ok());
  const ElasticStoreOptions default_options =
      *ElasticStoreOptions::FromConfig(*defaults);
  EXPECT_TRUE(default_options.typed_ingest);
  EXPECT_TRUE(default_options.simd_kernels);
}

}  // namespace
}  // namespace dio::backend
