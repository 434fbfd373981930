// Parity tests for column-native correlation and projected hits.
//
// The typed store keeps correlated rows typed: FilePathCorrelator's update
// writes file_path into the segment columns in place instead of converting
// rows to JSON. The JSON ingest route (backend.typed_ingest=false, the same
// BulkWire calls) is the oracle: correlation stats, snapshots, full hit
// dumps, counts and aggregations over file_path must be byte-identical
// across corpus classes, shard counts, segment sizes (including one
// never-sealed tail) and query-thread counts — through first correlation,
// re-correlation, tail growth, and a generic update after correlation. The
// JSON ReferenceBackend must agree with both. Projected searches
// (SearchRequest::source) must equal the full hits with members filtered,
// on the store, on the reference and through the cluster router.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "backend/correlation.h"
#include "backend/reference_backend.h"
#include "backend/store.h"
#include "cluster/router.h"
#include "trace/corpus.h"

namespace dio::backend {
namespace {

constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
constexpr char kIndex[] = "corr";
constexpr char kSession[] = "corr-session";

std::string DumpResult(const SearchResult& result) {
  std::ostringstream out;
  out << "total=" << result.total << "\n";
  for (const Hit& hit : result.hits) {
    out << hit.id << "|" << hit.source.Dump() << "\n";
  }
  return out.str();
}

std::string DumpAgg(const AggResult& agg) {
  std::string out = "metrics=" + agg.metrics.Dump() + "\n";
  for (const AggBucket& bucket : agg.buckets) {
    out += "bucket " + bucket.key.Dump() + " n=" +
           std::to_string(bucket.doc_count) + "\n";
    for (const auto& [name, sub] : bucket.sub) {
      out += "sub " + name + "\n" + DumpAgg(sub);
    }
  }
  return out;
}

std::string DumpStats(const CorrelationStats& stats) {
  return std::to_string(stats.tags_discovered) + "/" +
         std::to_string(stats.events_updated) + "/" +
         std::to_string(stats.events_resolved) + "/" +
         std::to_string(stats.events_unresolved);
}

// Independent reference for SearchRequest::source: the listed members, in
// document member order.
Json Filter(const Json& doc, const std::vector<std::string>& fields) {
  Json out = Json::MakeObject();
  for (const auto& [name, value] : doc.as_object()) {
    for (const std::string& field : fields) {
      if (field == name) {
        out.Set(name, value);
        break;
      }
    }
  }
  return out;
}

// ---- corpus -----------------------------------------------------------------
// A golden corpus class stream, with every fd-handling syscall tagged by the
// file identity its fd was opened with (the tracer's tagging, which the
// corpus generator leaves to the capture). Opens stay the only events with
// a path, so correlation has real work: every data syscall gains file_path.

std::vector<tracer::WireEvent> TaggedCorpus(trace::CorpusClass cls,
                                            std::size_t ops,
                                            std::uint64_t seed) {
  std::vector<tracer::WireEvent> events =
      trace::GenerateCorpusEvents(cls, ops, seed);
  std::map<std::int64_t, const tracer::WireEvent*> open_by_fd;
  for (tracer::WireEvent& e : events) {
    if (e.tag_valid != 0 && e.path_len > 0 && e.ret >= 0) {
      open_by_fd[e.ret] = &e;
    } else if (e.fd >= 0) {
      auto it = open_by_fd.find(e.fd);
      if (it == open_by_fd.end()) continue;
      e.tag_valid = 1;
      e.tag_dev = it->second->tag_dev;
      e.tag_ino = it->second->tag_ino;
      e.tag_ts = it->second->tag_ts;
    }
  }
  return events;
}

// Tagged events whose open was never captured (like a file opened before
// tracing started): their tags can never resolve.
std::vector<tracer::WireEvent> OrphanEvents(trace::CorpusClass cls,
                                            std::size_t count) {
  std::vector<tracer::WireEvent> out;
  for (tracer::WireEvent e : TaggedCorpus(cls, count * 4, 977)) {
    if (e.tag_valid == 0 || e.path_len > 0) continue;
    e.tag_ino += 1ULL << 40;
    out.push_back(e);
    if (out.size() == count) break;
  }
  return out;
}

std::vector<tracer::WireEvent> Slice(const std::vector<tracer::WireEvent>& v,
                                     std::size_t begin, std::size_t end) {
  return {v.begin() + static_cast<std::ptrdiff_t>(begin),
          v.begin() + static_cast<std::ptrdiff_t>(end)};
}

// ---- fixed query surfaces -----------------------------------------------------

std::vector<SearchRequest> ProjectionRequests() {
  std::vector<SearchRequest> out;
  SearchRequest all;
  all.size = kMax;
  out.push_back(all);
  // The stale-offset detector's read scan.
  SearchRequest reads;
  reads.query = Query::And({
      Query::Terms("syscall", {Json("read"), Json("pread64"), Json("readv")}),
      Query::Exists("file_tag"), Query::Exists("file_offset")});
  reads.sort = {{"time_enter", true}};
  reads.size = kMax;
  out.push_back(reads);
  // Paged, sorted on fields a projection may omit.
  SearchRequest paged;
  paged.query = Query::Exists("file_path");
  paged.sort = {{"file_path", false}, {"ret", true}};
  paged.from = 3;
  paged.size = 17;
  out.push_back(paged);
  SearchRequest opens;
  opens.query = Query::Terms("syscall", {Json("openat"), Json("open")});
  opens.sort = {{"time_enter", false}};
  opens.size = 25;
  out.push_back(opens);
  return out;
}

std::vector<std::vector<std::string>> Projections() {
  return {
      {"file_tag", "path"},
      {"file_path", "file_offset", "ret"},
      {"time_enter", "file_path", "comm", "file_tag", "file_offset", "ret"},
      {"no_such_field", "syscall"},
      {"file_path"},
  };
}

// Projected hits equal the full hits filtered, hit for hit; returns the
// projected dumps so callers can also compare them across backends.
std::string CheckProjections(const QueryBackend& backend,
                             const std::string& label) {
  std::string dumps;
  const auto requests = ProjectionRequests();
  for (std::size_t r = 0; r < requests.size(); ++r) {
    auto full = backend.Search(kIndex, requests[r]);
    EXPECT_TRUE(full.ok()) << label << " request " << r;
    if (!full.ok()) return dumps;
    for (const std::vector<std::string>& fields : Projections()) {
      SearchRequest projected_request = requests[r];
      projected_request.source = fields;
      auto projected = backend.Search(kIndex, projected_request);
      EXPECT_TRUE(projected.ok()) << label << " request " << r;
      if (!projected.ok()) return dumps;
      SearchResult expected;
      expected.total = full->total;
      for (const Hit& hit : full->hits) {
        expected.hits.push_back(Hit{hit.id, Filter(hit.source, fields)});
      }
      const std::string got = DumpResult(*projected);
      EXPECT_EQ(got, DumpResult(expected))
          << label << " request " << r << " fields " << fields.size();
      dumps += got;
    }
  }
  return dumps;
}

// Everything observable about the correlated index, as one string.
std::string Observe(const QueryBackend& store) {
  std::string out;
  SearchRequest all;
  all.size = kMax;
  auto hits = store.Search(kIndex, all);
  EXPECT_TRUE(hits.ok());
  if (hits.ok()) out += DumpResult(*hits);
  for (const Query& query :
       {Query::Exists("file_path"),
        Query::And({Query::Exists("file_tag"),
                    Query::Not(Query::Exists("file_path"))}),
        Query::Prefix("file_path", "/"), Query::Term("syscall", "openat")}) {
    auto count = store.Count(kIndex, query);
    EXPECT_TRUE(count.ok());
    if (count.ok()) out += "count=" + std::to_string(*count) + "\n";
  }
  auto by_path = store.Aggregate(
      kIndex, Query::Exists("file_path"),
      Aggregation::Terms("file_path", 50)
          .SubAgg("bytes", Aggregation::Stats("ret")));
  EXPECT_TRUE(by_path.ok());
  if (by_path.ok()) out += DumpAgg(*by_path);
  SearchRequest sorted;
  sorted.query = Query::Exists("file_tag");
  sorted.sort = {{"file_path", true}, {"time_enter", false}};
  sorted.size = 60;
  auto page = store.Search(kIndex, sorted);
  EXPECT_TRUE(page.ok());
  if (page.ok()) out += DumpResult(*page);
  return out;
}

// SaveIndex bytes. The file name carries the running test's name, because
// ctest runs the parameterized instances as parallel processes.
std::string Snapshot(const ElasticStore& store, const std::string& name) {
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string path = ::testing::TempDir() + "/dio_corr_parity_" +
                     test->test_suite_name() + "_" + test->name() + "_" +
                     name + ".jsonl";
  std::replace(path.begin() + static_cast<std::ptrdiff_t>(
                                  ::testing::TempDir().size()),
               path.end(), '/', '_');
  EXPECT_TRUE(store.SaveIndex(kIndex, path).ok());
  std::ifstream in(path);
  std::stringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

void ExpectAllTyped(const ElasticStore& store, const std::string& label) {
  auto stats = store.Stats(kIndex);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->typed_rows, stats->doc_count) << label;
}

// ---- the parameterized suite -------------------------------------------------

// A segment size of 0 in the matrix stands for one never-sealed tail
// (segment_docs = SIZE_MAX).
using Params = std::tuple<trace::CorpusClass, std::size_t /*shards*/,
                          std::size_t /*segment_docs*/,
                          std::size_t /*query_threads*/>;

class CorrelationParityTest : public ::testing::TestWithParam<Params> {
 protected:
  ElasticStoreOptions Options(bool typed) const {
    ElasticStoreOptions opts;
    opts.shards_per_index = std::get<1>(GetParam());
    opts.segment_docs =
        std::get<2>(GetParam()) == 0 ? kMax : std::get<2>(GetParam());
    opts.query_threads = typed ? std::get<3>(GetParam()) : 0;
    opts.typed_ingest = typed;
    return opts;
  }
};

TEST_P(CorrelationParityTest, TypedCorrelationMatchesJsonRoute) {
  const trace::CorpusClass cls = std::get<0>(GetParam());
  ElasticStore typed(Options(true));
  ElasticStore oracle(Options(false));
  ReferenceBackend reference;
  std::vector<QueryBackend*> stores = {&typed, &oracle, &reference};

  const auto events = TaggedCorpus(cls, 480, 31);
  const auto orphans = OrphanEvents(cls, 40);
  const auto ingest = [&](const std::vector<tracer::WireEvent>& batch) {
    typed.BulkWire(kIndex, kSession, batch);
    oracle.BulkWire(kIndex, kSession, batch);
    reference.BulkWire(kIndex, kSession, batch);
  };
  const auto refresh = [&] {
    for (QueryBackend* store : stores) store->Refresh(kIndex);
  };
  // Orphans first: with small segments, the leading segments hold tagged
  // rows none of which can resolve.
  ingest(orphans);
  ingest(Slice(events, 0, 200));
  refresh();
  ingest(Slice(events, 200, 320));
  refresh();

  // Correlates every store; returns the typed store's stats.
  const auto correlate = [&](const std::string& label) {
    std::vector<CorrelationStats> runs;
    std::vector<FilePathUpdate::Table> tables;
    for (QueryBackend* store : stores) {
      FilePathCorrelator correlator(store);
      auto stats = correlator.Run(kIndex);
      EXPECT_TRUE(stats.ok()) << label;
      runs.push_back(stats.ok() ? *stats : CorrelationStats{});
      tables.push_back(correlator.tag_to_path());
    }
    EXPECT_EQ(DumpStats(runs[0]), DumpStats(runs[1])) << label;
    EXPECT_EQ(DumpStats(runs[0]), DumpStats(runs[2])) << label;
    EXPECT_EQ(tables[0], tables[1]) << label;
    EXPECT_EQ(tables[0], tables[2]) << label;
    return runs[0];
  };
  const auto expect_parity = [&](const std::string& label) {
    const std::string want = Observe(oracle);
    EXPECT_EQ(Observe(typed), want) << label;
    EXPECT_EQ(Observe(reference), want) << label;
    const std::string snapshot = Snapshot(oracle, "oracle");
    EXPECT_EQ(Snapshot(typed, "typed"), snapshot) << label;
    const std::string projected = CheckProjections(oracle, label + " oracle");
    EXPECT_EQ(CheckProjections(typed, label + " typed"), projected) << label;
    EXPECT_EQ(CheckProjections(reference, label + " reference"), projected)
        << label;
  };

  // Parity before any correlation; this also warms every segment's filter
  // cache with file_path predicates that correlation must invalidate.
  EXPECT_EQ(Observe(typed), Observe(oracle));
  const CorrelationStats first = correlate("first run");
  EXPECT_GT(first.events_updated, 0u);
  EXPECT_GE(first.events_unresolved, orphans.size());
  ExpectAllTyped(typed, "first run");
  expect_parity("first run");

  // A second run finds nothing new.
  EXPECT_EQ(correlate("second run").events_updated, 0u);
  ExpectAllTyped(typed, "second run");
  expect_parity("second run");

  // Tail growth: new rows (and new opens) become visible; re-correlation
  // gives them the column while sealed rows keep theirs.
  ingest(Slice(events, 320, events.size()));
  refresh();
  EXPECT_GT(correlate("tail run").events_updated, 0u);
  ExpectAllTyped(typed, "tail run");
  expect_parity("tail run");

  // A generic update after correlation converts the rows it modifies and
  // keeps their file_path.
  const auto mark = [](Json& doc) {
    if (doc.Has("reviewed")) return false;
    doc.Set("reviewed", true);
    return true;
  };
  std::vector<std::size_t> modified;
  for (QueryBackend* store : stores) {
    auto n = store->UpdateByQuery(
        kIndex, Query::And({Query::Exists("file_path"),
                            Query::Range("ret", 1, std::nullopt)}),
        mark);
    ASSERT_TRUE(n.ok());
    modified.push_back(*n);
  }
  EXPECT_GT(modified[0], 0u);
  EXPECT_EQ(modified[0], modified[1]);
  EXPECT_EQ(modified[0], modified[2]);
  auto stats = typed.Stats(kIndex);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->typed_rows, stats->doc_count - modified[0]);
  expect_parity("generic update");
  SearchRequest reviewed;
  reviewed.query = Query::And(
      {Query::Term("reviewed", true), Query::Not(Query::Exists("file_path"))});
  EXPECT_EQ(*typed.Count(kIndex, reviewed.query), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CorrelationParityTest,
    ::testing::Combine(::testing::ValuesIn(trace::kAllCorpusClasses),
                       ::testing::Values(std::size_t{1}, std::size_t{3}),
                       ::testing::Values(std::size_t{0}, std::size_t{4},
                                         std::size_t{64}),
                       ::testing::Values(std::size_t{0}, std::size_t{2})),
    [](const ::testing::TestParamInfo<Params>& info) {
      return std::string(trace::CorpusClassName(std::get<0>(info.param))) +
             "_shards" + std::to_string(std::get<1>(info.param)) + "_seg" +
             std::to_string(std::get<2>(info.param)) + "_threads" +
             std::to_string(std::get<3>(info.param));
    });

// ---- segments with nothing to resolve ----------------------------------------
// One sub-shard, four-row segments: the first segments hold only orphan
// rows, so correlation must leave them without a file_path column while
// later segments gain it — and queries over every segment stay exact.

TEST(CorrelationSegmentTest, SegmentsWithoutResolvableTagsStayConsistent) {
  ElasticStoreOptions typed_opts;
  typed_opts.shards_per_index = 1;
  typed_opts.segment_docs = 4;
  ElasticStoreOptions oracle_opts = typed_opts;
  oracle_opts.typed_ingest = false;
  ElasticStore typed(typed_opts);
  ElasticStore oracle(oracle_opts);
  const auto orphans = OrphanEvents(trace::CorpusClass::kFluentBit, 12);
  const auto events = TaggedCorpus(trace::CorpusClass::kFluentBit, 60, 5);
  for (ElasticStore* store : {&typed, &oracle}) {
    store->BulkWire(kIndex, kSession, orphans);
    store->BulkWire(kIndex, kSession, events);
    store->Refresh(kIndex);
  }
  FilePathCorrelator typed_correlator(&typed);
  FilePathCorrelator oracle_correlator(&oracle);
  auto got = typed_correlator.Run(kIndex);
  auto want = oracle_correlator.Run(kIndex);
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_EQ(DumpStats(*got), DumpStats(*want));
  EXPECT_GE(got->events_unresolved, orphans.size());
  EXPECT_GT(got->events_updated, 0u);
  ExpectAllTyped(typed, "segments");
  EXPECT_EQ(Observe(typed), Observe(oracle));
  // Growth after correlation: a new tail past the correlated segments.
  for (ElasticStore* store : {&typed, &oracle}) {
    store->BulkWire(kIndex, kSession,
                    OrphanEvents(trace::CorpusClass::kRocksDb, 6));
    store->Refresh(kIndex);
  }
  EXPECT_EQ(Observe(typed), Observe(oracle));
  EXPECT_EQ(Snapshot(typed, "seg_typed"), Snapshot(oracle, "seg_oracle"));
}

// ---- cluster router -----------------------------------------------------------
// The router forwards the projection to every shard (adding any sort field
// the list lacks for its merge, then dropping it) — serial and parallel
// fan-out must both equal the filtered full hits and the single store.

TEST(CorrelationRouterTest, ProjectionAndCorrelationMatchSingleStore) {
  for (const trace::CorpusClass cls : trace::kAllCorpusClasses) {
    SCOPED_TRACE(std::string(trace::CorpusClassName(cls)));
    cluster::ClusterOptions opts;
    opts.nodes = 3;
    opts.replicas = 1;
    opts.ack = cluster::AckLevel::kQuorum;
    opts.query_threads = 2;
    cluster::ClusterRouter router(opts);
    ElasticStoreOptions oracle_opts;
    oracle_opts.typed_ingest = false;
    ElasticStore oracle(oracle_opts);

    const auto events = TaggedCorpus(cls, 360, 77);
    for (std::size_t begin = 0; begin < events.size(); begin += 90) {
      auto batch_events = Slice(events, begin, begin + 90);
      transport::EventBatch batch;
      batch.session = kSession;
      batch.wire = batch_events;
      ASSERT_TRUE(router.Ingest(kIndex, std::move(batch)).ok());
      oracle.BulkWire(kIndex, kSession, std::move(batch_events));
    }
    ASSERT_TRUE(router.Settle().ok());
    router.Refresh(kIndex);
    oracle.Refresh(kIndex);

    FilePathCorrelator routed(&router);
    FilePathCorrelator single(&oracle);
    auto got = routed.Run(kIndex);
    auto want = single.Run(kIndex);
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_EQ(DumpStats(*got), DumpStats(*want));
    EXPECT_GT(got->events_updated, 0u);
    auto stats = router.Stats(kIndex);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->typed_rows, stats->doc_count);

    const std::string expected = CheckProjections(oracle, "single store");
    for (const auto fanout :
         {cluster::QueryFanout::kSerial, cluster::QueryFanout::kParallel}) {
      router.SetQueryFanout(fanout);
      EXPECT_EQ(CheckProjections(router, "router"), expected);
    }
  }
}

// ---- concurrency hammer -------------------------------------------------------
// Correlation rewrites sealed segments under ingest_mu plus the exclusive
// refresh lock while dashboard readers query and a writer keeps bulking and
// refreshing. Run under TSan by tsan_check; the final state must equal a
// single correlation over the same rows on the JSON route.

TEST(CorrelationConcurrencyTest, CorrelateAgainstReadersAndIngest) {
  ElasticStoreOptions opts;
  opts.shards_per_index = 3;
  opts.segment_docs = 16;
  opts.query_threads = 2;
  ElasticStore typed(opts);
  const auto events = TaggedCorpus(trace::CorpusClass::kRocksDb, 1200, 3);
  constexpr std::size_t kBatch = 40;

  std::atomic<bool> done{false};
  std::atomic<std::size_t> reader_errors{0};
  std::thread writer([&] {
    for (std::size_t begin = 0; begin < events.size(); begin += kBatch) {
      typed.BulkWire(kIndex, kSession, Slice(events, begin, begin + kBatch));
      typed.Refresh(kIndex);
    }
    done.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load()) {
        // Queries may fail only before the first bulk creates the index.
        const bool exists = typed.HasIndex(kIndex);
        SearchRequest request;
        request.query = Query::Exists("file_path");
        request.sort = {{"time_enter", false}};
        request.size = 50;
        request.source = {"file_path", "ret"};
        auto hits = typed.Search(kIndex, request);
        auto by_path = typed.Aggregate(kIndex, Query::MatchAll(),
                                       Aggregation::Terms("file_path", 10));
        auto count = typed.Count(kIndex, Query::Prefix("file_path", "/"));
        if (exists && (!hits.ok() || !by_path.ok() || !count.ok())) {
          reader_errors.fetch_add(1);
        }
        if (hits.ok()) {
          for (const Hit& hit : hits->hits) {
            if (!hit.source.Has("file_path")) reader_errors.fetch_add(1);
          }
        }
      }
    });
  }
  std::thread correlator_thread([&] {
    while (!done.load()) {
      if (!typed.HasIndex(kIndex)) continue;
      FilePathCorrelator correlator(&typed);
      (void)correlator.Run(kIndex);
    }
  });
  writer.join();
  for (std::thread& reader : readers) reader.join();
  correlator_thread.join();
  EXPECT_EQ(reader_errors.load(), 0u);

  FilePathCorrelator final_run(&typed);
  ASSERT_TRUE(final_run.Run(kIndex).ok());
  ExpectAllTyped(typed, "hammer");

  ElasticStoreOptions oracle_opts = opts;
  oracle_opts.typed_ingest = false;
  oracle_opts.query_threads = 0;
  ElasticStore oracle(oracle_opts);
  for (std::size_t begin = 0; begin < events.size(); begin += kBatch) {
    oracle.BulkWire(kIndex, kSession, Slice(events, begin, begin + kBatch));
  }
  oracle.Refresh(kIndex);
  FilePathCorrelator oracle_run(&oracle);
  ASSERT_TRUE(oracle_run.Run(kIndex).ok());
  EXPECT_EQ(Observe(typed), Observe(oracle));
}

}  // namespace
}  // namespace dio::backend
