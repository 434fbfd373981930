#include "backend/store.h"

#include <gtest/gtest.h>

#include <thread>

#include "common/random.h"

namespace dio::backend {
namespace {

Json Event(const std::string& syscall, int tid, std::int64_t ts,
           std::int64_t ret) {
  Json doc = Json::MakeObject();
  doc.Set("syscall", syscall);
  doc.Set("tid", tid);
  doc.Set("time_enter", ts);
  doc.Set("ret", ret);
  return doc;
}

class StoreTest : public ::testing::Test {
 protected:
  void Seed(const std::string& index, int count) {
    std::vector<Json> docs;
    for (int i = 0; i < count; ++i) {
      docs.push_back(Event(i % 2 == 0 ? "read" : "write", 100 + i % 4,
                           1000 + i, i));
    }
    store_.Bulk(index, std::move(docs));
    store_.Refresh(index);
  }

  ElasticStore store_;
};

TEST_F(StoreTest, CreateDeleteList) {
  EXPECT_TRUE(store_.CreateIndex("s1").ok());
  EXPECT_FALSE(store_.CreateIndex("s1").ok());
  EXPECT_TRUE(store_.HasIndex("s1"));
  EXPECT_EQ(store_.ListIndices(), (std::vector<std::string>{"s1"}));
  EXPECT_TRUE(store_.DeleteIndex("s1").ok());
  EXPECT_FALSE(store_.DeleteIndex("s1").ok());
  EXPECT_FALSE(store_.HasIndex("s1"));
}

TEST_F(StoreTest, BulkAutoCreatesIndex) {
  store_.Bulk("auto", {Event("read", 1, 1, 0)});
  EXPECT_TRUE(store_.HasIndex("auto"));
}

TEST_F(StoreTest, NearRealTimeVisibility) {
  store_.Bulk("nrt", {Event("read", 1, 1, 0)});
  auto stats = store_.Stats("nrt");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->doc_count, 0u);      // not yet searchable
  EXPECT_EQ(stats->pending_count, 1u);
  auto count = store_.Count("nrt", Query::MatchAll());
  EXPECT_EQ(*count, 0u);
  store_.Refresh("nrt");
  EXPECT_EQ(*store_.Count("nrt", Query::MatchAll()), 1u);
  EXPECT_EQ(store_.Stats("nrt")->pending_count, 0u);
}

TEST_F(StoreTest, SearchTermAndRange) {
  Seed("s", 100);
  SearchRequest request;
  request.query = Query::Term("syscall", Json("read"));
  auto result = store_.Search("s", request);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total, 50u);

  request.query = Query::And({Query::Term("syscall", Json("write")),
                              Query::Range("time_enter", 1000, 1009)});
  result = store_.Search("s", request);
  EXPECT_EQ(result->total, 5u);
}

TEST_F(StoreTest, SearchMissingIndexErrors) {
  EXPECT_FALSE(store_.Search("none", SearchRequest{}).ok());
  EXPECT_FALSE(store_.Count("none", Query::MatchAll()).ok());
  EXPECT_FALSE(store_.Stats("none").ok());
}

TEST_F(StoreTest, SortAscendingDescendingAndMissingLast) {
  store_.Bulk("sorted", {Event("a", 1, 300, 0), Event("b", 2, 100, 0),
                         Event("c", 3, 200, 0)});
  Json no_ts = Json::MakeObject();
  no_ts.Set("syscall", "d");
  store_.Bulk("sorted", {std::move(no_ts)});
  store_.Refresh("sorted");

  SearchRequest request;
  request.sort = {{"time_enter", true}};
  auto result = store_.Search("sorted", request);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->hits.size(), 4u);
  EXPECT_EQ(result->hits[0].source.GetString("syscall"), "b");
  EXPECT_EQ(result->hits[1].source.GetString("syscall"), "c");
  EXPECT_EQ(result->hits[2].source.GetString("syscall"), "a");
  EXPECT_EQ(result->hits[3].source.GetString("syscall"), "d");  // missing last

  request.sort = {{"time_enter", false}};
  result = store_.Search("sorted", request);
  EXPECT_EQ(result->hits[0].source.GetString("syscall"), "a");
  EXPECT_EQ(result->hits[3].source.GetString("syscall"), "d");
}

TEST_F(StoreTest, PagingFromSize) {
  Seed("page", 25);
  SearchRequest request;
  request.sort = {{"time_enter", true}};
  request.from = 10;
  request.size = 10;
  auto result = store_.Search("page", request);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total, 25u);
  ASSERT_EQ(result->hits.size(), 10u);
  EXPECT_EQ(result->hits[0].source.GetInt("time_enter"), 1010);
  request.from = 20;
  result = store_.Search("page", request);
  EXPECT_EQ(result->hits.size(), 5u);
  request.from = 100;
  result = store_.Search("page", request);
  EXPECT_TRUE(result->hits.empty());
}

TEST_F(StoreTest, UpdateByQueryMutatesAndStaysQueryable) {
  Seed("upd", 20);
  auto updated = store_.UpdateByQuery(
      "upd", Query::Term("syscall", Json("read")),
      [](Json& doc) {
        doc.Set("file_path", "/data/x");
        return true;
      });
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(*updated, 10u);
  // New field immediately searchable via the (re)index.
  EXPECT_EQ(*store_.Count("upd", Query::Term("file_path", Json("/data/x"))),
            10u);
  EXPECT_EQ(*store_.Count("upd", Query::Exists("file_path")), 10u);
}

TEST_F(StoreTest, UpdateByQueryChangedValueNotMatchedByStaleTerm) {
  store_.Bulk("stale", {Event("read", 1, 1, 0)});
  store_.Refresh("stale");
  ASSERT_TRUE(store_
                  .UpdateByQuery("stale", Query::MatchAll(),
                                 [](Json& doc) {
                                   doc.Set("syscall", "pread64");
                                   return true;
                                 })
                  .ok());
  // The old posting still exists internally but re-verification rejects it.
  EXPECT_EQ(*store_.Count("stale", Query::Term("syscall", Json("read"))), 0u);
  EXPECT_EQ(*store_.Count("stale", Query::Term("syscall", Json("pread64"))),
            1u);
}

TEST_F(StoreTest, AggregateTermsWithSubHistogram) {
  for (int t = 0; t < 3; ++t) {
    std::vector<Json> docs;
    for (int i = 0; i < 10 * (t + 1); ++i) {
      docs.push_back(Event("rw", 100 + t, i * 10, 0));
    }
    store_.Bulk("agg", std::move(docs));
  }
  store_.Refresh("agg");
  auto agg = Aggregation::Terms("tid").SubAgg(
      "hist", Aggregation::Histogram("time_enter", 100));
  auto result = store_.Aggregate("agg", Query::MatchAll(), agg);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->buckets.size(), 3u);
  // Sorted by doc_count desc: tid 102 (30 docs) first.
  EXPECT_EQ(result->buckets[0].key.as_int(), 102);
  EXPECT_EQ(result->buckets[0].doc_count, 30);
  const AggResult& hist = result->buckets[0].sub.at("hist");
  EXPECT_EQ(hist.buckets.size(), 3u);  // 0..299 in 100-wide buckets
  EXPECT_EQ(hist.buckets[0].doc_count, 10);
}

TEST_F(StoreTest, CountMatchesSearchTotal) {
  Seed("cnt", 42);
  const Query q = Query::Term("syscall", Json("read"));
  SearchRequest request;
  request.query = q;
  EXPECT_EQ(*store_.Count("cnt", q), store_.Search("cnt", request)->total);
}

// Property: the column scan (one CompiledQuery per segment, served from
// the segment's columns and bitmap cache) counts exactly the documents that
// brute-force Query::Matches accepts. The test name predates the removal of
// the postings candidates; the scan is now the only path.
class StoreQueryEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StoreQueryEquivalence, CandidatesAgreeWithScan) {
  ElasticStore store;
  Random rng(GetParam());
  std::vector<Json> docs;
  const char* syscalls[] = {"read", "write", "openat", "close", "lseek"};
  for (int i = 0; i < 500; ++i) {
    Json doc = Json::MakeObject();
    doc.Set("syscall", syscalls[rng.Uniform(5)]);
    doc.Set("tid", static_cast<std::int64_t>(rng.Uniform(8)));
    doc.Set("ts", static_cast<std::int64_t>(rng.Uniform(10000)));
    if (rng.OneIn(3)) doc.Set("path", "/data/f" + std::to_string(rng.Uniform(10)));
    docs.push_back(std::move(doc));
  }
  store.Bulk("p", std::move(docs));
  store.Refresh("p");

  std::vector<Query> queries;
  queries.push_back(Query::Term("syscall", Json("read")));
  queries.push_back(Query::Terms("syscall", {Json("write"), Json("lseek")}));
  queries.push_back(Query::Range("ts", 2500, 7500));
  queries.push_back(Query::Prefix("path", "/data/f1"));
  queries.push_back(Query::Exists("path"));
  queries.push_back(Query::And({Query::Term("tid", Json(3)),
                                Query::Range("ts", 1000, std::nullopt)}));
  queries.push_back(Query::Or({Query::Term("syscall", Json("close")),
                               Query::Range("ts", std::nullopt, 100)}));
  queries.push_back(Query::Not(Query::Term("syscall", Json("read"))));
  queries.push_back(Query::And(
      {Query::Not(Query::Exists("path")),
       Query::Or({Query::Term("tid", Json(0)), Query::Term("tid", Json(1))})}));

  // Brute force over all docs.
  SearchRequest all;
  all.size = 10000;
  auto everything = store.Search("p", all);
  ASSERT_TRUE(everything.ok());
  for (const Query& q : queries) {
    std::size_t brute = 0;
    for (const Hit& hit : everything->hits) {
      if (q.Matches(hit.source)) ++brute;
    }
    EXPECT_EQ(*store.Count("p", q), brute) << q.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreQueryEquivalence,
                         ::testing::Values(11, 22, 33, 44));

TEST_F(StoreTest, SearchBodyFromJsonFullRoundTrip) {
  Seed("dsl", 50);
  auto request = SearchRequest::FromJsonText(R"({
    "query": {"bool": {
      "must": [{"term": {"syscall": "read"}},
               {"range": {"time_enter": {"gte": 1000, "lte": 1040}}}]
    }},
    "sort": [{"time_enter": {"order": "desc"}}],
    "from": 2,
    "size": 5
  })");
  ASSERT_TRUE(request.ok());
  auto result = store_.Search("dsl", *request);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total, 21u);  // even offsets in [1000,1040]
  ASSERT_EQ(result->hits.size(), 5u);
  // Sorted desc, paged past the first two: 1040, 1038 skipped.
  EXPECT_EQ(result->hits[0].source.GetInt("time_enter"), 1036);
}

TEST_F(StoreTest, SearchBodyStringSortAscending) {
  Seed("dsl2", 10);
  auto request = SearchRequest::FromJsonText(
      R"({"sort": ["time_enter"], "size": 3})");
  ASSERT_TRUE(request.ok());
  auto result = store_.Search("dsl2", *request);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->hits[0].source.GetInt("time_enter"), 1000);
}

TEST_F(StoreTest, SearchBodyRejectsMalformed) {
  EXPECT_FALSE(SearchRequest::FromJsonText("[]").ok());
  EXPECT_FALSE(SearchRequest::FromJsonText(R"({"unknown": 1})").ok());
  EXPECT_FALSE(SearchRequest::FromJsonText(R"({"from": -1})").ok());
  EXPECT_FALSE(SearchRequest::FromJsonText(R"({"sort": "x"})").ok());
  EXPECT_FALSE(
      SearchRequest::FromJsonText(R"({"query": {"bogus": {}}})").ok());
}

// Search bodies come from outside the process: each malformed field fails
// with an error naming its key instead of being coerced.

TEST_F(StoreTest, SearchBodySortShorthand) {
  auto request = SearchRequest::FromJsonText(
      R"({"sort": [{"ret": "desc"}, {"tid": "asc"}, {"pid": {}}]})");
  ASSERT_TRUE(request.ok()) << request.status().message();
  ASSERT_EQ(request->sort.size(), 3u);
  EXPECT_EQ(request->sort[0].field, "ret");
  EXPECT_FALSE(request->sort[0].ascending);
  EXPECT_TRUE(request->sort[1].ascending);
  EXPECT_TRUE(request->sort[2].ascending);  // no order given: ascending
}

TEST_F(StoreTest, SearchBodyRejectsUnknownSortOrder) {
  for (const char* body : {R"({"sort": [{"ret": {"order": "dsc"}}]})",
                           R"({"sort": [{"ret": "descending"}]})",
                           R"({"sort": [{"ret": {"order": 1}}]})",
                           R"({"sort": [{"ret": 1}]})"}) {
    auto request = SearchRequest::FromJsonText(body);
    ASSERT_FALSE(request.ok()) << body;
    EXPECT_NE(request.status().message().find("sort"), std::string::npos);
    EXPECT_NE(request.status().message().find("ret"), std::string::npos);
  }
}

TEST_F(StoreTest, SearchBodyRejectsFractionalSize) {
  auto request = SearchRequest::FromJsonText(R"({"size": 2.5})");
  ASSERT_FALSE(request.ok());
  EXPECT_NE(request.status().message().find("size"), std::string::npos);
  auto from = SearchRequest::FromJsonText(R"({"from": 0.5})");
  ASSERT_FALSE(from.ok());
  EXPECT_NE(from.status().message().find("from"), std::string::npos);
  // An integral double is an integer.
  auto integral = SearchRequest::FromJsonText(R"({"from": 3.0, "size": 2.0})");
  ASSERT_TRUE(integral.ok()) << integral.status().message();
  EXPECT_EQ(integral->from, 3u);
  EXPECT_EQ(integral->size, 2u);
}

TEST_F(StoreTest, SearchBodyRejectsOutOfRangeCounts) {
  for (const char* body : {R"({"from": 1e300})", R"({"from": -1e300})",
                           R"({"from": "3"})"}) {
    auto request = SearchRequest::FromJsonText(body);
    ASSERT_FALSE(request.ok()) << body;
    EXPECT_NE(request.status().message().find("from"), std::string::npos)
        << body;
  }
  auto size = SearchRequest::FromJsonText(R"({"size": 1e19})");
  ASSERT_FALSE(size.ok());
  EXPECT_NE(size.status().message().find("size"), std::string::npos);
}

TEST_F(StoreTest, ConcurrentBulkAndSearch) {
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; i < 50; ++i) {
      store_.Bulk("conc", {Event("read", 1, i, 0)});
      store_.Refresh("conc");
    }
    stop.store(true);
  });
  std::thread reader([&] {
    while (!stop.load()) {
      if (store_.HasIndex("conc")) {
        auto count = store_.Count("conc", Query::MatchAll());
        if (count.ok()) {
          EXPECT_LE(*count, 50u);
        }
      }
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(*store_.Count("conc", Query::MatchAll()), 50u);
}

// ---- shard parity -----------------------------------------------------------
// The sharded store is a pure performance refactor: for the same Bulk call
// sequence, every observable result (hits, docids, totals, aggregations,
// update-by-query effects) must be byte-identical across shard counts.

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

class ShardParityTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardParityTest, IdenticalToUnshardedStore) {
  ElasticStore reference(1);
  ElasticStore sharded(GetParam());

  // Same Bulk call sequence into both, with varied batch sizes so documents
  // land in every sub-shard.
  int doc = 0;
  for (const int batch_size : {1, 7, 64, 3, 128, 5}) {
    std::vector<Json> docs;
    for (int i = 0; i < batch_size; ++i, ++doc) {
      Json d = Event(doc % 3 == 0 ? "read" : (doc % 3 == 1 ? "write" : "fsync"),
                     100 + doc % 5, 1000 + (doc * 37) % 991, doc % 17);
      d.Set("file_path", "/data/db/sstable-" + std::to_string(doc % 9));
      docs.push_back(d);
    }
    reference.Bulk("parity", docs);
    sharded.Bulk("parity", std::move(docs));
    if (batch_size == 64) {  // interleave a refresh mid-sequence
      reference.Refresh("parity");
      sharded.Refresh("parity");
    }
  }
  reference.Refresh("parity");
  sharded.Refresh("parity");

  const std::vector<SearchRequest> requests = [] {
    std::vector<SearchRequest> out;
    SearchRequest all;
    out.push_back(all);  // docid order, match_all
    SearchRequest term;
    term.query = Query::Term("syscall", "read");
    out.push_back(term);
    SearchRequest range;
    range.query = Query::Range("time_enter", 1100, 1700);
    range.sort = {{"time_enter", true}, {"tid", false}};
    out.push_back(range);
    SearchRequest boolean;
    boolean.query = Query::And(
        {Query::Or({Query::Term("syscall", "write"),
                    Query::Term("syscall", "fsync")}),
         Query::Not(Query::Term("tid", 102)),
         Query::Prefix("file_path", "/data/db/sstable-1")});
    out.push_back(boolean);
    SearchRequest paged;
    paged.sort = {{"ret", false}};
    paged.from = 10;
    paged.size = 25;
    out.push_back(paged);
    return out;
  }();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    auto ref = reference.Search("parity", requests[i]);
    auto got = sharded.Search("parity", requests[i]);
    ASSERT_TRUE(ref.ok() && got.ok()) << "request " << i;
    EXPECT_EQ(DumpResult(*got), DumpResult(*ref)) << "request " << i;
  }

  // Counts and aggregations.
  EXPECT_EQ(*sharded.Count("parity", Query::Term("syscall", "read")),
            *reference.Count("parity", Query::Term("syscall", "read")));
  const Aggregation agg =
      Aggregation::Terms("syscall").SubAgg("lat", Aggregation::Stats("ret"));
  auto ref_agg = reference.Aggregate("parity", Query::MatchAll(), agg);
  auto got_agg = sharded.Aggregate("parity", Query::MatchAll(), agg);
  ASSERT_TRUE(ref_agg.ok() && got_agg.ok());
  EXPECT_EQ(DumpAgg(*got_agg), DumpAgg(*ref_agg));

  // Update-by-query must touch the same documents in both stores.
  const auto set_flag = [](Json& d) {
    d.Set("correlated", true);
    return true;
  };
  auto ref_updated = reference.UpdateByQuery(
      "parity", Query::Term("syscall", "fsync"), set_flag);
  auto got_updated =
      sharded.UpdateByQuery("parity", Query::Term("syscall", "fsync"),
                            set_flag);
  ASSERT_TRUE(ref_updated.ok() && got_updated.ok());
  EXPECT_EQ(*got_updated, *ref_updated);
  SearchRequest updated;
  updated.query = Query::Term("correlated", true);
  auto ref_after = reference.Search("parity", updated);
  auto got_after = sharded.Search("parity", updated);
  ASSERT_TRUE(ref_after.ok() && got_after.ok());
  EXPECT_EQ(DumpResult(*got_after), DumpResult(*ref_after));
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardParityTest,
                         ::testing::Values(2, 3, 4, 8));

}  // namespace
}  // namespace dio::backend
