#include "backend/aggregation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dio::backend {
namespace {

std::vector<Json> MakeDocs() {
  std::vector<Json> docs;
  // comm=a: ts 0,10,20; comm=b: ts 0,0.
  for (int i = 0; i < 3; ++i) {
    Json doc = Json::MakeObject();
    doc.Set("comm", "a");
    doc.Set("ts", i * 10);
    doc.Set("lat", 100 * (i + 1));
    docs.push_back(std::move(doc));
  }
  for (int i = 0; i < 2; ++i) {
    Json doc = Json::MakeObject();
    doc.Set("comm", "b");
    doc.Set("ts", 0);
    doc.Set("lat", 1000);
    docs.push_back(std::move(doc));
  }
  return docs;
}

std::vector<const Json*> Ptrs(const std::vector<Json>& docs) {
  std::vector<const Json*> out;
  for (const Json& doc : docs) out.push_back(&doc);
  return out;
}

TEST(AggregationTest, TermsCountsAndSortsByCount) {
  const auto docs = MakeDocs();
  const AggResult result =
      Aggregation::Terms("comm").Execute(Ptrs(docs));
  ASSERT_EQ(result.buckets.size(), 2u);
  EXPECT_EQ(result.buckets[0].key.as_string(), "a");
  EXPECT_EQ(result.buckets[0].doc_count, 3);
  EXPECT_EQ(result.buckets[1].key.as_string(), "b");
  EXPECT_EQ(result.buckets[1].doc_count, 2);
}

TEST(AggregationTest, TermsSizeLimitsTopN) {
  const auto docs = MakeDocs();
  const AggResult result =
      Aggregation::Terms("comm", 1).Execute(Ptrs(docs));
  ASSERT_EQ(result.buckets.size(), 1u);
  EXPECT_EQ(result.buckets[0].key.as_string(), "a");
}

TEST(AggregationTest, TermsSkipsDocsWithoutField) {
  std::vector<Json> docs = MakeDocs();
  docs.push_back(Json::MakeObject());  // no comm
  const AggResult result = Aggregation::Terms("comm").Execute(Ptrs(docs));
  std::int64_t total = 0;
  for (const AggBucket& bucket : result.buckets) total += bucket.doc_count;
  EXPECT_EQ(total, 5);
}

TEST(AggregationTest, HistogramBucketsByInterval) {
  const auto docs = MakeDocs();
  const AggResult result =
      Aggregation::Histogram("ts", 10).Execute(Ptrs(docs));
  ASSERT_EQ(result.buckets.size(), 3u);
  EXPECT_EQ(result.buckets[0].key.as_int(), 0);
  EXPECT_EQ(result.buckets[0].doc_count, 3);  // a@0 + b@0 + b@0
  EXPECT_EQ(result.buckets[1].key.as_int(), 10);
  EXPECT_EQ(result.buckets[2].key.as_int(), 20);
}

TEST(AggregationTest, HistogramNegativeValuesFloorCorrectly) {
  std::vector<Json> docs;
  Json doc = Json::MakeObject();
  doc.Set("v", -5);
  docs.push_back(std::move(doc));
  const AggResult result =
      Aggregation::Histogram("v", 10).Execute(Ptrs(docs));
  ASSERT_EQ(result.buckets.size(), 1u);
  EXPECT_EQ(result.buckets[0].key.as_int(), -10);
}

TEST(AggregationTest, TermsWithDateHistogramSubAgg) {
  const auto docs = MakeDocs();
  auto agg = Aggregation::Terms("comm").SubAgg(
      "per_ts", Aggregation::DateHistogram("ts", 10));
  const AggResult result = agg.Execute(Ptrs(docs));
  const AggResult& a_hist = result.buckets[0].sub.at("per_ts");
  EXPECT_EQ(a_hist.buckets.size(), 3u);
  const AggResult& b_hist = result.buckets[1].sub.at("per_ts");
  EXPECT_EQ(b_hist.buckets.size(), 1u);
  EXPECT_EQ(b_hist.buckets[0].doc_count, 2);
}

TEST(AggregationTest, StatsComputesAll) {
  const auto docs = MakeDocs();
  const AggResult result = Aggregation::Stats("lat").Execute(Ptrs(docs));
  EXPECT_EQ(result.metrics.GetInt("count"), 5);
  EXPECT_DOUBLE_EQ(result.metrics.GetDouble("min"), 100);
  EXPECT_DOUBLE_EQ(result.metrics.GetDouble("max"), 1000);
  EXPECT_DOUBLE_EQ(result.metrics.GetDouble("sum"), 2600);
  EXPECT_DOUBLE_EQ(result.metrics.GetDouble("avg"), 520);
}

TEST(AggregationTest, StatsEmptyInput) {
  const AggResult result = Aggregation::Stats("lat").Execute({});
  EXPECT_EQ(result.metrics.GetInt("count"), 0);
  EXPECT_DOUBLE_EQ(result.metrics.GetDouble("avg"), 0);
}

TEST(AggregationTest, PercentilesInterpolate) {
  std::vector<Json> docs;
  for (int i = 1; i <= 100; ++i) {
    Json doc = Json::MakeObject();
    doc.Set("lat", i);
    docs.push_back(std::move(doc));
  }
  const AggResult result =
      Aggregation::Percentiles("lat", {50.0, 99.0, 100.0}).Execute(Ptrs(docs));
  EXPECT_NEAR(result.metrics.GetDouble("50.000000"), 50.5, 0.01);
  EXPECT_NEAR(result.metrics.GetDouble("99.000000"), 99.01, 0.01);
  EXPECT_DOUBLE_EQ(result.metrics.GetDouble("100.000000"), 100.0);
}

TEST(AggregationTest, PercentilesEmptyReturnsZero) {
  const AggResult result =
      Aggregation::Percentiles("lat", {99.0}).Execute({});
  EXPECT_DOUBLE_EQ(result.metrics.GetDouble("99.000000"), 0.0);
}

TEST(AggregationDslTest, ParsesTermsWithNestedAggs) {
  auto agg = Aggregation::FromJsonText(R"({
    "terms": {"field": "comm", "size": 2},
    "aggs": {
      "over_time": {"date_histogram": {"field": "ts", "interval": 10}},
      "lat": {"stats": {"field": "lat"}}
    }
  })");
  ASSERT_TRUE(agg.ok());
  const auto docs = MakeDocs();
  const AggResult result = agg->Execute(Ptrs(docs));
  ASSERT_EQ(result.buckets.size(), 2u);
  EXPECT_TRUE(result.buckets[0].sub.contains("over_time"));
  EXPECT_TRUE(result.buckets[0].sub.contains("lat"));
  EXPECT_EQ(result.buckets[0].sub.at("lat").metrics.GetInt("count"), 3);
}

TEST(AggregationDslTest, ParsesPercentilesWithDefaults) {
  auto agg = Aggregation::FromJsonText(
      R"({"percentiles": {"field": "lat"}})");
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->percents(), (std::vector<double>{50.0, 95.0, 99.0}));
  auto custom = Aggregation::FromJsonText(
      R"({"percentiles": {"field": "lat", "percents": [99.9]}})");
  ASSERT_TRUE(custom.ok());
  EXPECT_EQ(custom->percents(), (std::vector<double>{99.9}));
}

TEST(AggregationDslTest, RejectsMalformed) {
  EXPECT_FALSE(Aggregation::FromJsonText("7").ok());
  EXPECT_FALSE(Aggregation::FromJsonText(R"({})").ok());
  EXPECT_FALSE(Aggregation::FromJsonText(R"({"pie": {"field": "x"}})").ok());
  EXPECT_FALSE(Aggregation::FromJsonText(R"({"terms": {}})").ok());
  EXPECT_FALSE(
      Aggregation::FromJsonText(R"({"histogram": {"field": "x"}})").ok());
  EXPECT_FALSE(Aggregation::FromJsonText(
                   R"({"terms": {"field": "a"}, "stats": {"field": "b"}})")
                   .ok());
  EXPECT_FALSE(Aggregation::FromJsonText(
                   R"({"terms": {"field": "a"}, "aggs": {"x": {"nope": {}}}})")
                   .ok());
  EXPECT_FALSE(Aggregation::FromJsonText(R"({"aggs": {}})").ok());
}

// Out-of-range DSL values are rejected at parse time with an error that
// names the offending value.
TEST(AggregationDslTest, RejectsHostileValues) {
  const std::pair<const char*, const char*> cases[] = {
      {R"({"percentiles": {"field": "x", "percents": [150]}})", "150"},
      {R"({"percentiles": {"field": "x", "percents": [-1]}})", "-1"},
      {R"({"percentiles": {"field": "x", "percents": [50, "99"]}})", "\"99\""},
      {R"({"percentiles": {"field": "x", "percents": [null]}})", "null"},
      {R"({"percentiles": {"field": "x", "percents": 50}})", "50"},
      {R"({"terms": {"field": "x", "size": -1}})", "-1"},
      {R"({"terms": {"field": "x", "size": 2.5}})", "2.5"},
      {R"({"terms": {"field": "x", "size": "3"}})", "\"3\""},
      {R"({"terms": {"field": "x"}, "aggs": {"p": {"percentiles": {"field": "y", "percents": [101]}}}})",
       "101"},
  };
  for (const auto& [text, value] : cases) {
    auto agg = Aggregation::FromJsonText(text);
    ASSERT_FALSE(agg.ok()) << text;
    EXPECT_NE(agg.status().message().find(value), std::string::npos)
        << text << " -> " << agg.status().message();
  }
  // The bounds themselves are valid.
  auto edges = Aggregation::FromJsonText(
      R"({"percentiles": {"field": "x", "percents": [0, 100]}})");
  ASSERT_TRUE(edges.ok());
  EXPECT_EQ(edges->percents(), (std::vector<double>{0.0, 100.0}));
  auto all_terms =
      Aggregation::FromJsonText(R"({"terms": {"field": "x", "size": 0}})");
  ASSERT_TRUE(all_terms.ok());
  EXPECT_EQ(all_terms->size(), 0u);
}

// The programmatic API skips the DSL checks: a percent outside [0, 100]
// clamps to the nearest bound instead of reading past the values.
TEST(AggregationTest, PercentilesClampOutOfRangePercents) {
  const auto docs = MakeDocs();  // lat: 100, 200, 300, 1000, 1000
  const AggResult result =
      Aggregation::Percentiles("lat", {150.0, -5.0, 0.0, 100.0})
          .Execute(Ptrs(docs));
  EXPECT_DOUBLE_EQ(result.metrics.GetDouble(std::to_string(150.0)), 1000.0);
  EXPECT_DOUBLE_EQ(result.metrics.GetDouble(std::to_string(-5.0)), 100.0);
  EXPECT_DOUBLE_EQ(result.metrics.GetDouble(std::to_string(0.0)), 100.0);
  EXPECT_DOUBLE_EQ(result.metrics.GetDouble(std::to_string(100.0)), 1000.0);
  // One value answers every percent.
  const std::vector<const Json*> one = {&docs[1]};
  const AggResult single =
      Aggregation::Percentiles("lat", {0.0, 50.0, 100.0}).Execute(one);
  for (const double p : {0.0, 50.0, 100.0}) {
    EXPECT_DOUBLE_EQ(single.metrics.GetDouble(std::to_string(p)), 200.0);
  }
}

TEST(AggregationTest, DeepSubAggregationNesting) {
  const auto docs = MakeDocs();
  auto agg = Aggregation::Terms("comm").SubAgg(
      "hist", Aggregation::Histogram("ts", 10).SubAgg(
                  "lat_stats", Aggregation::Stats("lat")));
  const AggResult result = agg.Execute(Ptrs(docs));
  const AggResult& hist = result.buckets[0].sub.at("hist");
  const AggResult& stats = hist.buckets[0].sub.at("lat_stats");
  EXPECT_EQ(stats.metrics.GetInt("count"), 1);
  EXPECT_DOUBLE_EQ(stats.metrics.GetDouble("avg"), 100);
}

// ---- distributed partials ---------------------------------------------------
// ExecutePartial / MergePartial / FinalizePartial over any split of the doc
// set must reproduce Execute over the whole set byte-for-byte (the corpus
// keeps metric fields integer-valued, where every combine step is exact).

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

std::vector<Json> PartialCorpus() {
  static const char* kComms[] = {"rocksdb", "postgres", "fluent-bit", "dio"};
  std::vector<Json> docs;
  std::uint64_t x = 88172645463325252ULL;  // xorshift: deterministic variety
  for (int i = 0; i < 120; ++i) {
    x ^= x << 13; x ^= x >> 7; x ^= x << 17;
    Json doc = Json::MakeObject();
    doc.Set("comm", kComms[x % 4]);
    doc.Set("ts", static_cast<std::int64_t>(i * 7));
    doc.Set("lat", static_cast<std::int64_t>(x % 5000));
    if (i % 11 == 0) doc.Set("flag", (x & 1) != 0);  // bool group keys
    if (i % 13 != 0) docs.push_back(std::move(doc));
    else docs.push_back(Json::MakeObject());  // kMissing everywhere
  }
  return docs;
}

std::vector<Aggregation> PartialAggs() {
  std::vector<Aggregation> out;
  out.push_back(Aggregation::Terms("comm")
                    .SubAgg("lat", Aggregation::Stats("lat"))
                    .SubAgg("p", Aggregation::Percentiles("lat", {50, 99})));
  out.push_back(Aggregation::Histogram("ts", 100).SubAgg(
      "by_comm", Aggregation::Terms("comm", 2)));
  out.push_back(Aggregation::Terms("flag"));
  out.push_back(Aggregation::Stats("lat"));
  out.push_back(Aggregation::Percentiles("lat", {1.0, 50.0, 95.0, 99.9}));
  return out;
}

TEST(AggregationPartialTest, SplitMergeFinalizeMatchesExecute) {
  const std::vector<Json> docs = PartialCorpus();
  const std::vector<const Json*> all = Ptrs(docs);
  for (const Aggregation& agg : PartialAggs()) {
    const std::string expected = DumpAgg(agg.Execute(all));
    for (const std::size_t chunk : {120u, 64u, 17u, 1u}) {
      AggPartial merged;
      for (std::size_t lo = 0; lo < all.size(); lo += chunk) {
        const std::size_t hi = std::min(lo + chunk, all.size());
        const std::vector<const Json*> slice(all.begin() + lo,
                                             all.begin() + hi);
        agg.MergePartial(merged, agg.ExecutePartial(slice));
      }
      EXPECT_EQ(DumpAgg(agg.FinalizePartial(std::move(merged))), expected)
          << "chunk=" << chunk;
    }
  }
}

TEST(AggregationPartialTest, TermsTruncationDeferredToFinalize) {
  // "b" wins the first chunk 2:1 but "a" wins globally 3:2 — a partial that
  // truncated per chunk would drop the global winner.
  std::vector<Json> docs;
  for (const char* comm : {"b", "b", "a", "a", "a"}) {
    Json doc = Json::MakeObject();
    doc.Set("comm", comm);
    docs.push_back(std::move(doc));
  }
  const std::vector<const Json*> all = Ptrs(docs);
  const Aggregation agg = Aggregation::Terms("comm", 1);
  const std::string expected = DumpAgg(agg.Execute(all));
  AggPartial merged;
  agg.MergePartial(merged, agg.ExecutePartial({all[0], all[1], all[2]}));
  agg.MergePartial(merged, agg.ExecutePartial({all[3], all[4]}));
  const AggResult result = agg.FinalizePartial(std::move(merged));
  EXPECT_EQ(DumpAgg(result), expected);
  ASSERT_EQ(result.buckets.size(), 1u);
  EXPECT_EQ(result.buckets[0].key.as_string(), "a");
  EXPECT_EQ(result.buckets[0].doc_count, 3);
}

TEST(AggregationPartialTest, EmptyPartialMatchesEmptyExecute) {
  for (const Aggregation& agg : PartialAggs()) {
    EXPECT_EQ(DumpAgg(agg.FinalizePartial(AggPartial{})),
              DumpAgg(agg.Execute({})));
  }
}

// ---- top_hits ------------------------------------------------------------------

// top_hits takes size 1 only, `_source` as an array of field names, sort
// orders asc/desc and no sub-aggregations; every error names the key.
TEST(AggregationDslTest, RejectsHostileTopHits) {
  const std::pair<const char*, const char*> cases[] = {
      {R"({"top_hits": {"size": 3}})", "size"},
      {R"({"top_hits": {"size": 0}})", "size"},
      {R"({"top_hits": {"size": "1"}})", "size"},
      {R"({"top_hits": {"size": 1.0}})", "size"},
      {R"({"top_hits": {}})", "size"},
      {R"({"top_hits": {"size": 1, "_source": "path"}})", "_source"},
      {R"({"top_hits": {"size": 1, "_source": {"includes": ["a"]}}})",
       "_source"},
      {R"({"top_hits": {"size": 1, "_source": ["path", 7]}})", "_source"},
      {R"({"top_hits": {"size": 1, "sort": [{"ts": "up"}]}})", "sort"},
      {R"({"top_hits": {"size": 1, "sort": [{"ts": {"order": 1}}]}})", "ts"},
      {R"({"top_hits": {"size": 1, "sort": "ts"}})", "sort"},
      {R"({"top_hits": {"size": 1, "from": 2}})", "from"},
      {R"({"top_hits": {"size": 1}, "aggs": {"x": {"stats": {"field": "y"}}}})",
       "aggs"},
      {R"({"terms": {"field": "comm"}, "aggs": {"t": {"top_hits": {"size": 2}}}})",
       "size"},
      {R"({"top_hits": [1]})", "top_hits"},
  };
  for (const auto& [text, key] : cases) {
    auto agg = Aggregation::FromJsonText(text);
    ASSERT_FALSE(agg.ok()) << text;
    EXPECT_NE(agg.status().message().find(key), std::string::npos)
        << text << " -> " << agg.status().message();
  }
}

// Every accepted top_hits form parses to the aggregation the code API
// builds and runs to the same result.
TEST(AggregationDslTest, TopHitsRoundTrips) {
  struct Case {
    const char* text;
    Aggregation built;
  };
  const Case cases[] = {
      {R"({"top_hits": {"size": 1}})", Aggregation::TopHits({}, {})},
      {R"({"top_hits": {"size": 1, "sort": ["ts"], "_source": []}})",
       Aggregation::TopHits({{"ts", true}}, {})},
      {R"({"top_hits": {"_source": ["comm", "lat"], "size": 1,
                        "sort": [{"lat": "desc"}, {"ts": {"order": "asc"}},
                                 {"comm": {}}]}})",
       Aggregation::TopHits({{"lat", false}, {"ts", true}, {"comm", true}},
                            {"comm", "lat"})},
  };
  const auto docs = MakeDocs();
  for (const Case& c : cases) {
    auto agg = Aggregation::FromJsonText(c.text);
    ASSERT_TRUE(agg.ok()) << c.text << " -> " << agg.status().message();
    EXPECT_EQ(agg->kind(), Aggregation::Kind::kTopHits);
    ASSERT_EQ(agg->sort().size(), c.built.sort().size()) << c.text;
    for (std::size_t i = 0; i < agg->sort().size(); ++i) {
      EXPECT_EQ(agg->sort()[i].field, c.built.sort()[i].field) << c.text;
      EXPECT_EQ(agg->sort()[i].ascending, c.built.sort()[i].ascending)
          << c.text;
    }
    EXPECT_EQ(agg->source(), c.built.source()) << c.text;
    EXPECT_EQ(DumpAgg(agg->Execute(Ptrs(docs))),
              DumpAgg(c.built.Execute(Ptrs(docs))))
        << c.text;
  }
  auto nested = Aggregation::FromJsonText(R"({
    "terms": {"field": "comm"},
    "aggs": {"first": {"top_hits": {"size": 1, "sort": [{"ts": "desc"}]}}}
  })");
  ASSERT_TRUE(nested.ok());
  const Aggregation built = Aggregation::Terms("comm").SubAgg(
      "first", Aggregation::TopHits({{"ts", false}}, {}));
  EXPECT_EQ(DumpAgg(nested->Execute(Ptrs(docs))),
            DumpAgg(built.Execute(Ptrs(docs))));
}

// The winner is the first row by the sort keys, missing values last, ties
// broken by docid; the result carries its docid, sort values and source.
TEST(AggregationTest, TopHitsPicksFirstRowBySortThenDocid) {
  std::vector<Json> docs = MakeDocs();  // a: ts 0,10,20; b: ts 0,0
  Json no_ts = Json::MakeObject();
  no_ts.Set("comm", "c");
  docs.push_back(std::move(no_ts));
  const auto agg = Aggregation::Terms("comm").SubAgg(
      "first", Aggregation::TopHits({{"ts", true}}, {"comm", "ts"}));
  const std::vector<std::uint64_t> ids = {10, 11, 12, 13, 14, 15};
  const AggResult result = agg.Execute(Ptrs(docs), ids);
  ASSERT_EQ(result.buckets.size(), 3u);
  const auto hit = [&result](std::size_t bucket) {
    return result.buckets[bucket].sub.at("first").metrics.Find("hits")->Dump();
  };
  EXPECT_EQ(hit(0), R"([{"_id":10,"_source":{"comm":"a","ts":0},"sort":[0]}])");
  EXPECT_EQ(hit(1), R"([{"_id":13,"_source":{"comm":"b","ts":0},"sort":[0]}])");
  EXPECT_EQ(hit(2), R"([{"_id":15,"_source":{"comm":"c"},"sort":[null]}])");

  // Descending; the row without ts still sorts last. Unsorted = docid order,
  // with the whole row as source and no "sort" member.
  const AggResult latest =
      Aggregation::TopHits({{"ts", false}}, {"ts"}).Execute(Ptrs(docs));
  EXPECT_EQ(latest.metrics.Dump(),
            R"({"hits":[{"_id":2,"_source":{"ts":20},"sort":[20]}]})");
  const AggResult first = Aggregation::TopHits({}, {}).Execute(Ptrs(docs));
  EXPECT_EQ(first.metrics.Dump(),
            R"({"hits":[{"_id":0,"_source":{"comm":"a","ts":0,"lat":100}}]})");
  EXPECT_EQ(Aggregation::TopHits({}, {}).Execute({}).metrics.Dump(),
            R"({"hits":[]})");
}

// Partials over any split, each given its rows' docids, merge to the
// winner over the whole set; MapDocIds renumbers a partial's winners.
TEST(AggregationPartialTest, TopHitsSplitMergeMatchesExecute) {
  const std::vector<Json> docs = PartialCorpus();
  const std::vector<const Json*> all = Ptrs(docs);
  std::vector<std::uint64_t> ids(all.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = 3 * i;
  std::vector<Aggregation> aggs;
  aggs.push_back(Aggregation::Terms("comm").SubAgg(
      "low", Aggregation::TopHits({{"lat", true}}, {"lat", "ts"})));
  aggs.push_back(Aggregation::Histogram("ts", 100).SubAgg(
      "flagged", Aggregation::TopHits({{"flag", true}, {"lat", false}}, {})));
  aggs.push_back(Aggregation::TopHits({{"comm", false}}, {"comm"}));
  for (const Aggregation& agg : aggs) {
    const std::string expected = DumpAgg(agg.Execute(all, ids));
    for (const std::size_t chunk : {64u, 17u, 1u}) {
      AggPartial merged;
      // Merge the chunks last to first: the lesser (keys, docid) wins in
      // any merge order.
      for (std::size_t lo = (all.size() - 1) / chunk * chunk;; lo -= chunk) {
        const std::size_t hi = std::min(lo + chunk, all.size());
        const std::vector<const Json*> slice(all.begin() + lo,
                                             all.begin() + hi);
        agg.MergePartial(merged,
                         agg.ExecutePartial(
                             slice, std::span(ids).subspan(lo, hi - lo)));
        if (lo == 0) break;
      }
      EXPECT_EQ(DumpAgg(agg.FinalizePartial(std::move(merged))), expected)
          << "chunk=" << chunk;
    }
  }
  // Positions 0..n-1, mapped through `ids`, report the same docids.
  for (const Aggregation& agg : aggs) {
    AggPartial partial = agg.ExecutePartial(all);
    ASSERT_TRUE(agg.MapDocIds(partial, ids));
    EXPECT_EQ(DumpAgg(agg.FinalizePartial(std::move(partial))),
              DumpAgg(agg.Execute(all, ids)));
    AggPartial short_map = agg.ExecutePartial(all);
    EXPECT_FALSE(agg.MapDocIds(short_map, std::span(ids).first(1)));
  }
}

}  // namespace
}  // namespace dio::backend
