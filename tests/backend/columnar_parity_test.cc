// Parity tests for the columnar query engine and the parallel per-shard
// fan-out (backend.query_threads). The JSON ReferenceBackend is the oracle:
// for the same Bulk call sequence, every observable result — hits, docids,
// totals, sort order, aggregation buckets and metrics, update-by-query
// effects — must be byte-identical across shard and thread counts.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "backend/reference_backend.h"
#include "backend/store.h"
#include "common/random.h"

namespace dio::backend {
namespace {

// ---- result dumping (same shape as store_test's shard-parity helpers) ------

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

// ---- randomized corpus ------------------------------------------------------
// Mixed-type documents exercising every column kind: ints, doubles, strings,
// bools, null members / arrays / objects (kOther), and absent fields
// (kMissing). Type-per-field is deliberately unstable — the same field can be
// an int in one document and a string in the next, like real half-migrated
// event schemas.

Json RandomDoc(Random& rng, int docnum) {
  static const char* kSyscalls[] = {"read",  "write", "openat", "close",
                                    "fsync", "lseek", "pread64"};
  static const char* kComms[] = {"rocksdb:low", "rocksdb:high", "fluent-bit",
                                 "postgres", "dio-tracer"};
  Json doc = Json::MakeObject();
  doc.Set("syscall", kSyscalls[rng.Uniform(7)]);
  doc.Set("tid", static_cast<std::int64_t>(100 + rng.Uniform(16)));
  doc.Set("time_enter", static_cast<std::int64_t>(1'000'000 + docnum * 17 +
                                                  rng.Uniform(13)));
  // ret is mostly a count, sometimes a negative errno.
  doc.Set("ret", rng.OneIn(8) ? -static_cast<std::int64_t>(1 + rng.Uniform(32))
                              : static_cast<std::int64_t>(rng.Uniform(65536)));
  if (!rng.OneIn(4)) {
    doc.Set("comm", kComms[rng.Uniform(5)]);
  }
  if (!rng.OneIn(3)) {
    doc.Set("file_path",
            "/data/db/" +
                std::string(rng.OneIn(2) ? "sstable-" : "wal-") +
                std::to_string(rng.Uniform(40)));
  }
  // duration flips between int and double representations of nanoseconds.
  if (rng.OneIn(3)) {
    doc.Set("duration_ns", rng.NextDouble() * 1e6);
  } else {
    doc.Set("duration_ns", static_cast<std::int64_t>(rng.Uniform(1'000'000)));
  }
  if (rng.OneIn(5)) doc.Set("cached", rng.OneIn(2));
  if (rng.OneIn(9)) doc.Set("extra", Json());  // null member: still "exists"
  if (rng.OneIn(11)) {
    Json arr = Json::MakeArray();
    arr.Append(static_cast<std::int64_t>(rng.Uniform(3)));
    doc.Set("fds", std::move(arr));  // non-scalar member (kOther)
  }
  // A field that is sometimes a string and sometimes a number.
  if (rng.OneIn(2)) {
    doc.Set("offset", static_cast<std::int64_t>(rng.Uniform(1 << 20)));
  } else if (rng.OneIn(2)) {
    doc.Set("offset", "unknown");
  }
  // Fields that draw nothing from rng, so the rest of the corpus is the same
  // with or without them:
  //  * ratio: three groups of seven distinct doubles, each group sharing one
  //    GroupKey (std::to_string keeps 6 decimals), spread over sub-shards;
  //  * big: integers whose Σ|v| passes 2^53, where an exact integer sum and
  //    the docid-order double sum differ;
  //  * solo: present in a single document.
  doc.Set("ratio", (docnum % 3) * 0.5 + (docnum % 7) * 1e-9);
  doc.Set("big", (docnum % 2 == 0 ? 1 : -3) *
                     ((std::int64_t{1} << 52) + docnum * 3));
  if (docnum == 5) doc.Set("solo", 42);
  return doc;
}

void FillStores(std::uint64_t seed, ReferenceBackend& reference,
                ElasticStore& store) {
  Random rng(seed);
  int docnum = 0;
  for (const int batch_size : {3, 41, 128, 1, 64, 17, 200}) {
    std::vector<Json> docs;
    for (int i = 0; i < batch_size; ++i, ++docnum) {
      docs.push_back(RandomDoc(rng, docnum));
    }
    reference.Bulk("ev", docs);
    store.Bulk("ev", docs);
    if (batch_size == 128) {  // interleave a refresh mid-sequence
      reference.Refresh("ev");
      store.Refresh("ev");
    }
  }
  reference.Refresh("ev");
  store.Refresh("ev");
}

std::vector<SearchRequest> ParityRequests() {
  std::vector<SearchRequest> out;
  out.emplace_back();  // match_all, docid order
  SearchRequest term;
  term.query = Query::Term("syscall", "read");
  out.push_back(term);
  SearchRequest cross_type;  // field that is int in some docs, string in others
  cross_type.query = Query::Or({Query::Term("offset", "unknown"),
                                Query::Range("offset", 0, 1024)});
  cross_type.sort = {{"offset", true}};
  out.push_back(cross_type);
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
                  Query::Terms("comm", {Json("postgres"), Json("fluent-bit")})}),
       Query::Not(Query::Term("cached", true)),
       Query::Exists("file_path")});
  boolean.sort = {{"time_enter", true}};
  out.push_back(boolean);
  SearchRequest prefix;
  prefix.query = Query::Prefix("file_path", "/data/db/wal-1");
  out.push_back(prefix);
  SearchRequest scan_only;  // no indexable clause: pure bitmap/scan path
  scan_only.query = Query::Not(Query::Exists("comm"));
  scan_only.sort = {{"ret", false}};
  out.push_back(scan_only);
  SearchRequest null_member;  // null members exist and group as kOther
  null_member.query = Query::Exists("extra");
  out.push_back(null_member);
  SearchRequest empty_or;  // structural edge: an empty Or matches everything
  empty_or.query = Query::And({Query::Or({}), Query::Exists("tid")});
  out.push_back(empty_or);
  SearchRequest deep_page;
  deep_page.sort = {{"duration_ns", true}};
  deep_page.from = 300;
  deep_page.size = 100;
  out.push_back(deep_page);
  return out;
}

std::vector<Aggregation> ParityAggs() {
  std::vector<Aggregation> out;
  out.push_back(
      Aggregation::Terms("syscall").SubAgg("lat", Aggregation::Stats("duration_ns")));
  out.push_back(Aggregation::Terms("offset"));   // mixed int/string/missing keys
  out.push_back(Aggregation::Terms("extra"));    // null-member grouping (kOther)
  out.push_back(Aggregation::DateHistogram("time_enter", 500)
                    .SubAgg("p", Aggregation::Percentiles(
                                     "duration_ns", {50.0, 95.0, 99.0})));
  out.push_back(Aggregation::Histogram("ret", 1000));
  out.push_back(Aggregation::Terms("comm", 3).SubAgg(
      "by_path", Aggregation::Terms("file_path", 4)));
  out.push_back(Aggregation::Stats("ret"));
  out.push_back(Aggregation::Percentiles("ret", {1.0, 50.0, 99.9}));
  // Colliding double keys: the key is the value at the first matching docid.
  out.push_back(Aggregation::Terms("ratio").SubAgg(
      "by_syscall", Aggregation::Terms("syscall", 2)));
  out.push_back(Aggregation::Terms("syscall").SubAgg(
      "by_ratio", Aggregation::Terms("ratio")));  // per-bucket first docid
  out.push_back(Aggregation::Stats("ratio"));  // non-integer doubles
  out.push_back(Aggregation::Terms("comm").SubAgg(
      "big", Aggregation::Stats("big")));  // Σ|v| ≥ 2^53
  out.push_back(Aggregation::Percentiles("ret", {0.0, 100.0}));
  out.push_back(Aggregation::Percentiles("solo", {0.0, 50.0, 100.0}));
  out.push_back(Aggregation::Terms("comm").SubAgg(
      "by_syscall",
      Aggregation::Terms("syscall").SubAgg(
          "top_path", Aggregation::Terms("file_path", 1))));
  return out;
}

struct EngineConfig {
  std::size_t shards;
  std::size_t threads;
};

class ColumnarParityTest
    : public ::testing::TestWithParam<EngineConfig> {};

// Every parity request, count, aggregation and update-by-query of a store
// built with `columnar_opts` against the reference, over three seeds.
void ExpectParity(const ElasticStoreOptions& columnar_opts) {
  for (const std::uint64_t seed : {7ULL, 1234ULL, 982451653ULL}) {
    ReferenceBackend oracle;
    ElasticStore columnar(columnar_opts);

    FillStores(seed, oracle, columnar);

    const auto requests = ParityRequests();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      auto ref = oracle.Search("ev", requests[i]);
      auto got = columnar.Search("ev", requests[i]);
      ASSERT_TRUE(ref.ok() && got.ok()) << "seed " << seed << " request " << i;
      EXPECT_EQ(DumpResult(*got), DumpResult(*ref))
          << "seed " << seed << " request " << i;
      EXPECT_EQ(*columnar.Count("ev", requests[i].query),
                *oracle.Count("ev", requests[i].query))
          << "seed " << seed << " request " << i;
    }

    const auto aggs = ParityAggs();
    for (std::size_t i = 0; i < aggs.size(); ++i) {
      auto ref = oracle.Aggregate("ev", Query::MatchAll(), aggs[i]);
      auto got = columnar.Aggregate("ev", Query::MatchAll(), aggs[i]);
      ASSERT_TRUE(ref.ok() && got.ok()) << "seed " << seed << " agg " << i;
      EXPECT_EQ(DumpAgg(*got), DumpAgg(*ref)) << "seed " << seed << " agg " << i;
      // Filtered aggregation: the selective term leaves whole segments
      // without a match at small segment_docs.
      for (const Query& filter :
           {Query::Range("ret", 0, 40'000), Query::Term("syscall", "fsync")}) {
        auto ref_f = oracle.Aggregate("ev", filter, aggs[i]);
        auto got_f = columnar.Aggregate("ev", filter, aggs[i]);
        ASSERT_TRUE(ref_f.ok() && got_f.ok());
        EXPECT_EQ(DumpAgg(*got_f), DumpAgg(*ref_f))
            << "seed " << seed << " filtered agg " << i << " "
            << filter.ToString();
      }
    }

    // Update-by-query must modify the same documents, then requery cleanly
    // (columns are rebuilt for touched shards).
    const auto tag = [](Json& d) {
      if (d.Has("correlated")) return false;
      d.Set("correlated", true);
      return true;
    };
    auto ref_updated =
        oracle.UpdateByQuery("ev", Query::Term("syscall", "fsync"), tag);
    auto got_updated =
        columnar.UpdateByQuery("ev", Query::Term("syscall", "fsync"), tag);
    ASSERT_TRUE(ref_updated.ok() && got_updated.ok());
    EXPECT_EQ(*got_updated, *ref_updated) << "seed " << seed;
    SearchRequest updated;
    updated.query = Query::Term("correlated", true);
    auto ref_after = oracle.Search("ev", updated);
    auto got_after = columnar.Search("ev", updated);
    ASSERT_TRUE(ref_after.ok() && got_after.ok());
    EXPECT_EQ(DumpResult(*got_after), DumpResult(*ref_after)) << "seed " << seed;
  }
}

TEST_P(ColumnarParityTest, MatchesSerialJsonEngine) {
  ElasticStoreOptions opts;
  opts.shards_per_index = GetParam().shards;
  opts.query_threads = GetParam().threads;
  ExpectParity(opts);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, ColumnarParityTest,
    ::testing::Values(EngineConfig{1, 0}, EngineConfig{4, 0},
                      EngineConfig{3, 2}, EngineConfig{8, 4}),
    [](const ::testing::TestParamInfo<EngineConfig>& info) {
      return "shards" + std::to_string(info.param.shards) + "_threads" +
             std::to_string(info.param.threads);
    });

// The same checks at the segment-size extremes: 4-row segments (many hold
// no match for a selective filter) and one tail that never seals.
TEST(ColumnarSegmentParityTest, MatchesSerialJsonEngine) {
  for (const auto& [shards, threads, segment_docs] :
       {std::tuple{4, 0, std::size_t{4}},
        std::tuple{3, 2, std::numeric_limits<std::size_t>::max()}}) {
    SCOPED_TRACE("segment_docs " + std::to_string(segment_docs));
    ElasticStoreOptions opts;
    opts.shards_per_index = shards;
    opts.query_threads = threads;
    opts.segment_docs = segment_docs;
    ExpectParity(opts);
  }
}

// ---- distributed partial aggregation ----------------------------------------
// AggregatePartial over a split corpus, merged in split order and finalized,
// must equal Aggregate over the full corpus — on the store and on the
// reference, and the store's must equal the reference's. The aggs keep
// stats fields integer-valued (exact partial sums); percentile merges are
// exact even over true doubles because they merge sorted values, not sums.

// Runs the split-partials check over one kind of backend; returns every
// finalized dump so the store's can be compared with the reference's.
template <typename Backend>
std::vector<std::string> SplitPartials(Backend& full, Backend& first,
                                       Backend& second,
                                       const std::string& label) {
  Random rng(982451653ULL);
  int docnum = 0;
  int batch_index = 0;
  for (const int batch_size : {3, 41, 128, 1, 64, 17, 200}) {
    std::vector<Json> docs;
    for (int i = 0; i < batch_size; ++i, ++docnum) {
      docs.push_back(RandomDoc(rng, docnum));
    }
    full.Bulk("ev", docs);
    (batch_index++ < 3 ? first : second).Bulk("ev", docs);
  }
  for (Backend* store : {&full, &first, &second}) store->Refresh("ev");

  std::vector<Aggregation> aggs;
  aggs.push_back(Aggregation::Terms("syscall")
                     .SubAgg("lat", Aggregation::Stats("ret"))
                     .SubAgg("p", Aggregation::Percentiles("duration_ns",
                                                           {50, 95, 99})));
  aggs.push_back(Aggregation::DateHistogram("time_enter", 500)
                     .SubAgg("by_comm", Aggregation::Terms("comm", 3)));
  aggs.push_back(Aggregation::Terms("offset"));  // mixed int/string keys
  aggs.push_back(Aggregation::Terms("extra"));   // null members (kOther)
  aggs.push_back(Aggregation::Stats("ret"));
  aggs.push_back(Aggregation::Percentiles("duration_ns", {1.0, 50.0, 99.9}));
  aggs.push_back(Aggregation::Terms("ratio"));  // colliding double keys
  aggs.push_back(Aggregation::Percentiles("duration_ns", {0.0, 100.0}));
  aggs.push_back(Aggregation::Terms("comm").SubAgg(
      "by_syscall", Aggregation::Terms("syscall").SubAgg(
                        "top_path", Aggregation::Terms("file_path", 1))));

  std::vector<Query> queries;
  queries.push_back(Query::MatchAll());
  queries.push_back(Query::Range("ret", 0, 40'000));
  std::vector<std::string> dumps;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    for (std::size_t i = 0; i < aggs.size(); ++i) {
      auto ref = full.Aggregate("ev", queries[q], aggs[i]);
      auto part_a = first.AggregatePartial("ev", queries[q], aggs[i]);
      auto part_b = second.AggregatePartial("ev", queries[q], aggs[i]);
      auto part_full = full.AggregatePartial("ev", queries[q], aggs[i]);
      EXPECT_TRUE(ref.ok() && part_a.ok() && part_b.ok() && part_full.ok())
          << label << " query " << q << " agg " << i;
      if (!(ref.ok() && part_a.ok() && part_b.ok() && part_full.ok())) {
        return dumps;
      }
      AggPartial merged;
      aggs[i].MergePartial(merged, std::move(*part_a));
      aggs[i].MergePartial(merged, std::move(*part_b));
      const std::string merged_dump =
          DumpAgg(aggs[i].FinalizePartial(std::move(merged)));
      EXPECT_EQ(merged_dump, DumpAgg(*ref))
          << label << " query " << q << " agg " << i;
      // Degenerate split: one partial over the whole corpus.
      EXPECT_EQ(DumpAgg(aggs[i].FinalizePartial(std::move(*part_full))),
                DumpAgg(*ref))
          << label << " query " << q << " agg " << i;
      dumps.push_back(merged_dump);
    }
  }
  return dumps;
}

TEST(AggregatePartialStoreTest, SplitPartialsFinalizeToFullAggregate) {
  ReferenceBackend ref_full;
  ReferenceBackend ref_first;
  ReferenceBackend ref_second;
  const std::vector<std::string> want =
      SplitPartials(ref_full, ref_first, ref_second, "reference");

  ElasticStoreOptions opts;
  opts.shards_per_index = 4;
  opts.query_threads = 0;
  ElasticStore full(opts);
  ElasticStore first(opts);
  ElasticStore second(opts);
  EXPECT_EQ(SplitPartials(full, first, second, "store"), want);
}

// ---- prefix queries over wide term dictionaries (rank ranges) --------------

TEST(ColumnarPrefixTest, PrefixSkipsNonMatchingTerms) {
  // Thousands of terms that do NOT match the prefix, bracketing the ones
  // that do: the prefix must resolve to the dictionary's contiguous rank
  // range, and the store must agree with the reference.
  ReferenceBackend oracle;
  ElasticStore columnar;

  std::vector<Json> docs;
  for (int i = 0; i < 3000; ++i) {
    Json d = Json::MakeObject();
    // Keys sort as aaa-…, match-…, zzz-…: the match range sits mid-dictionary.
    const std::string path = i % 3 == 0
                                 ? "aaa-" + std::to_string(i)
                                 : (i % 3 == 1 ? "match-" + std::to_string(i)
                                               : "zzz-" + std::to_string(i));
    d.Set("file_path", path);
    d.Set("n", static_cast<std::int64_t>(i));
    docs.push_back(d);
  }
  oracle.Bulk("p", docs);
  columnar.Bulk("p", std::move(docs));
  oracle.Refresh("p");
  columnar.Refresh("p");

  for (const std::string& prefix :
       {std::string("match-"), std::string("match-1"), std::string("aaa-29"),
        std::string("zzz-"), std::string("nosuch"), std::string("")}) {
    SearchRequest request;
    request.query = Query::Prefix("file_path", prefix);
    request.size = 5000;
    auto ref = oracle.Search("p", request);
    auto got = columnar.Search("p", request);
    ASSERT_TRUE(ref.ok() && got.ok()) << "prefix '" << prefix << "'";
    EXPECT_EQ(DumpResult(*got), DumpResult(*ref)) << "prefix '" << prefix << "'";
    if (prefix == "nosuch") {
      EXPECT_EQ(ref->total, 0u);
    } else {
      EXPECT_GT(ref->total, 0u) << "prefix '" << prefix << "' matched nothing";
    }
  }
  EXPECT_EQ(*columnar.Count("p", Query::Prefix("file_path", "match-")), 1000u);
}

// ---- JSON-only index -----------------------------------------------------------
// An index loaded from a snapshot holds only JSON rows (typed_rows == 0).
// Its queries take the same per-segment column scan as typed rows, so every
// predicate shape must match the reference, and repeated predicates must be
// answered from the segments' bitmap caches.

TEST(ColumnarJsonIndexTest, LoadedJsonIndexMatchesReference) {
  const std::string path = ::testing::TempDir() + "/dio_json_only_index.jsonl";
  {
    ElasticStore source;
    Random rng(4242);
    for (int batch = 0; batch < 3; ++batch) {
      std::vector<Json> docs;
      for (int i = 0; i < 150; ++i) docs.push_back(RandomDoc(rng, batch * 150 + i));
      source.Bulk("ev", std::move(docs));
    }
    source.Refresh("ev");
    ASSERT_TRUE(source.SaveIndex("ev", path).ok());
  }
  ElasticStoreOptions opts;
  opts.segment_docs = 32;  // several sealed segments per sub-shard
  ElasticStore store(opts);
  ASSERT_TRUE(store.LoadIndex(path).ok());
  // The reference reads the same snapshot rows, independently of the store.
  ReferenceBackend reference;
  {
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);  // header
    std::vector<Json> docs;
    while (std::getline(in, line)) docs.push_back(*Json::Parse(line));
    reference.Bulk("ev", std::move(docs));
    reference.Refresh("ev");
  }
  std::remove(path.c_str());
  auto stats = store.Stats("ev");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->typed_rows, 0u);
  EXPECT_EQ(stats->doc_count, 450u);
  EXPECT_GT(stats->sealed_segments, 0u);

  const std::vector<Query> queries = {
      Query::Term("syscall", "read"),
      Query::Term("tid", Json(103)),
      Query::Terms("comm", {Json("postgres"), Json("fluent-bit")}),
      Query::Range("ret", 0, 30'000),
      Query::Prefix("file_path", "/data/db/wal-"),
      Query::And({Query::Term("syscall", "write"),
                  Query::Range("time_enter", 1'002'000, std::nullopt)}),
      Query::Or({Query::Term("offset", "unknown"),
                 Query::Prefix("file_path", "/data/db/sstable-1")}),
  };
  const auto check = [&](const std::string& round) {
    for (std::size_t q = 0; q < queries.size(); ++q) {
      SearchRequest request;
      request.query = queries[q];
      request.sort = {{"duration_ns", false}};
      request.size = 60;
      auto got = store.Search("ev", request);
      auto want = reference.Search("ev", request);
      ASSERT_TRUE(got.ok() && want.ok()) << round << " query " << q;
      EXPECT_GT(want->total, 0u) << round << " query " << q;
      EXPECT_EQ(DumpResult(*got), DumpResult(*want))
          << round << " query " << q;
      EXPECT_EQ(*store.Count("ev", queries[q]),
                *reference.Count("ev", queries[q]))
          << round << " query " << q;
    }
  };
  check("first");
  const auto first = store.Stats("ev");
  check("repeat");
  const auto repeat = store.Stats("ev");
  ASSERT_TRUE(first.ok() && repeat.ok());
  EXPECT_GT(repeat->filter_cache_hits, first->filter_cache_hits);
  EXPECT_EQ(repeat->filter_cache_misses, first->filter_cache_misses);
}

// ---- max_result_window (satellite: paging guard) ----------------------------

TEST(MaxResultWindowTest, FromJsonClampsFromPlusSize) {
  // Default window is 10'000, like ES.
  EXPECT_TRUE(SearchRequest::FromJsonText(R"({"from": 0, "size": 10000})").ok());
  EXPECT_TRUE(
      SearchRequest::FromJsonText(R"({"from": 9999, "size": 1})").ok());
  auto too_big = SearchRequest::FromJsonText(R"({"from": 1, "size": 10000})");
  EXPECT_FALSE(too_big.ok());
  EXPECT_FALSE(SearchRequest::FromJsonText(R"({"size": 10001})").ok());
  EXPECT_FALSE(SearchRequest::FromJsonText(R"({"from": 20000})").ok());
  // Explicit window overrides the default.
  EXPECT_TRUE(SearchRequest::FromJsonText(R"({"size": 10001})", 20'000).ok());
  EXPECT_FALSE(SearchRequest::FromJsonText(R"({"size": 50})", 30).ok());
  EXPECT_TRUE(SearchRequest::FromJsonText(R"({"from": 10, "size": 20})", 30).ok());
}

TEST(MaxResultWindowTest, SearchBodyHonorsStoreOption) {
  ElasticStoreOptions options;
  options.max_result_window = 100;
  ElasticStore store(options);
  std::vector<Json> docs;
  for (int i = 0; i < 150; ++i) {
    Json d = Json::MakeObject();
    d.Set("n", static_cast<std::int64_t>(i));
    docs.push_back(std::move(d));
  }
  store.Bulk("w", std::move(docs));
  store.Refresh("w");

  auto ok = store.Search("w", *Json::Parse(R"({"from": 40, "size": 60})"));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->hits.size(), 60u);
  auto rejected = store.Search("w", *Json::Parse(R"({"from": 40, "size": 61})"));
  EXPECT_FALSE(rejected.ok());
  // Programmatic SearchRequests are not clamped (internal callers page
  // through everything, e.g. the correlator).
  SearchRequest request;
  request.size = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(store.Search("w", request)->hits.size(), 150u);
}

// ---- config plumbing --------------------------------------------------------

TEST(StoreOptionsTest, FromConfigParsesBackendSection) {
  auto config = Config::ParseString(
      "[backend]\n"
      "shards_per_index = 6\n"
      "query_threads = 3\n"
      "max_result_window = 500\n"
      "segment_docs = 1\n"
      "filter_cache_entries = 0\n");
  ASSERT_TRUE(config.ok());
  auto options = ElasticStoreOptions::FromConfig(*config);
  ASSERT_TRUE(options.ok()) << options.status().message();
  EXPECT_EQ(options->shards_per_index, 6u);
  EXPECT_EQ(options->query_threads, 3u);
  EXPECT_EQ(options->max_result_window, 500u);
  EXPECT_EQ(options->segment_docs, 1u);
  EXPECT_EQ(options->filter_cache_entries, 0u);
}

TEST(StoreOptionsTest, FromConfigDefaults) {
  auto config = Config::ParseString("");
  ASSERT_TRUE(config.ok());
  auto options = ElasticStoreOptions::FromConfig(*config);
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->shards_per_index, 4u);
  EXPECT_EQ(options->query_threads, 0u);
  EXPECT_EQ(options->max_result_window, 10'000u);
  EXPECT_EQ(options->segment_docs, ElasticStoreOptions{}.segment_docs);
  EXPECT_EQ(options->filter_cache_entries,
            ElasticStoreOptions{}.filter_cache_entries);
}

TEST(StoreOptionsTest, FromConfigRejectsOutOfRangeValues) {
  for (const auto& [line, key] :
       {std::pair{"segment_docs = 0", "backend.segment_docs"},
        std::pair{"segment_docs = -4", "backend.segment_docs"},
        std::pair{"shards_per_index = 0", "backend.shards_per_index"},
        std::pair{"max_result_window = 0", "backend.max_result_window"},
        std::pair{"query_threads = -1", "backend.query_threads"},
        std::pair{"filter_cache_entries = -1",
                  "backend.filter_cache_entries"}}) {
    auto config = Config::ParseString(std::string("[backend]\n") + line + "\n");
    ASSERT_TRUE(config.ok()) << line;
    auto options = ElasticStoreOptions::FromConfig(*config);
    ASSERT_FALSE(options.ok()) << line;
    EXPECT_NE(options.status().message().find(key), std::string::npos)
        << options.status().message();
  }
}

// ---- columnar stats counters ------------------------------------------------

TEST(ColumnarStatsTest, ReportsColumnBuildAndCacheTraffic) {
  ElasticStore store;
  std::vector<Json> docs;
  for (int i = 0; i < 64; ++i) {
    Json d = Json::MakeObject();
    d.Set("syscall", i % 2 == 0 ? "read" : "write");
    d.Set("ret", static_cast<std::int64_t>(i));
    docs.push_back(std::move(d));
  }
  store.Bulk("st", std::move(docs));
  store.Refresh("st");

  auto stats = store.Stats("st");
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->doc_value_fields, 0u);
  EXPECT_GT(stats->column_build_ns, 0u);
  EXPECT_EQ(stats->filter_cache_hits, 0u);

  // A leaf predicate computes a bitmap per segment on the first run and
  // reuses it afterwards.
  const Query scan = Query::Not(Query::Term("syscall", "read"));
  ASSERT_TRUE(store.Count("st", scan).ok());
  auto after_first = store.Stats("st");
  EXPECT_GT(after_first->filter_cache_misses, 0u);
  ASSERT_TRUE(store.Count("st", scan).ok());
  ASSERT_TRUE(store.Count("st", scan).ok());
  auto after_repeat = store.Stats("st");
  EXPECT_GT(after_repeat->filter_cache_hits, 0u);
  EXPECT_EQ(after_repeat->filter_cache_misses, after_first->filter_cache_misses);

  // Any visibility change drops the cached bitmaps.
  Json extra = Json::MakeObject();
  extra.Set("syscall", "fsync");
  store.Bulk("st", {std::move(extra)});
  store.Refresh("st");
  ASSERT_TRUE(store.Count("st", scan).ok());
  auto after_refresh = store.Stats("st");
  EXPECT_GT(after_refresh->filter_cache_misses,
            after_repeat->filter_cache_misses);
}

}  // namespace
}  // namespace dio::backend
