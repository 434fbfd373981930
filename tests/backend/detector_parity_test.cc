// Parity suite for the analysis pass: FilePathCorrelator, then
// RunAllDetectors, over the same rows on every backend.
//
// The JSON ReferenceBackend is the oracle. ElasticStore runs with 1 and 4
// sub-shards, four-row segments and one never-sealed tail, with the corpus
// fed as typed wire records (BulkWire) or as JSON documents (Bulk); a
// three-node ClusterRouter runs with parallel and serial query fan-out.
// The correlation stats and tag table, RenderFindings and every finding's
// evidence must be byte-identical. Hand-built JSON rows cover the cases the
// aggregation form of the stale-offset detector and of the correlator's
// harvest must get right: first reads that tie on time_enter (on one store
// and across logical shards), a read without time_enter, a tag whose first
// open has an empty path, and numeric and empty file tags.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "backend/correlation.h"
#include "backend/detectors.h"
#include "backend/reference_backend.h"
#include "backend/store.h"
#include "cluster/router.h"
#include "trace/corpus.h"

namespace dio::backend {
namespace {

constexpr char kIndex[] = "diag";
constexpr char kSession[] = "diag-session";

// ---- corpus -----------------------------------------------------------------

// A golden corpus stream with every fd-handling syscall tagged by the file
// identity its fd was opened with, as the tracer tags them.
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

Json Open(Json tag, std::string path, std::int64_t ts) {
  Json doc = Json::MakeObject();
  doc.Set("syscall", "openat");
  doc.Set("comm", "edge");
  doc.Set("tid", 900);
  doc.Set("time_enter", ts);
  doc.Set("ret", 3);
  doc.Set("file_tag", std::move(tag));
  doc.Set("path", std::move(path));
  return doc;
}

// A read; a negative `ts` leaves time_enter out.
Json Read(Json tag, std::int64_t ts, std::int64_t offset, std::int64_t ret,
          std::int64_t tid = 900) {
  Json doc = Json::MakeObject();
  doc.Set("syscall", "read");
  doc.Set("comm", "edge");
  doc.Set("tid", tid);
  if (ts >= 0) doc.Set("time_enter", ts);
  doc.Set("ret", ret);
  doc.Set("file_tag", std::move(tag));
  doc.Set("file_offset", offset);
  return doc;
}

// The hand-built rows, in three batches so they land in several segments
// and refreshes.
std::vector<std::vector<Json>> EdgeBatches() {
  std::vector<std::vector<Json>> batches(3);
  // A tag whose first open has an empty path: the later open names it.
  batches[0].push_back(Open(Json("edge|1"), "", 1000));
  batches[0].push_back(Open(Json("edge|1"), "/edge/one.log", 1100));
  batches[0].push_back(Read(Json("edge|1"), 1200, 10, 0));
  batches[0].push_back(Read(Json("edge|1"), 1210, 10, 5));
  // Numeric and empty file tags: the detector reads both as the tag "".
  batches[0].push_back(Open(Json(42), "/edge/numeric.log", 1300));
  batches[0].push_back(Read(Json(42), 1400, 5, 5));
  batches[1].push_back(Read(Json(""), 1350, 0, 1));
  batches[1].push_back(Read(Json(43), 1500, 9, 0));
  // A read without time_enter sorts after every timed read, so its tag's
  // first read is the timed one; a tag read only without time_enter comes
  // last of all.
  batches[1].push_back(Read(Json("notime|1"), -1, 3, 0));
  batches[1].push_back(Read(Json("notime|2"), -1, 0, 4));
  batches[1].push_back(Read(Json("notime|2"), 1600, 7, 4));
  // First reads that tie on time_enter. Same tid and time_enter route to
  // one logical shard; distinct tids spread over logical shards. Docid
  // breaks the tie, so "tie|b" (ingested first) leads "tie|a".
  batches[1].push_back(Read(Json("tie|b"), 5000, 11, 0));
  batches[2].push_back(Read(Json("tie|a"), 5000, 12, 0));
  batches[2].push_back(Read(Json("tie|a"), 4000 + 2000, 0, 1));
  for (int i = 0; i < 4; ++i) {
    batches[2].push_back(Read(Json("tie|x" + std::to_string(i)), 6000,
                              20 + i, 1, 901 + i * 17));
  }
  // Ties whose docid order is the reverse of their tags' order, so only the
  // docid tiebreak puts "tie|z3" first.
  for (int i = 3; i >= 0; --i) {
    batches[2].push_back(
        Read(Json("tie|z" + std::to_string(i)), 7000, 30 + i, 1, 960));
  }
  batches[2].push_back(Open(Json("tie|a"), "/edge/tie-a.log", 100));
  batches[2].push_back(Open(Json("tie|x1"), "/edge/tie-x1.log", 100));
  return batches;
}

// The ingest sequence every backend receives, in one order: wire batches
// interleaved with the hand-built JSON batches.
struct Batch {
  std::vector<tracer::WireEvent> wire;
  std::vector<Json> docs;
};

std::vector<Batch> Corpus() {
  std::vector<Batch> out;
  const auto edges = EdgeBatches();
  const auto fluentbit = TaggedCorpus(trace::CorpusClass::kFluentBit, 360, 7);
  const auto rocksdb = TaggedCorpus(trace::CorpusClass::kRocksDb, 240, 11);
  const auto slice = [](const std::vector<tracer::WireEvent>& v,
                        std::size_t begin, std::size_t end) {
    return std::vector<tracer::WireEvent>(
        v.begin() + static_cast<std::ptrdiff_t>(begin),
        v.begin() + static_cast<std::ptrdiff_t>(std::min(end, v.size())));
  };
  out.push_back({slice(fluentbit, 0, 150), {}});
  out.push_back({{}, edges[0]});
  out.push_back({slice(fluentbit, 150, fluentbit.size()), {}});
  out.push_back({{}, edges[1]});
  out.push_back({slice(rocksdb, 0, rocksdb.size()), {}});
  out.push_back({{}, edges[2]});
  return out;
}

std::vector<Json> ToDocs(const std::vector<tracer::WireEvent>& wire) {
  std::vector<Json> docs;
  docs.reserve(wire.size());
  for (const tracer::WireEvent& e : wire) {
    docs.push_back(tracer::WireEventToJson(e, kSession));
  }
  return docs;
}

// ---- the observable result ------------------------------------------------------

// Correlation stats and table, the rendered report, and every finding with
// its evidence, as one string.
std::string Diagnose(QueryBackend* backend) {
  std::string out;
  FilePathCorrelator correlator(backend);
  auto stats = correlator.Run(kIndex);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  if (!stats.ok()) return out;
  out += "stats " + std::to_string(stats->tags_discovered) + "/" +
         std::to_string(stats->events_updated) + "/" +
         std::to_string(stats->events_resolved) + "/" +
         std::to_string(stats->events_unresolved) + "\n";
  for (const auto& [tag, path] : correlator.tag_to_path()) {
    out += "tag " + tag + " -> " + path + "\n";
  }
  auto findings = RunAllDetectors(backend, kIndex);
  EXPECT_TRUE(findings.ok()) << findings.status().ToString();
  if (!findings.ok()) return out;
  out += RenderFindings(*findings);
  for (const Finding& finding : *findings) {
    out += finding.detector + "|" + finding.severity + "|" +
           finding.file_path + "|" + finding.evidence.Dump() + "\n";
  }
  return out;
}

std::string ReferenceDiagnosis() {
  ReferenceBackend reference;
  for (const Batch& batch : Corpus()) {
    if (!batch.wire.empty()) reference.BulkWire(kIndex, kSession, batch.wire);
    if (!batch.docs.empty()) reference.Bulk(kIndex, batch.docs);
    reference.Refresh(kIndex);
  }
  return Diagnose(&reference);
}

TEST(DetectorParityReferenceTest, CorpusExercisesEveryCase) {
  const std::string want = ReferenceDiagnosis();
  // The empty-path open does not hide the later one.
  EXPECT_NE(want.find("tag edge|1 -> /edge/one.log"), std::string::npos);
  // Numeric and empty tags collapse into one generation: its first read
  // (the empty tag's, at offset 0) hides the numeric tags' later reads.
  EXPECT_EQ(want.find("\"file_tag\":\"\""), std::string::npos) << want;
  // The tied first reads come out in docid order, and the read without
  // time_enter comes last of the stale-offset findings.
  const std::size_t tie_b = want.find("\"file_tag\":\"tie|b\"");
  const std::size_t tie_a = want.find("\"file_tag\":\"tie|a\"");
  const std::size_t notime = want.find("\"file_tag\":\"notime|1\"");
  ASSERT_NE(tie_b, std::string::npos) << want;
  ASSERT_NE(tie_a, std::string::npos) << want;
  ASSERT_NE(notime, std::string::npos) << want;
  EXPECT_LT(tie_b, tie_a);
  EXPECT_LT(tie_a, notime);
  std::size_t previous = 0;
  for (int i = 3; i >= 0; --i) {
    const std::size_t at =
        want.find("\"file_tag\":\"tie|z" + std::to_string(i) + "\"");
    ASSERT_NE(at, std::string::npos) << want;
    EXPECT_LT(previous, at) << "tie|z" << i;
    previous = at;
  }
  EXPECT_LT(previous, notime);
  EXPECT_NE(want.find("\"file_tag\":\"notime|2\",\"offset\":7"),
            std::string::npos)
      << want;
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(want.find("\"file_tag\":\"tie|x" + std::to_string(i) + "\""),
              std::string::npos)
        << want;
  }
  EXPECT_NE(want.find("[critical] stale-offset"), std::string::npos);
}

// ---- ElasticStore ---------------------------------------------------------------

// A segment size of 0 stands for one never-sealed tail (SIZE_MAX).
using StoreParams = std::tuple<std::size_t /*shards*/,
                               std::size_t /*segment_docs*/, bool /*wire*/>;

class DetectorParityStoreTest : public ::testing::TestWithParam<StoreParams> {
};

TEST_P(DetectorParityStoreTest, MatchesReference) {
  const auto [shards, segment_docs, wire] = GetParam();
  ElasticStoreOptions opts;
  opts.shards_per_index = shards;
  opts.segment_docs =
      segment_docs == 0 ? std::numeric_limits<std::size_t>::max()
                        : segment_docs;
  ElasticStore store(opts);
  for (const Batch& batch : Corpus()) {
    if (!batch.wire.empty()) {
      if (wire) {
        store.BulkWire(kIndex, kSession, batch.wire);
      } else {
        store.Bulk(kIndex, ToDocs(batch.wire));
      }
    }
    if (!batch.docs.empty()) store.Bulk(kIndex, batch.docs);
    store.Refresh(kIndex);
  }
  EXPECT_EQ(Diagnose(&store), ReferenceDiagnosis());
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, DetectorParityStoreTest,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{4}),
                       ::testing::Values(std::size_t{4}, std::size_t{0}),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<StoreParams>& info) {
      return "shards" + std::to_string(std::get<0>(info.param)) + "_seg" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_wire" : "_json");
    });

// ---- ClusterRouter --------------------------------------------------------------

class DetectorParityRouterTest
    : public ::testing::TestWithParam<cluster::QueryFanout> {};

TEST_P(DetectorParityRouterTest, MatchesReference) {
  cluster::ClusterOptions opts;
  opts.nodes = 3;
  opts.replicas = 1;
  opts.ack = cluster::AckLevel::kQuorum;
  opts.query_threads = 2;
  opts.query_fanout = GetParam();
  cluster::ClusterRouter router(opts);
  for (const Batch& batch : Corpus()) {
    transport::EventBatch ingest;
    ingest.session = kSession;
    ingest.wire = batch.wire;
    ingest.documents = batch.docs;
    ASSERT_TRUE(router.Ingest(kIndex, std::move(ingest)).ok());
  }
  ASSERT_TRUE(router.Settle().ok());
  router.Refresh(kIndex);
  EXPECT_EQ(Diagnose(&router), ReferenceDiagnosis());
}

INSTANTIATE_TEST_SUITE_P(
    Fanout, DetectorParityRouterTest,
    ::testing::Values(cluster::QueryFanout::kParallel,
                      cluster::QueryFanout::kSerial),
    [](const ::testing::TestParamInfo<cluster::QueryFanout>& info) {
      return info.param == cluster::QueryFanout::kParallel ? "parallel"
                                                           : "serial";
    });

}  // namespace
}  // namespace dio::backend
