// ClusterRouter unit tests: ack levels (including rejection with no state
// change and exactly-once re-drive), primary-crash failover replay, crash /
// restart convergence, partitions, and scatter/gather golden parity — every
// query answered by the cluster must be byte-identical to a single
// ElasticStore fed the same event stream.
#include "cluster/router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "backend/store.h"
#include "cluster/cluster_sink.h"
#include "common/config.h"
#include "common/random.h"

namespace dio::cluster {
namespace {

using backend::Aggregation;
using backend::ElasticStore;
using backend::Query;
using backend::SearchRequest;

Json Doc(int tid, std::int64_t ts, const std::string& syscall,
         std::int64_t ret) {
  Json doc = Json::MakeObject();
  doc.Set("syscall", syscall);
  doc.Set("tid", tid);
  doc.Set("time_enter", ts);
  doc.Set("ret", ret);
  return doc;
}

// A deterministic mixed corpus, chunked into transport batches.
std::vector<std::vector<Json>> Corpus(int batches, int per_batch,
                                      std::uint64_t seed = 11) {
  Random rng(seed);
  const char* syscalls[] = {"read", "write", "openat", "fsync"};
  std::vector<std::vector<Json>> out;
  std::int64_t ts = 1000;
  for (int b = 0; b < batches; ++b) {
    std::vector<Json> docs;
    for (int i = 0; i < per_batch; ++i) {
      docs.push_back(Doc(static_cast<int>(100 + rng.Uniform(8)), ts++,
                         syscalls[rng.Uniform(4)],
                         static_cast<std::int64_t>(rng.Uniform(4096))));
    }
    out.push_back(std::move(docs));
  }
  return out;
}

transport::EventBatch MakeBatch(std::vector<Json> docs) {
  transport::EventBatch batch;
  batch.documents = std::move(docs);
  return batch;
}

Status IngestAll(ClusterRouter& router, const std::string& index,
                 const std::vector<std::vector<Json>>& corpus) {
  for (const auto& docs : corpus) {
    auto status = router.Ingest(index, MakeBatch(docs));
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

std::string DumpHits(const backend::SearchResult& result) {
  std::ostringstream out;
  out << "total=" << result.total << "\n";
  for (const auto& hit : result.hits) {
    out << hit.id << "|" << hit.source.Dump() << "\n";
  }
  return out.str();
}

std::string DumpAgg(const backend::AggResult& result) {
  std::ostringstream out;
  out << "metrics=" << result.metrics.Dump() << "\n";
  for (const auto& bucket : result.buckets) {
    out << bucket.key.Dump() << ":" << bucket.doc_count << "{";
    for (const auto& [name, sub] : bucket.sub) {
      out << name << "=" << DumpAgg(sub) << ";";
    }
    out << "}\n";
  }
  return out.str();
}

// Runs the full query mix against both backends and requires byte parity.
void ExpectGoldenParity(backend::QueryBackend& cluster,
                        backend::QueryBackend& oracle,
                        const std::string& index) {
  std::vector<SearchRequest> requests;
  SearchRequest all;
  all.query = Query::MatchAll();
  all.size = 100000;
  requests.push_back(all);
  SearchRequest term;
  term.query = Query::Term("syscall", Json("read"));
  term.size = 100000;
  requests.push_back(term);
  SearchRequest sorted;
  sorted.query = Query::Range("ret", 0, 2048);
  sorted.sort = {{"ret", false}, {"time_enter", true}};
  sorted.from = 3;
  sorted.size = 50;
  requests.push_back(sorted);

  for (std::size_t i = 0; i < requests.size(); ++i) {
    auto got = cluster.Search(index, requests[i]);
    auto want = oracle.Search(index, requests[i]);
    ASSERT_TRUE(got.ok()) << got.status().message();
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(DumpHits(*got), DumpHits(*want)) << "request " << i;
  }

  for (const auto& query :
       {Query::MatchAll(), Query::Term("syscall", Json("write")),
        Query::Range("time_enter", 1100, 1400)}) {
    auto got = cluster.Count(index, query);
    auto want = oracle.Count(index, query);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(*got, *want);
  }

  const auto agg =
      Aggregation::Terms("syscall").SubAgg(
          "lat", Aggregation::Stats("ret"));
  auto got_agg = cluster.Aggregate(index, Query::MatchAll(), agg);
  auto want_agg = oracle.Aggregate(index, Query::MatchAll(), agg);
  ASSERT_TRUE(got_agg.ok());
  ASSERT_TRUE(want_agg.ok());
  EXPECT_EQ(DumpAgg(*got_agg), DumpAgg(*want_agg));

  auto got_pct = cluster.Aggregate(
      index, Query::Term("syscall", Json("read")),
      Aggregation::Percentiles("ret", {50, 95, 99}));
  auto want_pct = oracle.Aggregate(
      index, Query::Term("syscall", Json("read")),
      Aggregation::Percentiles("ret", {50, 95, 99}));
  ASSERT_TRUE(got_pct.ok());
  ASSERT_TRUE(want_pct.ok());
  EXPECT_EQ(DumpAgg(*got_pct), DumpAgg(*want_pct));
}

ClusterOptions Opts(std::size_t nodes, std::size_t replicas, AckLevel ack) {
  ClusterOptions opts;
  opts.nodes = nodes;
  opts.replicas = replicas;
  opts.ack = ack;
  return opts;
}

TEST(AckLevelTest, RoundTrip) {
  for (auto level : {AckLevel::kPrimary, AckLevel::kQuorum, AckLevel::kAll}) {
    auto parsed = AckLevelFromString(ToString(level));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(AckLevelFromString("paranoid").ok());
}

TEST(ClusterOptionsTest, FromConfigParsesAndRejectsOutOfRange) {
  auto config = Config::ParseString(
      "[cluster]\nnodes = 5\nreplicas = 2\nack = all\nlogical_shards = 8\n");
  ASSERT_TRUE(config.ok());
  auto opts = ClusterOptions::FromConfig(*config);
  ASSERT_TRUE(opts.ok());
  EXPECT_EQ(opts->nodes, 5u);
  EXPECT_EQ(opts->replicas, 2u);
  EXPECT_EQ(opts->ack, AckLevel::kAll);
  EXPECT_EQ(opts->logical_shards, 8u);

  auto bad_ack = Config::ParseString("[cluster]\nack = eventually\n");
  ASSERT_TRUE(bad_ack.ok());
  EXPECT_FALSE(ClusterOptions::FromConfig(*bad_ack).ok());

  // The lowest value each count accepts.
  auto lowest = Config::ParseString(
      "[cluster]\nnodes = 1\nreplicas = 0\nlogical_shards = 1\n"
      "query_threads = 0\nlog_retain_batches = 0\n");
  ASSERT_TRUE(lowest.ok());
  auto safe = ClusterOptions::FromConfig(*lowest);
  ASSERT_TRUE(safe.ok());
  EXPECT_EQ(safe->nodes, 1u);
  EXPECT_EQ(safe->replicas, 0u);
  EXPECT_EQ(safe->logical_shards, 1u);
  EXPECT_EQ(safe->query_threads, 0u);
  EXPECT_EQ(safe->log_retain_batches, 0u);
}

// A count below its minimum is an error naming the key, not a silent clamp.
TEST(ClusterOptionsTest, FromConfigRejectsOutOfRangeCounts) {
  for (const char* line :
       {"nodes = 0", "replicas = -3", "logical_shards = 0",
        "query_threads = -1", "log_retain_batches = -2"}) {
    auto config = Config::ParseString(std::string("[cluster]\n") + line + "\n");
    ASSERT_TRUE(config.ok()) << line;
    auto opts = ClusterOptions::FromConfig(*config);
    ASSERT_FALSE(opts.ok()) << line;
    const std::string key =
        "cluster." + std::string(line).substr(0, std::string(line).find(' '));
    EXPECT_NE(opts.status().message().find(key), std::string::npos)
        << opts.status().message();
  }
}

// Satellite: unknown [cluster] keys are reported, mirroring transport.* and
// backend.* typo guards.
TEST(ClusterOptionsTest, UnknownKeysAreReported) {
  auto config = Config::ParseString(
      "[cluster]\nnodes = 3\nreplcias = 2\n");
  ASSERT_TRUE(config.ok());
  const auto unknown = WarnUnknownKeys(
      *config, "cluster", {"nodes", "replicas", "ack", "logical_shards"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "cluster.replcias");
  // The typo falls back to the default, loudly.
  auto opts = ClusterOptions::FromConfig(*config);
  ASSERT_TRUE(opts.ok());
  EXPECT_EQ(opts->replicas, 1u);
}

TEST(ClusterRouterTest, ScatterGatherMatchesSingleStore) {
  ClusterRouter router(Opts(4, 1, AckLevel::kQuorum));
  ElasticStore oracle;
  const auto corpus = Corpus(12, 33);
  ASSERT_TRUE(IngestAll(router, "events", corpus).ok());
  for (const auto& docs : corpus) oracle.Bulk("events", docs);

  ASSERT_TRUE(router.Settle().ok());
  router.Refresh("events");
  oracle.Refresh("events");

  EXPECT_TRUE(router.HasIndex("events"));
  EXPECT_FALSE(router.HasIndex("nope"));
  ExpectGoldenParity(router, oracle, "events");

  // Stats reports the logical (one copy per shard) view, matching what a
  // single store holding the same stream would report.
  auto stats = router.Stats("events");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->doc_count, 12u * 33u);
  EXPECT_EQ(stats->bulk_requests, 12u);
  EXPECT_EQ(router.VerifyConvergence("events"), std::vector<std::string>{});
}

TEST(ClusterRouterTest, AckPrimaryDefersReplication) {
  ClusterRouter router(Opts(3, 1, AckLevel::kPrimary));
  ASSERT_TRUE(IngestAll(router, "events", Corpus(6, 20)).ok());
  // Only primaries were written synchronously; each entry still owes its
  // replica an application.
  const std::size_t backlog = router.PendingApplies();
  EXPECT_GT(backlog, 0u);
  EXPECT_GT(router.sync_applies(), 0u);
  EXPECT_EQ(router.async_applies(), 0u);

  const std::size_t pumped = router.PumpReplication(3);
  EXPECT_EQ(pumped, 3u);
  ASSERT_TRUE(router.Settle().ok());
  EXPECT_EQ(router.PendingApplies(), 0u);
  EXPECT_EQ(router.async_applies(), backlog);
  router.Refresh("events");
  EXPECT_EQ(router.VerifyConvergence("events"), std::vector<std::string>{});
}

TEST(ClusterRouterTest, AckAllAppliesSynchronously) {
  ClusterRouter router(Opts(3, 2, AckLevel::kAll));
  ASSERT_TRUE(IngestAll(router, "events", Corpus(4, 10)).ok());
  EXPECT_EQ(router.PendingApplies(), 0u);
  EXPECT_EQ(router.async_applies(), 0u);
  router.Refresh("events");
  EXPECT_EQ(router.VerifyConvergence("events"), std::vector<std::string>{});
}

TEST(ClusterRouterTest, DuplicateRedriveAcksWithoutReapplying) {
  ClusterRouter router(Opts(3, 1, AckLevel::kQuorum));
  const auto corpus = Corpus(1, 25);
  ASSERT_TRUE(router.Ingest("events", MakeBatch(corpus[0])).ok());
  // The retry transport re-drives the identical batch after a lost ack.
  ASSERT_TRUE(router.Ingest("events", MakeBatch(corpus[0])).ok());
  EXPECT_EQ(router.duplicate_batches(), 1u);
  EXPECT_EQ(router.acked_batches(), 1u);
  ASSERT_TRUE(router.Settle().ok());
  router.Refresh("events");
  auto count = router.Count("events", Query::MatchAll());
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 25u);
}

TEST(ClusterRouterTest, UnsatisfiableAckRejectsWithNoStateChange) {
  ClusterRouter router(Opts(2, 1, AckLevel::kAll));
  const auto corpus = Corpus(1, 30);
  ASSERT_TRUE(router.SetReachable(1, false).ok());
  auto status = router.Ingest("events", MakeBatch(corpus[0]));
  EXPECT_EQ(status.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(router.rejected_batches(), 1u);
  EXPECT_EQ(router.rejected_events(), 30u);
  EXPECT_EQ(router.acked_batches(), 0u);
  EXPECT_FALSE(router.HasIndex("events"));
  EXPECT_EQ(router.PendingApplies(), 0u);

  // Heal, re-drive the same batch: accepted once, not a duplicate.
  ASSERT_TRUE(router.SetReachable(1, true).ok());
  ASSERT_TRUE(router.Ingest("events", MakeBatch(corpus[0])).ok());
  EXPECT_EQ(router.duplicate_batches(), 0u);
  ASSERT_TRUE(router.Settle().ok());
  router.Refresh("events");
  EXPECT_EQ(*router.Count("events", Query::MatchAll()), 30u);
  EXPECT_EQ(router.VerifyConvergence("events"), std::vector<std::string>{});
}

TEST(ClusterRouterTest, PartitionBlocksSettleUntilHealed) {
  ClusterRouter router(Opts(3, 1, AckLevel::kPrimary));
  ASSERT_TRUE(IngestAll(router, "events", Corpus(5, 16)).ok());
  ASSERT_TRUE(router.SetReachable(2, false).ok());
  if (router.PendingApplies() > 0) {
    // Some backlog targets the partitioned node; Settle must refuse to
    // declare quiescence while it cannot reach it.
    EXPECT_FALSE(router.Settle().ok());
  }
  ASSERT_TRUE(router.SetReachable(2, true).ok());
  ASSERT_TRUE(router.Settle().ok());
  EXPECT_EQ(router.PendingApplies(), 0u);
  router.Refresh("events");
  EXPECT_EQ(router.VerifyConvergence("events"), std::vector<std::string>{});
}

// The core failover property: with ack=primary, batches applied only on a
// primary survive its crash via the replication log and replay to the
// promoted replica exactly once. The surviving cluster answers queries
// byte-identically to a single store that saw the same stream.
TEST(ClusterRouterTest, PrimaryCrashReplaysToPromotedReplicaExactlyOnce) {
  ClusterRouter router(Opts(3, 1, AckLevel::kPrimary));
  ElasticStore oracle;
  const auto corpus = Corpus(10, 24, /*seed=*/23);
  ASSERT_TRUE(IngestAll(router, "events", corpus).ok());
  for (const auto& docs : corpus) oracle.Bulk("events", docs);

  // Crash each node in turn against fresh pending backlog: every shard has
  // one replica, so any single-node crash must be lossless.
  for (std::size_t victim = 0; victim < 3; ++victim) {
    ASSERT_TRUE(router.CrashNode(victim).ok());
    EXPECT_FALSE(router.node(victim).up());
    ASSERT_TRUE(router.Settle().ok());
    router.Refresh("events");
    EXPECT_EQ(router.VerifyConvergence("events"),
              std::vector<std::string>{});
    auto count = router.Count("events", Query::MatchAll());
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, 10u * 24u) << "after crashing node " << victim;
    ASSERT_TRUE(router.RestartNode(victim).ok());
    ASSERT_TRUE(router.Settle().ok());
  }

  router.Refresh("events");
  oracle.Refresh("events");
  ExpectGoldenParity(router, oracle, "events");
  EXPECT_EQ(router.VerifyConvergence("events"), std::vector<std::string>{});
}

TEST(ClusterRouterTest, CrashDuringIngestStreamStaysExactlyOnce) {
  ClusterRouter router(Opts(4, 1, AckLevel::kQuorum));
  ElasticStore oracle;
  const auto corpus = Corpus(16, 15, /*seed=*/5);
  for (std::size_t b = 0; b < corpus.size(); ++b) {
    auto status = router.Ingest("events", MakeBatch(corpus[b]));
    if (!status.ok()) {
      // Quorum unsatisfiable mid-crash: retry the same batch after the
      // cluster heals, exactly like the retry transport would.
      ASSERT_EQ(status.code(), ErrorCode::kUnavailable);
      router.HealAll();
      ASSERT_TRUE(router.Ingest("events", MakeBatch(corpus[b])).ok());
    }
    oracle.Bulk("events", corpus[b]);
    if (b == 4) {
      ASSERT_TRUE(router.CrashNode(1).ok());
    }
    if (b == 9) {
      ASSERT_TRUE(router.CrashNode(3).ok());
    }
    if (b == 12) {
      ASSERT_TRUE(router.RestartNode(1).ok());
    }
  }
  router.HealAll();
  ASSERT_TRUE(router.Settle().ok());
  router.Refresh("events");
  oracle.Refresh("events");
  ExpectGoldenParity(router, oracle, "events");
  EXPECT_EQ(router.VerifyConvergence("events"), std::vector<std::string>{});
}

TEST(ClusterRouterTest, NodeJoinCatchesUpFromLog) {
  ClusterRouter router(Opts(3, 1, AckLevel::kQuorum));
  ElasticStore oracle;
  const auto corpus = Corpus(8, 21, /*seed=*/31);
  ASSERT_TRUE(IngestAll(router, "events", corpus).ok());
  for (const auto& docs : corpus) oracle.Bulk("events", docs);

  const std::size_t joined = router.AddNode();
  EXPECT_EQ(joined, 3u);
  EXPECT_EQ(router.node_count(), 4u);
  // The joiner owns shards it has never seen; Settle replays their logs.
  ASSERT_TRUE(router.Settle().ok());
  router.Refresh("events");
  oracle.Refresh("events");
  ExpectGoldenParity(router, oracle, "events");
  EXPECT_EQ(router.VerifyConvergence("events"), std::vector<std::string>{});
}

TEST(ClusterRouterTest, UpdateByQueryIsAnIndexWideBarrier) {
  ClusterRouter router(Opts(3, 1, AckLevel::kPrimary));
  ElasticStore oracle;
  const auto corpus = Corpus(6, 18, /*seed=*/47);
  ASSERT_TRUE(IngestAll(router, "events", corpus).ok());
  for (const auto& docs : corpus) oracle.Bulk("events", docs);
  // The cluster's update barrier refreshes each shard before updating;
  // refresh the oracle too so both update the same visible set.
  oracle.Refresh("events");

  const auto tag = [](Json& doc) {
    doc.Set("slow", true);
    return true;
  };
  // An unreachable owner blocks the barrier entirely (no partial updates).
  ASSERT_TRUE(router.SetReachable(0, false).ok());
  auto blocked =
      router.UpdateByQuery("events", Query::Range("ret", 1024, 4096), tag);
  EXPECT_EQ(blocked.status().code(), ErrorCode::kUnavailable);
  ASSERT_TRUE(router.SetReachable(0, true).ok());

  auto got = router.UpdateByQuery("events", Query::Range("ret", 1024, 4096),
                                  tag);
  auto want = oracle.UpdateByQuery("events", Query::Range("ret", 1024, 4096),
                                   tag);
  ASSERT_TRUE(got.ok()) << got.status().message();
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(*got, *want);
  ASSERT_TRUE(router.Settle().ok());
  router.Refresh("events");
  oracle.Refresh("events");
  ExpectGoldenParity(router, oracle, "events");
  EXPECT_EQ(router.VerifyConvergence("events"), std::vector<std::string>{});
}

TEST(ClusterRouterTest, WireEventBatchesRouteAndReplicate) {
  ClusterRouter router(Opts(3, 1, AckLevel::kQuorum));
  transport::EventBatch batch;
  batch.session = "s1";
  for (int i = 0; i < 40; ++i) {
    tracer::Event event;
    event.nr = i % 2 == 0 ? os::SyscallNr::kRead : os::SyscallNr::kWrite;
    event.pid = 7;
    event.tid = 100 + i % 5;
    event.time_enter = 5000 + i;
    event.time_exit = 5000 + i + 3;
    event.ret = 64;
    batch.events.push_back(event);
  }
  ASSERT_TRUE(router.Ingest("wire", std::move(batch)).ok());
  ASSERT_TRUE(router.Settle().ok());
  router.Refresh("wire");
  auto count = router.Count("wire", Query::MatchAll());
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 40u);
  EXPECT_EQ(router.VerifyConvergence("wire"), std::vector<std::string>{});
}

// Tentpole: the pooled parallel scatter must be byte-identical to the
// serial oracle route over the same cluster — same hits, ids, sorted pages,
// counts, and aggregations.
TEST(ClusterRouterTest, ParallelFanoutMatchesSerialByteForByte) {
  ClusterOptions opts = Opts(4, 1, AckLevel::kQuorum);
  opts.query_threads = 4;
  opts.query_fanout = QueryFanout::kParallel;
  ClusterRouter router(opts);
  ElasticStore oracle;
  const auto corpus = Corpus(12, 30, /*seed=*/71);
  ASSERT_TRUE(IngestAll(router, "events", corpus).ok());
  for (const auto& docs : corpus) oracle.Bulk("events", docs);
  ASSERT_TRUE(router.Settle().ok());
  router.Refresh("events");
  oracle.Refresh("events");

  SearchRequest sorted;
  sorted.query = Query::Range("ret", 0, 3000);
  sorted.sort = {{"ret", false}, {"time_enter", true}};
  sorted.from = 5;
  sorted.size = 64;

  router.SetQueryFanout(QueryFanout::kSerial);
  auto serial_hits = router.Search("events", sorted);
  auto serial_count = router.Count("events", Query::Term("syscall",
                                                         Json("read")));
  auto serial_agg = router.Aggregate(
      "events", Query::MatchAll(),
      Aggregation::Terms("syscall").SubAgg("lat", Aggregation::Stats("ret")));
  ASSERT_TRUE(serial_hits.ok());
  ASSERT_TRUE(serial_count.ok());
  ASSERT_TRUE(serial_agg.ok());
  EXPECT_EQ(router.fanout_queries(), 0u);  // serial route bypasses the pool

  router.SetQueryFanout(QueryFanout::kParallel);
  auto parallel_hits = router.Search("events", sorted);
  auto parallel_count = router.Count("events", Query::Term("syscall",
                                                           Json("read")));
  auto parallel_agg = router.Aggregate(
      "events", Query::MatchAll(),
      Aggregation::Terms("syscall").SubAgg("lat", Aggregation::Stats("ret")));
  ASSERT_TRUE(parallel_hits.ok());
  ASSERT_TRUE(parallel_count.ok());
  ASSERT_TRUE(parallel_agg.ok());

  EXPECT_EQ(DumpHits(*parallel_hits), DumpHits(*serial_hits));
  EXPECT_EQ(*parallel_count, *serial_count);
  EXPECT_EQ(DumpAgg(*parallel_agg), DumpAgg(*serial_agg));
  EXPECT_GT(router.fanout_queries(), 0u);
  EXPECT_GT(router.fanout_shard_tasks(), router.fanout_queries());

  // And both routes match the single-store oracle.
  ExpectGoldenParity(router, oracle, "events");
  auto stats = router.Stats("events");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->fanout_queries, router.fanout_queries());
}

TEST(ClusterRouterTest, PushdownPaginationMatchesOracleAtTheEdges) {
  // The parallel plan truncates each shard to its own top `from+size`; these
  // pages sit at the boundaries where a wrong truncation would show: deep
  // pages, pages past the end, empty pages, and unsorted (gseq-order) paging
  // where `total` must still count every match, not just gathered hits.
  ClusterOptions opts = Opts(3, 1, AckLevel::kQuorum);
  opts.query_threads = 3;
  opts.query_fanout = QueryFanout::kParallel;
  ClusterRouter router(opts);
  ElasticStore oracle;
  const auto corpus = Corpus(10, 40, /*seed=*/29);
  ASSERT_TRUE(IngestAll(router, "events", corpus).ok());
  for (const auto& docs : corpus) oracle.Bulk("events", docs);
  ASSERT_TRUE(router.Settle().ok());
  router.Refresh("events");
  oracle.Refresh("events");

  std::vector<SearchRequest> pages;
  SearchRequest deep;  // sorted page deeper than any one shard's match count
  deep.query = Query::MatchAll();
  deep.sort = {{"time_enter", true}};
  deep.from = 350;
  deep.size = 40;
  pages.push_back(deep);
  SearchRequest past_end;  // from beyond total: empty hits, full total
  past_end.query = Query::Range("ret", 0, 3000);
  past_end.sort = {{"ret", true}};
  past_end.from = 100'000;
  past_end.size = 10;
  pages.push_back(past_end);
  SearchRequest zero;  // size=0: count-only page
  zero.query = Query::Term("syscall", Json("write"));
  zero.sort = {{"ret", false}};
  zero.size = 0;
  pages.push_back(zero);
  SearchRequest unsorted;  // gseq-order paging
  unsorted.query = Query::Range("ret", 100, 2600);
  unsorted.from = 17;
  unsorted.size = 23;
  pages.push_back(unsorted);

  for (std::size_t i = 0; i < pages.size(); ++i) {
    auto oracle_hits = oracle.Search("events", pages[i]);
    ASSERT_TRUE(oracle_hits.ok()) << "page " << i;
    router.SetQueryFanout(QueryFanout::kSerial);
    auto serial_hits = router.Search("events", pages[i]);
    ASSERT_TRUE(serial_hits.ok()) << "page " << i;
    router.SetQueryFanout(QueryFanout::kParallel);
    auto parallel_hits = router.Search("events", pages[i]);
    ASSERT_TRUE(parallel_hits.ok()) << "page " << i;
    EXPECT_EQ(DumpHits(*parallel_hits), DumpHits(*serial_hits)) << "page " << i;
    EXPECT_EQ(parallel_hits->total, oracle_hits->total) << "page " << i;
  }

  // Percentiles fold per-shard sorted value runs; the merged array must be
  // exactly the oracle's globally sorted one.
  const auto pcts = Aggregation::Percentiles("ret", {1, 50, 95, 99.9});
  auto oracle_pcts = oracle.Aggregate("events", Query::MatchAll(), pcts);
  router.SetQueryFanout(QueryFanout::kSerial);
  auto serial_pcts = router.Aggregate("events", Query::MatchAll(), pcts);
  router.SetQueryFanout(QueryFanout::kParallel);
  auto parallel_pcts = router.Aggregate("events", Query::MatchAll(), pcts);
  ASSERT_TRUE(oracle_pcts.ok() && serial_pcts.ok() && parallel_pcts.ok());
  EXPECT_EQ(DumpAgg(*parallel_pcts), DumpAgg(*serial_pcts));
  EXPECT_EQ(DumpAgg(*parallel_pcts), DumpAgg(*oracle_pcts));
}

TEST(ClusterOptionsTest, FromConfigParsesFanoutAndLogKnobs) {
  auto config = Config::ParseString(
      "[cluster]\nnodes = 3\nquery_fanout = serial\nquery_threads = 2\n"
      "log_retain_batches = 7\n");
  ASSERT_TRUE(config.ok());
  auto opts = ClusterOptions::FromConfig(*config);
  ASSERT_TRUE(opts.ok());
  EXPECT_EQ(opts->query_fanout, QueryFanout::kSerial);
  EXPECT_EQ(opts->query_threads, 2u);
  EXPECT_EQ(opts->log_retain_batches, 7u);

  auto bad = Config::ParseString("[cluster]\nquery_fanout = warp\n");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(ClusterOptions::FromConfig(*bad).ok());

  for (auto fanout : {QueryFanout::kSerial, QueryFanout::kParallel}) {
    auto parsed = QueryFanoutFromString(ToString(fanout));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, fanout);
  }
}

// Tentpole: the replication log is O(lag), not O(history) — once every live
// owner has applied an entry (and it is past the retain cushion), compaction
// reclaims it, and the ledger conserves exactly.
TEST(ClusterRouterTest, CompactionBoundsRetainedLog) {
  ClusterOptions opts = Opts(3, 1, AckLevel::kAll);
  opts.log_retain_batches = 2;
  ClusterRouter router(opts);
  ElasticStore oracle;
  const auto corpus = Corpus(14, 25, /*seed=*/83);
  ASSERT_TRUE(IngestAll(router, "events", corpus).ok());
  for (const auto& docs : corpus) oracle.Bulk("events", docs);

  // ack=all applies synchronously on every owner, so the ingest path's own
  // compaction already reclaims everything but the cushion.
  EXPECT_GT(router.log_appended_entries(), 0u);
  EXPECT_GT(router.log_compacted_entries(), 0u);
  EXPECT_EQ(router.log_appended_entries(),
            router.log_compacted_entries() + router.log_retained_entries());
  // Retention is bounded by the per-shard cushion, not history.
  EXPECT_LE(router.log_retained_entries(),
            2u * router.shard_map().logical_shards());
  EXPECT_GT(router.log_compacted_bytes(), 0u);

  // The compacted cluster still answers byte-identically and accepts more.
  ASSERT_TRUE(router.Ingest("events", MakeBatch(Corpus(1, 10, 99)[0])).ok());
  oracle.Bulk("events", Corpus(1, 10, 99)[0]);
  ASSERT_TRUE(router.Settle().ok());
  router.Refresh("events");
  oracle.Refresh("events");
  ExpectGoldenParity(router, oracle, "events");
  EXPECT_EQ(router.VerifyConvergence("events"), std::vector<std::string>{});
}

// Tentpole: a node that rejoins below a compacted log prefix bootstraps
// from a peer snapshot plus the retained tail — replay work is bounded by
// lag, not history — and still converges byte-identically.
TEST(ClusterRouterTest, CompactedRejoinBootstrapsFromSnapshot) {
  ClusterOptions opts = Opts(3, 1, AckLevel::kQuorum);
  opts.log_retain_batches = 0;  // compact aggressively: rejoins must snapshot
  ClusterRouter router(opts);
  ElasticStore oracle;
  const auto corpus = Corpus(10, 22, /*seed=*/59);
  ASSERT_TRUE(IngestAll(router, "events", corpus).ok());
  for (const auto& docs : corpus) oracle.Bulk("events", docs);
  ASSERT_TRUE(router.Settle().ok());

  ASSERT_TRUE(router.CrashNode(1).ok());
  const auto more = Corpus(6, 22, /*seed=*/61);
  ASSERT_TRUE(IngestAll(router, "events", more).ok());
  for (const auto& docs : more) oracle.Bulk("events", docs);
  ASSERT_TRUE(router.Settle().ok());
  // The survivors are at the head; with retain=0 compaction reclaims the
  // full history node 1 would otherwise have to replay.
  (void)router.CompactLogs();
  EXPECT_EQ(router.log_retained_entries(), 0u);
  const std::uint64_t appended_before = router.log_appended_entries();
  const std::uint64_t async_before = router.async_applies();

  ASSERT_TRUE(router.RestartNode(1).ok());
  router.HealAll();  // snapshot-bootstraps the stranded rejoin
  ASSERT_TRUE(router.Settle().ok());

  EXPECT_GT(router.snapshot_catchups(), 0u);
  EXPECT_GT(router.snapshot_docs_copied(), 0u);
  // Bounded-replay: the rejoin replayed only the (empty) retained tail, not
  // the full history the log once held.
  EXPECT_LT(router.async_applies() - async_before, appended_before);

  router.Refresh("events");
  oracle.Refresh("events");
  ExpectGoldenParity(router, oracle, "events");
  EXPECT_EQ(router.VerifyConvergence("events"), std::vector<std::string>{});
}

// The `lag` fault: a throttled replica still serves sync acks and reads,
// but the async pump defers it — its backlog caps compaction (the log
// retains exactly the tail it still needs), so healing needs no snapshot.
TEST(ClusterRouterTest, ThrottledReplicaLagsAndLogRetainsItsTail) {
  ClusterOptions opts = Opts(3, 1, AckLevel::kPrimary);
  opts.log_retain_batches = 0;
  ClusterRouter router(opts);
  ASSERT_TRUE(router.SetThrottled(2, true).ok());
  ASSERT_TRUE(IngestAll(router, "events", Corpus(8, 20, /*seed=*/37)).ok());

  (void)router.PumpReplication(1000000);
  if (router.PendingApplies() > 0) {
    // The backlog behind the throttled node blocks quiescence...
    EXPECT_FALSE(router.Settle().ok());
    // ...and caps compaction: everything the throttled owner still needs is
    // retained, so healing will replay from the log, never snapshot.
    EXPECT_GT(router.log_retained_entries(), 0u);
  }

  ASSERT_TRUE(router.SetThrottled(2, false).ok());
  ASSERT_TRUE(router.Settle().ok());
  EXPECT_EQ(router.snapshot_catchups(), 0u);
  (void)router.CompactLogs();
  EXPECT_EQ(router.log_retained_entries(), 0u);
  router.Refresh("events");
  EXPECT_EQ(router.VerifyConvergence("events"), std::vector<std::string>{});
}

// Satellite fix: HealAll heals partitions and throttles, restarts crashed
// nodes in ascending id order (deterministic under the sim scheduler), and
// snapshot-bootstraps rejoins stranded below a compacted prefix.
TEST(ClusterRouterTest, HealAllIsDeterministicAndCatchesUp) {
  // replicas=2: every shard has 3 owners, so crashing two nodes always
  // leaves a survivor to snapshot from (replicas=1 would lose both copies
  // of the shards owned by exactly the crashed pair — unrecoverable by
  // design, and Settle would rightly refuse to quiesce).
  ClusterOptions opts = Opts(4, 2, AckLevel::kQuorum);
  opts.log_retain_batches = 0;
  ClusterRouter router(opts);
  ASSERT_TRUE(IngestAll(router, "events", Corpus(9, 18, /*seed=*/41)).ok());
  ASSERT_TRUE(router.Settle().ok());

  // Crash two nodes in descending order; HealAll must restart them in
  // ascending id order regardless.
  ASSERT_TRUE(router.CrashNode(3).ok());
  ASSERT_TRUE(router.CrashNode(1).ok());
  ASSERT_TRUE(IngestAll(router, "events", Corpus(4, 18, /*seed=*/43)).ok());
  ASSERT_TRUE(router.Settle().ok());
  (void)router.CompactLogs();
  ASSERT_TRUE(router.SetReachable(0, false).ok());
  ASSERT_TRUE(router.SetThrottled(2, true).ok());

  router.HealAll();
  for (std::size_t id = 0; id < 4; ++id) {
    EXPECT_TRUE(router.node(id).up()) << "node " << id;
    EXPECT_TRUE(router.node(id).reachable()) << "node " << id;
    EXPECT_FALSE(router.node(id).throttled()) << "node " << id;
  }
  // Rejoined nodes went through snapshot catch-up (their prefixes were
  // compacted), not a from-seq-0 replay.
  EXPECT_GT(router.snapshot_catchups(), 0u);
  const Status settle = router.Settle();
  ASSERT_TRUE(settle.ok()) << settle.message()
                           << " pending=" << router.PendingApplies();
  router.Refresh("events");
  EXPECT_EQ(router.VerifyConvergence("events"), std::vector<std::string>{});
}

// A brand-new node promoted into owner sets whose logs are already
// compacted must bootstrap via snapshot, exactly like a rejoin.
TEST(ClusterRouterTest, NodeJoinAfterCompactionBootstrapsFromSnapshot) {
  ClusterOptions opts = Opts(3, 1, AckLevel::kAll);
  opts.log_retain_batches = 0;
  ClusterRouter router(opts);
  ElasticStore oracle;
  const auto corpus = Corpus(10, 20, /*seed=*/53);
  ASSERT_TRUE(IngestAll(router, "events", corpus).ok());
  for (const auto& docs : corpus) oracle.Bulk("events", docs);
  ASSERT_TRUE(router.Settle().ok());
  (void)router.CompactLogs();
  EXPECT_EQ(router.log_retained_entries(), 0u);

  const std::size_t joined = router.AddNode();
  EXPECT_EQ(joined, 3u);
  ASSERT_TRUE(router.Settle().ok());
  EXPECT_GT(router.snapshot_catchups(), 0u);
  router.Refresh("events");
  oracle.Refresh("events");
  ExpectGoldenParity(router, oracle, "events");
  EXPECT_EQ(router.VerifyConvergence("events"), std::vector<std::string>{});
}

TEST(ClusterBulkSinkTest, SubmitsAndReportsLedgerStats) {
  ClusterRouter router(Opts(2, 1, AckLevel::kAll));
  ManualClock clock;
  ClusterBulkSink sink(&router, "events", 100 * kMicrosecond, &clock);
  const auto corpus = Corpus(3, 12, /*seed=*/3);

  sink.IndexBatch(corpus[0]);
  ASSERT_TRUE(router.SetReachable(1, false).ok());
  EXPECT_FALSE(sink.Submit(MakeBatch(corpus[1])).ok());
  ASSERT_TRUE(router.SetReachable(1, true).ok());
  EXPECT_TRUE(sink.Submit(MakeBatch(corpus[1])).ok());
  sink.Flush();

  EXPECT_EQ(sink.rejected_batches(), 1u);
  EXPECT_EQ(sink.rejected_events(), 12u);
  std::vector<transport::StageStats> stages;
  sink.CollectStats(&stages);
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_EQ(stages[0].stage, "cluster");
  EXPECT_EQ(stages[0].batches_in, 3u);
  EXPECT_EQ(stages[0].batches_out, 2u);
  EXPECT_EQ(stages[0].events_in - stages[0].events_out,
            sink.rejected_events());
  EXPECT_EQ(*router.Count("events", Query::MatchAll()), 24u);
}

}  // namespace
}  // namespace dio::cluster
