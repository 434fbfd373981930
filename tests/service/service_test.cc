#include "service/dio_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>

#include "test_util.h"
#include "trace/load.h"

namespace dio::service {
namespace {

using dio::testing::TestEnv;

class ServiceTest : public ::testing::Test {
 protected:
  tracer::TracerOptions Options(const std::string& name) {
    tracer::TracerOptions options;
    options.session_name = name;
    options.flush_interval_ns = kMillisecond;
    options.poll_interval_ns = 100 * kMicrosecond;
    return options;
  }

  backend::BulkClientOptions FastClient() {
    backend::BulkClientOptions options;
    options.network_latency_ns = 0;
    return options;
  }

  void DoIo(int writes = 5) {
    auto task = env_.Bind();
    const auto fd =
        static_cast<os::Fd>(env_.kernel.sys_creat("/data/s.log", 0644));
    for (int i = 0; i < writes; ++i) env_.kernel.sys_write(fd, "x");
    env_.kernel.sys_close(fd);
    env_.kernel.sys_unlink("/data/s.log");
  }

  TestEnv env_;
  backend::ElasticStore store_;
};

TEST_F(ServiceTest, SessionLifecycle) {
  DioService service(&env_.kernel, &store_);
  auto started = service.StartSession(Options("run-1"), "alice", FastClient());
  ASSERT_TRUE(started.ok());
  EXPECT_TRUE(started->active);
  EXPECT_EQ(started->owner, "alice");
  EXPECT_GT(started->started_at, 0);

  DoIo();
  ASSERT_TRUE(service.StopSession("run-1").ok());
  auto info = service.GetSession("run-1");
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info->active);
  EXPECT_GE(info->stopped_at, info->started_at);
  EXPECT_EQ(info->events_emitted, 8u);  // creat + 5 writes + close + unlink
  EXPECT_EQ(*store_.Count("run-1", backend::Query::MatchAll()), 8u);
}

TEST_F(ServiceTest, DuplicateNamesRejected) {
  DioService service(&env_.kernel, &store_);
  ASSERT_TRUE(service.StartSession(Options("dup"), "", FastClient()).ok());
  EXPECT_FALSE(service.StartSession(Options("dup"), "", FastClient()).ok());
  service.StopSession("dup");
  // Still rejected after stop: the backend index persists (post-mortem).
  EXPECT_FALSE(service.StartSession(Options("dup"), "", FastClient()).ok());
  EXPECT_FALSE(service.StartSession(Options(""), "", FastClient()).ok());
}

TEST_F(ServiceTest, ConcurrentSessionsFromDistinctUsers) {
  DioService service(&env_.kernel, &store_);
  ASSERT_TRUE(service.StartSession(Options("alice-run"), "alice",
                                   FastClient()).ok());
  ASSERT_TRUE(service.StartSession(Options("bob-run"), "bob",
                                   FastClient()).ok());
  DoIo(3);
  service.StopAll();
  auto sessions = service.ListSessions();
  ASSERT_EQ(sessions.size(), 2u);
  // Both sessions observed the same kernel activity (no per-session filters).
  for (const SessionInfo& info : sessions) {
    EXPECT_FALSE(info.active);
    EXPECT_EQ(info.events_emitted, 6u);
  }
}

TEST_F(ServiceTest, StopUnknownOrTwiceFails) {
  DioService service(&env_.kernel, &store_);
  EXPECT_FALSE(service.StopSession("ghost").ok());
  ASSERT_TRUE(service.StartSession(Options("once"), "", FastClient()).ok());
  ASSERT_TRUE(service.StopSession("once").ok());
  EXPECT_FALSE(service.StopSession("once").ok());
}

TEST_F(ServiceTest, CorrelateAndDiagnoseThroughService) {
  DioService service(&env_.kernel, &store_);
  ASSERT_TRUE(service.StartSession(Options("diag"), "", FastClient()).ok());
  {
    auto task = env_.Bind();
    const auto fd =
        static_cast<os::Fd>(env_.kernel.sys_creat("/data/d.log", 0644));
    for (int i = 0; i < 100; ++i) env_.kernel.sys_write(fd, "tiny");
    env_.kernel.sys_close(fd);
  }
  ASSERT_TRUE(service.StopSession("diag").ok());

  auto correlation = service.Correlate("diag");
  ASSERT_TRUE(correlation.ok());
  EXPECT_GT(correlation->events_updated, 0u);

  auto findings = service.Diagnose("diag");
  ASSERT_TRUE(findings.ok());
  bool small_io = false;
  for (const backend::Finding& finding : *findings) {
    if (finding.detector == "small-io") small_io = true;
  }
  EXPECT_TRUE(small_io);

  EXPECT_FALSE(service.Correlate("ghost").ok());
}

TEST_F(ServiceTest, SessionInfoJson) {
  SessionInfo info;
  info.name = "s";
  info.owner = "alice";
  info.active = true;
  info.events_emitted = 42;
  const Json j = info.ToJson();
  EXPECT_EQ(j.GetString("name"), "s");
  EXPECT_EQ(j.GetString("owner"), "alice");
  EXPECT_TRUE(j.GetBool("active"));
  EXPECT_EQ(j.GetInt("events_emitted"), 42);
}

// --- Transport pipeline acceptance -------------------------------------
// A config-only change switches a session between BulkClient-only,
// bulk+spool fan-out, and a retry-wrapped bulk client surviving injected
// faults — same tracer, same store, no code changes.

// All of a session's documents, dumped with the session label removed so
// two sessions over the same kernel activity can be compared for identity.
std::vector<std::string> NormalizedDocs(backend::ElasticStore& store,
                                        const std::string& index) {
  backend::SearchRequest request;
  request.query = backend::Query::MatchAll();
  request.size = std::numeric_limits<std::size_t>::max();
  auto result = store.Search(index, request);
  EXPECT_TRUE(result.ok());
  std::vector<std::string> dumps;
  if (!result.ok()) return dumps;
  for (const backend::Hit& hit : result->hits) {
    Json doc = hit.source;
    doc.Set("session", "normalized");
    dumps.push_back(doc.Dump());
  }
  std::sort(dumps.begin(), dumps.end());
  return dumps;
}

TEST_F(ServiceTest, ConfigOnlySwitchKeepsBulkOnlyContentsByteIdentical) {
  DioService service(&env_.kernel, &store_);
  // Session 1: code-default pipeline (queue -> bulk).
  ASSERT_TRUE(
      service.StartSession(Options("plain"), "", FastClient()).ok());
  // Session 2: the same shipping path expressed purely through config.
  auto config = Config::ParseString(R"(
[tracer]
session = configured
flush_interval_ns = 1000000
poll_interval_ns = 100000
[transport]
queue_depth = 16
backpressure = block
network_latency_ns = 0
)");
  ASSERT_TRUE(config.ok());
  ASSERT_TRUE(service.StartSessionFromConfig(*config, "bob").ok());

  DoIo();  // both sessions observe the same kernel activity
  service.StopAll();

  const auto plain = NormalizedDocs(store_, "plain");
  const auto configured = NormalizedDocs(store_, "configured");
  ASSERT_EQ(plain.size(), 8u);
  EXPECT_EQ(plain, configured);  // byte-identical modulo the session label
}

TEST_F(ServiceTest, ConfigFanOutSpoolsReplayableCopy) {
  const std::string spool = ::testing::TempDir() + "service_spool.trace";
  DioService service(&env_.kernel, &store_);
  auto config = Config::ParseString(
      "[tracer]\nsession = teed\nflush_interval_ns = 1000000\n"
      "poll_interval_ns = 100000\n"
      "[transport]\nnetwork_latency_ns = 0\nsinks = bulk, trace\n"
      "trace_path = " + spool + "\n");
  ASSERT_TRUE(config.ok());
  ASSERT_TRUE(service.StartSessionFromConfig(*config).ok());
  DoIo();
  ASSERT_TRUE(service.StopSession("teed").ok());

  // The store got the events...
  EXPECT_EQ(*store_.Count("teed", backend::Query::MatchAll()), 8u);
  // ...and the trace spool holds the same documents, loadable into a new
  // index.
  auto loaded = trace::LoadTrace(&store_, spool, "teed-reloaded", "teed");
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded->loaded, 8u);
  EXPECT_EQ(loaded->duplicates, 0u);
  EXPECT_EQ(NormalizedDocs(store_, "teed-reloaded"),
            NormalizedDocs(store_, "teed"));
  // Per-stage accounting shows the fan-out chain.
  auto info = service.GetSession("teed");
  ASSERT_TRUE(info.ok());
  const JsonArray& stages = info->transport_stages.as_array();
  ASSERT_EQ(stages.size(), 4u);  // queue, fanout, bulk, trace
  EXPECT_EQ(stages[1].GetString("stage"), "fanout");
  EXPECT_EQ(stages[3].GetString("stage"), "trace");
  EXPECT_EQ(stages[3].GetInt("events_out"), 8);
  std::remove(spool.c_str());
}

TEST_F(ServiceTest, ConfigRetrySurvivesInjectedFaultsWithZeroLoss) {
  DioService service(&env_.kernel, &store_);
  auto config = Config::ParseString(R"(
[tracer]
session = faulty
flush_interval_ns = 1000000
poll_interval_ns = 100000
[transport]
network_latency_ns = 0
backpressure = block
fault_rate = 0.5
retry_max_attempts = 64
retry_initial_backoff_ns = 1
retry_max_backoff_ns = 10
)");
  ASSERT_TRUE(config.ok());
  ASSERT_TRUE(service.StartSessionFromConfig(*config, "chaos").ok());
  DoIo();
  ASSERT_TRUE(service.StopSession("faulty").ok());

  auto info = service.GetSession("faulty");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->events_emitted, 8u);
  EXPECT_EQ(info->events_dropped, 0u);
  EXPECT_EQ(info->transport_dropped, 0u);
  EXPECT_EQ(info->transport_dead_letters, 0u);
  EXPECT_GT(info->transport_retries, 0u);  // faults did fire — and were beaten
  // Zero loss end to end: every traced event reached the store.
  EXPECT_EQ(*store_.Count("faulty", backend::Query::MatchAll()), 8u);
  // The retry stage is visible in the per-stage breakdown.
  const JsonArray& stages = info->transport_stages.as_array();
  ASSERT_EQ(stages.size(), 3u);  // queue, retry, bulk
  EXPECT_EQ(stages[1].GetString("stage"), "retry");
  EXPECT_GT(stages[1].GetInt("faults_injected"), 0);
  EXPECT_EQ(stages[1].GetInt("dead_letter_batches"), 0);
}

TEST_F(ServiceTest, SessionInfoCarriesTransportCounters) {
  DioService service(&env_.kernel, &store_);
  ASSERT_TRUE(service.StartSession(Options("stats"), "", FastClient()).ok());
  DoIo(2);
  ASSERT_TRUE(service.StopSession("stats").ok());
  auto info = service.GetSession("stats");
  ASSERT_TRUE(info.ok());
  const Json j = info->ToJson();
  EXPECT_EQ(j.GetInt("transport_dropped"), 0);
  EXPECT_EQ(j.GetInt("transport_dead_letters"), 0);
  ASSERT_TRUE(j.Has("transport_stages"));
  const JsonArray& stages = j.Find("transport_stages")->as_array();
  ASSERT_EQ(stages.size(), 2u);  // queue, bulk
  EXPECT_EQ(stages[0].GetString("stage"), "queue");
  EXPECT_EQ(stages[1].GetString("stage"), "bulk");
  // Lossless default chain: the queue handed everything to the bulk sink.
  EXPECT_EQ(stages[0].GetInt("events_in"), stages[1].GetInt("events_out"));
}

TEST_F(ServiceTest, BadTransportConfigRejectedAtStart) {
  DioService service(&env_.kernel, &store_);
  auto config = Config::ParseString(
      "[tracer]\nsession = nope\n[transport]\nbackpressure = sometimes\n");
  ASSERT_TRUE(config.ok());
  EXPECT_FALSE(service.StartSessionFromConfig(*config).ok());
  // Unknown sinks are rejected too (only bulk/spool exist service-side).
  auto bad_sink = Config::ParseString(
      "[tracer]\nsession = nope\n[transport]\nsinks = kafka\n");
  ASSERT_TRUE(bad_sink.ok());
  EXPECT_FALSE(service.StartSessionFromConfig(*bad_sink).ok());
}

TEST_F(ServiceTest, BadBulkSinkConfigRejectedNamingTheKey) {
  DioService service(&env_.kernel, &store_);
  for (const char* line : {"refresh_interval_ms = -5",
                           "refresh_interval_ms = soon",
                           "network_latency_ns = -1"}) {
    auto config = Config::ParseString(
        std::string("[tracer]\nsession = nope\n[transport]\n") + line +
        "\n");
    ASSERT_TRUE(config.ok());
    auto started = service.StartSessionFromConfig(*config);
    ASSERT_FALSE(started.ok()) << line;
    const std::string key =
        std::string(line).substr(0, std::string(line).find(' '));
    EXPECT_NE(started.status().message().find("transport." + key),
              std::string::npos)
        << started.status().message();
  }
  EXPECT_FALSE(service.GetSession("nope").ok());
}

// ---------------------------------------------------------------------------
// Cluster deployment: the same service fronting a multi-node router.

// The cluster sink refreshes on the service's refresh deadline, so traced
// rows become searchable while the session runs, not only at StopSession.
TEST_F(ServiceTest, ClusterSessionRowsSearchableBeforeStop) {
  cluster::ClusterOptions cluster_options;
  cluster_options.nodes = 3;
  cluster_options.replicas = 1;
  cluster_options.ack = cluster::AckLevel::kQuorum;
  cluster::ClusterRouter router(cluster_options);
  DioService service(&env_.kernel, &router);
  backend::BulkClientOptions client = FastClient();
  client.refresh_interval_ms = 1;
  ASSERT_TRUE(service.StartSession(Options("live"), "alice", client).ok());

  std::size_t visible = 0;
  {
    auto task = env_.Bind();
    const auto fd =
        static_cast<os::Fd>(env_.kernel.sys_creat("/data/live.log", 0644));
    // Keep issuing syscalls, so batches keep reaching the sink, until a
    // refresh has made some of them searchable (bounded at ~5 s).
    for (int i = 0; i < 5000 && visible == 0; ++i) {
      env_.kernel.sys_write(fd, "x");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      if (!router.HasIndex("live")) continue;
      auto count = router.Count("live", backend::Query::MatchAll());
      if (count.ok()) visible = *count;
    }
    env_.kernel.sys_close(fd);
  }
  EXPECT_GT(visible, 0u);
  auto info = service.GetSession("live");
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->active);
  ASSERT_TRUE(service.StopSession("live").ok());
}

TEST_F(ServiceTest, ClusterSessionShipsReplicatesAndAnalyzes) {
  cluster::ClusterOptions cluster_options;
  cluster_options.nodes = 3;
  cluster_options.replicas = 1;
  cluster_options.ack = cluster::AckLevel::kQuorum;
  cluster::ClusterRouter router(cluster_options);
  DioService service(&env_.kernel, &router);
  EXPECT_EQ(service.store(), nullptr);
  EXPECT_EQ(service.router(), &router);

  ASSERT_TRUE(
      service.StartSession(Options("clustered"), "alice", FastClient()).ok());
  {
    auto task = env_.Bind();
    const auto fd =
        static_cast<os::Fd>(env_.kernel.sys_creat("/data/c.log", 0644));
    for (int i = 0; i < 100; ++i) env_.kernel.sys_write(fd, "tiny");
    env_.kernel.sys_close(fd);
  }
  ASSERT_TRUE(service.StopSession("clustered").ok());

  // Every traced event is in the logical cluster index, replicated and
  // converged after the teardown flush (Settle + Refresh).
  EXPECT_EQ(*router.Count("clustered", backend::Query::MatchAll()), 102u);
  EXPECT_TRUE(router.VerifyConvergence("clustered").empty());
  EXPECT_EQ(router.PendingApplies(), 0u);

  // Analysis runs through the scatter/gather surface unchanged.
  auto correlation = service.Correlate("clustered");
  ASSERT_TRUE(correlation.ok());
  EXPECT_GT(correlation->events_updated, 0u);
  auto findings = service.Diagnose("clustered");
  ASSERT_TRUE(findings.ok());
  bool small_io = false;
  for (const backend::Finding& finding : *findings) {
    if (finding.detector == "small-io") small_io = true;
  }
  EXPECT_TRUE(small_io);

  // The cluster stage appears in the per-stage transport accounting.
  auto info = service.GetSession("clustered");
  ASSERT_TRUE(info.ok());
  const JsonArray& stages = info->transport_stages.as_array();
  ASSERT_EQ(stages.size(), 2u);  // queue, cluster
  EXPECT_EQ(stages[1].GetString("stage"), "cluster");
  EXPECT_EQ(stages[1].GetInt("events_out"), 102);

  // Cluster health rides along in the session info: node liveness, the
  // query fan-out pool, the replication-log ledger, and per-index lag.
  const Json& health = info->cluster_health;
  ASSERT_TRUE(health.is_object());
  const Json* nodes = health.Find("nodes");
  ASSERT_NE(nodes, nullptr);
  ASSERT_EQ(nodes->as_array().size(), 3u);
  for (const Json& node : nodes->as_array()) {
    EXPECT_TRUE(node.GetBool("up"));
    EXPECT_TRUE(node.GetBool("reachable"));
    EXPECT_FALSE(node.GetBool("throttled", true));
  }
  const Json* fanout = health.Find("query_fanout");
  ASSERT_NE(fanout, nullptr);
  EXPECT_EQ(fanout->GetString("mode"), "parallel");
  const Json* log = health.Find("replication_log");
  ASSERT_NE(log, nullptr);
  EXPECT_EQ(log->GetInt("appended_entries"),
            log->GetInt("compacted_entries") + log->GetInt("retained_entries"));
  const Json* replication = health.Find("replication");
  ASSERT_NE(replication, nullptr);
  EXPECT_EQ(replication->GetInt("pending_applies"), 0);
  // And the session's JSON rendering carries the same object under
  // "cluster" (the dashboard surface; null/absent on single-store).
  const Json rendered = info->ToJson();
  const Json* cluster = rendered.Find("cluster");
  ASSERT_NE(cluster, nullptr);
  ASSERT_NE(cluster->Find("indices"), nullptr);
  ASSERT_EQ(cluster->Find("indices")->as_array().size(), 1u);
  EXPECT_EQ(cluster->Find("indices")->as_array()[0].GetInt(
                "max_replication_lag"),
            0);
}

TEST_F(ServiceTest, BuildBackendTierSelectsStoreOrCluster) {
  auto plain = Config::ParseString("[backend]\nshards_per_index = 2\n");
  ASSERT_TRUE(plain.ok());
  auto tier = BuildBackendTier(*plain);
  ASSERT_TRUE(tier.ok());
  EXPECT_FALSE(tier->clustered());
  ASSERT_NE(tier->store, nullptr);
  EXPECT_EQ(tier->query, tier->store.get());

  auto clustered = Config::ParseString(R"(
[cluster]
nodes = 4
replicas = 2
ack = all
)");
  ASSERT_TRUE(clustered.ok());
  auto cluster_tier = BuildBackendTier(*clustered);
  ASSERT_TRUE(cluster_tier.ok());
  ASSERT_TRUE(cluster_tier->clustered());
  EXPECT_EQ(cluster_tier->router->node_count(), 4u);
  EXPECT_EQ(cluster_tier->router->options().replicas, 2u);
  EXPECT_EQ(cluster_tier->router->options().ack, cluster::AckLevel::kAll);
  EXPECT_EQ(cluster_tier->query, cluster_tier->router.get());

  // An unparseable ack level fails tier construction, like other config
  // errors surface at session start.
  auto bad = Config::ParseString("[cluster]\nack = eventually\n");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(BuildBackendTier(*bad).ok());
  // So does an out-of-range [backend] value, for either tier.
  for (const char* text : {"[backend]\nsegment_docs = 0\n",
                           "[backend]\nshards_per_index = 0\n"
                           "[cluster]\nnodes = 2\n"}) {
    auto bad_store = Config::ParseString(text);
    ASSERT_TRUE(bad_store.ok());
    auto failed = BuildBackendTier(*bad_store);
    ASSERT_FALSE(failed.ok()) << text;
    EXPECT_NE(failed.status().message().find("backend."), std::string::npos);
  }
  // And an out-of-range [cluster] count, naming its key.
  auto bad_cluster = Config::ParseString("[cluster]\nlogical_shards = 0\n");
  ASSERT_TRUE(bad_cluster.ok());
  auto failed = BuildBackendTier(*bad_cluster);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("cluster.logical_shards"),
            std::string::npos);
}

TEST_F(ServiceTest, DestructorStopsLiveSessions) {
  {
    DioService service(&env_.kernel, &store_);
    ASSERT_TRUE(
        service.StartSession(Options("auto-stop"), "", FastClient()).ok());
    DoIo(2);
  }
  // The tracer detached cleanly: further syscalls are not traced.
  DoIo(2);
  store_.Refresh("auto-stop");
  EXPECT_EQ(*store_.Count("auto-stop", backend::Query::MatchAll()), 5u);
}

}  // namespace
}  // namespace dio::service
