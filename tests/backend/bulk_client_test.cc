#include "backend/bulk_client.h"

#include <gtest/gtest.h>

#include <string>

namespace dio::backend {
namespace {

Json Doc(int i) {
  Json doc = Json::MakeObject();
  doc.Set("i", i);
  return doc;
}

TEST(BulkClientTest, BatchesArriveAfterFlush) {
  ElasticStore store;
  BulkClientOptions options;
  options.network_latency_ns = 0;
  BulkClient client(&store, "session", options);
  client.IndexBatch({Doc(1), Doc(2)});
  client.IndexBatch({Doc(3)});
  client.Flush();
  EXPECT_EQ(*store.Count("session", Query::MatchAll()), 3u);
  EXPECT_EQ(client.batches_sent(), 2u);
}

TEST(BulkClientTest, EmptyBatchIgnored) {
  ElasticStore store;
  BulkClient client(&store, "session", {});
  client.IndexBatch({});
  client.Flush();
  EXPECT_EQ(client.batches_sent(), 0u);
}

TEST(BulkClientTest, DeliveryWithLatencyVisibleAfterFlush) {
  ElasticStore store;
  BulkClientOptions options;
  options.network_latency_ns = 5 * kMillisecond;
  BulkClient client(&store, "session", options);
  client.IndexBatch({Doc(1)});
  client.Flush();
  EXPECT_EQ(*store.Count("session", Query::MatchAll()), 1u);
}

TEST(BulkClientTest, PeriodicRefreshMakesDataVisibleWithoutFlush) {
  ElasticStore store;
  ManualClock clock;
  BulkClientOptions options;
  options.network_latency_ns = 0;
  options.refresh_interval_ms = 1;
  BulkClient client(&store, "session", options, &clock);
  clock.AdvanceNanos(options.refresh_interval());
  client.IndexBatch({Doc(1)});
  // Near-real-time: the batch that finds the deadline passed is searchable
  // when its Submit returns, without an explicit Flush.
  EXPECT_EQ(*store.Count("session", Query::MatchAll()), 1u);
}

std::uint64_t Refreshes(const ElasticStore& store) {
  auto stats = store.Stats("session");
  return stats.ok() ? stats->refreshes : 0;
}

TEST(BulkClientTest, RefreshWaitsForTheIntervalOnTheSinkClock) {
  ElasticStore store;
  ManualClock clock;
  BulkClientOptions options;
  options.network_latency_ns = 0;
  options.refresh_interval_ms = 50;
  BulkClient client(&store, "session", options, &clock);
  client.IndexBatch({Doc(1)});
  clock.AdvanceNanos(49 * kMillisecond);
  client.IndexBatch({Doc(2)});
  EXPECT_EQ(Refreshes(store), 0u);
  EXPECT_EQ(*store.Count("session", Query::MatchAll()), 0u);

  clock.AdvanceNanos(kMillisecond);
  client.IndexBatch({Doc(3)});
  EXPECT_EQ(Refreshes(store), 1u);
  EXPECT_EQ(*store.Count("session", Query::MatchAll()), 3u);

  // The interval restarts at the refresh.
  clock.AdvanceNanos(49 * kMillisecond);
  client.IndexBatch({Doc(4)});
  EXPECT_EQ(Refreshes(store), 1u);
  clock.AdvanceNanos(kMillisecond);
  client.IndexBatch({Doc(5)});
  EXPECT_EQ(Refreshes(store), 2u);
  EXPECT_EQ(*store.Count("session", Query::MatchAll()), 5u);
}

TEST(BulkClientTest, ZeroIntervalRefreshesOnlyOnFlush) {
  ElasticStore store;
  ManualClock clock;
  BulkClientOptions options;
  options.network_latency_ns = 0;
  options.refresh_interval_ms = 0;
  BulkClient client(&store, "session", options, &clock);
  for (int i = 0; i < 5; ++i) {
    clock.AdvanceNanos(kSecond);
    client.IndexBatch({Doc(i)});
  }
  EXPECT_EQ(Refreshes(store), 0u);
  EXPECT_EQ(*store.Count("session", Query::MatchAll()), 0u);
  client.Flush();
  EXPECT_EQ(Refreshes(store), 1u);
  EXPECT_EQ(*store.Count("session", Query::MatchAll()), 5u);
}

TEST(BulkClientTest, FlushRestartsTheInterval) {
  ElasticStore store;
  ManualClock clock;
  BulkClientOptions options;
  options.network_latency_ns = 0;
  options.refresh_interval_ms = 50;
  BulkClient client(&store, "session", options, &clock);
  clock.AdvanceNanos(40 * kMillisecond);
  client.IndexBatch({Doc(1)});
  client.Flush();
  clock.AdvanceNanos(40 * kMillisecond);
  client.IndexBatch({Doc(2)});
  EXPECT_EQ(Refreshes(store), 1u);
  EXPECT_EQ(*store.Count("session", Query::MatchAll()), 1u);
}

TEST(BulkClientOptionsTest, ReadsTheTransportKeys) {
  Config config;
  config.Set("transport.network_latency_ns", "0");
  config.Set("transport.refresh_interval_ms", "250");
  config.Set("transport.auto_correlate", "true");
  auto options = BulkClientOptions::FromConfig(config);
  ASSERT_TRUE(options.ok()) << options.status().message();
  EXPECT_EQ(options->network_latency_ns, 0);
  EXPECT_EQ(options->refresh_interval_ms, 250);
  EXPECT_EQ(options->refresh_interval(), 250 * kMillisecond);
  EXPECT_TRUE(options->auto_correlate);

  auto defaults = BulkClientOptions::FromConfig(Config());
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(defaults->refresh_interval_ms,
            BulkClientOptions::kDefaultRefreshIntervalMs);
}

void ExpectRejected(const std::string& key, const std::string& value) {
  Config config;
  config.Set(key, value);
  auto options = BulkClientOptions::FromConfig(config);
  ASSERT_FALSE(options.ok()) << key << " = " << value;
  EXPECT_EQ(options.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(options.status().message().find(key), std::string::npos)
      << options.status().message();
}

TEST(BulkClientOptionsTest, RejectsNegativeRefreshInterval) {
  ExpectRejected("transport.refresh_interval_ms", "-1");
}

TEST(BulkClientOptionsTest, RejectsNonIntegerRefreshInterval) {
  ExpectRejected("transport.refresh_interval_ms", "50ms");
  ExpectRejected("transport.refresh_interval_ms", "0.5");
}

TEST(BulkClientOptionsTest, RejectsNegativeNetworkLatency) {
  ExpectRejected("transport.network_latency_ns", "-200000");
}

TEST(BulkClientOptionsTest, RejectsNonIntegerNetworkLatency) {
  ExpectRejected("transport.network_latency_ns", "fast");
}

TEST(BulkClientTest, DestructorLosesNothing) {
  ElasticStore store;
  {
    BulkClientOptions options;
    options.network_latency_ns = kMillisecond;
    BulkClient client(&store, "session", options);
    for (int i = 0; i < 5; ++i) client.IndexBatch({Doc(i)});
  }
  store.Refresh("session");
  EXPECT_EQ(*store.Count("session", Query::MatchAll()), 5u);
}

TEST(BulkClientTest, AutoCorrelateResolvesPathsOnFlush) {
  ElasticStore store;
  BulkClientOptions options;
  options.network_latency_ns = 0;
  options.auto_correlate = true;
  BulkClient client(&store, "session", options);
  Json open_event = Json::MakeObject();
  open_event.Set("syscall", "openat");
  open_event.Set("file_tag", "7|1|1");
  open_event.Set("path", "/data/x");
  Json read_event = Json::MakeObject();
  read_event.Set("syscall", "read");
  read_event.Set("file_tag", "7|1|1");
  client.IndexBatch({std::move(open_event), std::move(read_event)});
  client.Flush();
  EXPECT_EQ(*store.Count("session",
                         Query::Term("file_path", Json("/data/x"))),
            2u);
}

TEST(BulkClientTest, ManySmallBatchesAllDelivered) {
  ElasticStore store;
  BulkClientOptions options;
  options.network_latency_ns = 0;
  BulkClient client(&store, "session", options);
  for (int i = 0; i < 200; ++i) client.IndexBatch({Doc(i)});
  client.Flush();
  EXPECT_EQ(*store.Count("session", Query::MatchAll()), 200u);
  EXPECT_EQ(client.batches_sent(), 200u);
}

// As a transport stage the client is a lossless terminal sink: everything
// accepted is delivered, so per-stage accounting shows in == out.
TEST(BulkClientTest, StageStatsBalance) {
  ElasticStore store;
  BulkClientOptions options;
  options.network_latency_ns = 0;
  BulkClient client(&store, "session", options);
  client.IndexBatch({Doc(1), Doc(2)});
  client.IndexBatch({Doc(3)});
  std::vector<transport::StageStats> stages;
  client.CollectStats(&stages);
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_EQ(stages[0].stage, "bulk");
  EXPECT_EQ(stages[0].batches_in, 2u);
  EXPECT_EQ(stages[0].batches_out, 2u);
  EXPECT_EQ(stages[0].events_in, 3u);
  EXPECT_EQ(stages[0].events_out, 3u);
  EXPECT_EQ(stages[0].dropped_batches, 0u);
}

}  // namespace
}  // namespace dio::backend
