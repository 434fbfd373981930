// End-to-end integration tests: the full DIO pipeline (tracer -> bulk client
// -> store -> correlation -> dashboards) observing the paper's two use
// cases — the Fluent Bit data-loss pattern (§III-B) and RocksDB background
// I/O (§III-C) — plus multi-session isolation (§II-F).
#include <gtest/gtest.h>

#include "apps/dbbench/db_bench.h"
#include "apps/flb/fluentbit.h"
#include "apps/flb/log_client.h"
#include "apps/lsmkv/db.h"
#include "backend/bulk_client.h"
#include "backend/correlation.h"
#include "backend/detectors.h"
#include "backend/store.h"
#include "test_util.h"
#include "tracer/tracer.h"
#include "viz/dashboard.h"

namespace dio {
namespace {

using dio::testing::TestEnv;

backend::BulkClientOptions FastClient() {
  backend::BulkClientOptions options;
  options.network_latency_ns = 0;
  return options;
}

tracer::TracerOptions FastTracer(const std::string& session) {
  tracer::TracerOptions options;
  options.session_name = session;
  options.flush_interval_ns = kMillisecond;
  options.poll_interval_ns = 100 * kMicrosecond;
  return options;
}

// The Fig. 2a diagnosis, end to end: trace the buggy Fluent Bit + app,
// correlate paths, and verify the *diagnostic signature* is visible in the
// backend: a read at offset 26 returning 0 on the recreated file.
TEST(PipelineIntegrationTest, FluentBitDataLossDiagnosis) {
  TestEnv env;
  backend::ElasticStore store;
  backend::BulkClient client(&store, "flb-buggy", FastClient());
  tracer::DioTracer dio(&env.kernel, &client, FastTracer("flb-buggy"));
  ASSERT_TRUE(dio.Start().ok());

  apps::flb::FluentBitOptions flb_options;
  flb_options.mode = apps::flb::Mode::kBuggyV14;
  flb_options.watch_path = "/data/app.log";
  apps::flb::FluentBit flb(&env.kernel, flb_options);
  apps::flb::LogClient app(&env.kernel);
  {
    os::ScopedTask flb_task(env.kernel, flb.pid(), flb.tid());
    app.WriteLog("/data/app.log", "0123456789012345678901234\n");  // 26 B
    flb.ScanOnce();
    app.RemoveLog("/data/app.log");
    flb.ScanOnce();
    app.WriteLog("/data/app.log", "012345678901234\n");  // 16 B
    flb.ScanOnce();
  }
  dio.Stop();

  backend::FilePathCorrelator correlator(&store);
  auto correlation = correlator.Run("flb-buggy");
  ASSERT_TRUE(correlation.ok());
  EXPECT_EQ(correlation->events_unresolved, 0u);
  // Two generations of the same inode -> two distinct tags, same path.
  EXPECT_EQ(correlation->tags_discovered, 2u);
  for (const auto& [tag, path] : correlator.tag_to_path()) {
    EXPECT_EQ(path, "/data/app.log");
  }

  // The data-loss signature: fluent-bit seeked to 26 on the NEW file and the
  // read at offset 26 returned 0 while the app wrote 16 bytes there.
  auto lseeks = store.Search("flb-buggy", backend::SearchRequest{
      backend::Query::And({backend::Query::Term("syscall", Json("lseek")),
                           backend::Query::Term("comm", Json("fluent-bit"))}),
      {{"time_enter", true}}, 0, 100, {}});
  ASSERT_TRUE(lseeks.ok());
  ASSERT_EQ(lseeks->hits.size(), 1u);
  EXPECT_EQ(lseeks->hits[0].source.GetInt("file_offset"), 26);

  auto empty_reads = store.Count(
      "flb-buggy",
      backend::Query::And({backend::Query::Term("syscall", Json("read")),
                           backend::Query::Term("ret", Json(0)),
                           backend::Query::Term("file_offset", Json(26))}));
  ASSERT_TRUE(empty_reads.ok());
  EXPECT_GE(*empty_reads, 1u);

  // And the Fig. 2a table itself renders with both processes interleaved.
  viz::Dashboards dashboards(&store, "flb-buggy");
  auto table = dashboards.SyscallTable();
  ASSERT_TRUE(table.ok());
  const std::string rendered = table->Render();
  EXPECT_NE(rendered.find("app"), std::string::npos);
  EXPECT_NE(rendered.find("fluent-bit"), std::string::npos);
  EXPECT_NE(rendered.find("unlink"), std::string::npos);
}

// The fixed version's signature (Fig. 2b): read from offset 0 returns 16.
TEST(PipelineIntegrationTest, FluentBitFixedVersionValidation) {
  TestEnv env;
  backend::ElasticStore store;
  backend::BulkClient client(&store, "flb-fixed", FastClient());
  tracer::DioTracer dio(&env.kernel, &client, FastTracer("flb-fixed"));
  ASSERT_TRUE(dio.Start().ok());

  apps::flb::FluentBitOptions flb_options;
  flb_options.mode = apps::flb::Mode::kFixedV205;
  flb_options.watch_path = "/data/app.log";
  apps::flb::FluentBit flb(&env.kernel, flb_options);
  apps::flb::LogClient app(&env.kernel);
  {
    os::ScopedTask flb_task(env.kernel, flb.pid(), flb.tid());
    app.WriteLog("/data/app.log", "0123456789012345678901234\n");
    flb.ScanOnce();
    app.RemoveLog("/data/app.log");
    flb.ScanOnce();
    app.WriteLog("/data/app.log", "012345678901234\n");
    flb.ScanOnce();
  }
  dio.Stop();

  // No lseek to a stale offset; a 16-byte read at offset 0 instead.
  auto lseeks = store.Count(
      "flb-fixed",
      backend::Query::And({backend::Query::Term("syscall", Json("lseek")),
                           backend::Query::Term("comm", Json("flb-pipeline"))}));
  EXPECT_EQ(*lseeks, 0u);
  auto good_reads = store.Count(
      "flb-fixed",
      backend::Query::And({backend::Query::Term("syscall", Json("read")),
                           backend::Query::Term("ret", Json(16)),
                           backend::Query::Term("file_offset", Json(0))}));
  EXPECT_EQ(*good_reads, 1u);
}

// §III-C shape at test scale: trace a short db_bench run capturing only
// open/read/write/close; the Fig. 4 aggregation must show client AND
// background threads, and compaction activity must be visible.
TEST(PipelineIntegrationTest, RocksDbThreadTimelineShowsBackgroundIo) {
  TestEnv env;
  backend::ElasticStore store;
  backend::BulkClient client(&store, "rocksdb", FastClient());
  tracer::TracerOptions options = FastTracer("rocksdb");
  // "we configured DIO's tracer to capture exclusively open, read, write,
  // and close syscalls" — §III-C.
  options.syscalls = {"open", "openat", "read", "write", "close"};
  tracer::DioTracer dio(&env.kernel, &client, options);
  ASSERT_TRUE(dio.Start().ok());

  apps::lsmkv::LsmOptions db_options;
  db_options.db_path = "/data/db";
  db_options.memtable_bytes = 16 * 1024;
  db_options.l0_compaction_trigger = 2;
  db_options.compaction_threads = 3;
  apps::lsmkv::Db db(&env.kernel, db_options);
  ASSERT_TRUE(db.Open().ok());

  apps::dbbench::DbBenchOptions bench_options;
  bench_options.num_keys = 400;
  bench_options.client_threads = 4;
  bench_options.ops_limit = 4000;
  bench_options.value_bytes = 64;
  apps::dbbench::DbBench bench(&env.kernel, &db, bench_options);
  ASSERT_TRUE(bench.Fill().ok());
  const auto result = bench.Run();
  EXPECT_EQ(result.total_ops, 4000u);
  db.WaitForQuiescence();
  db.Close();
  dio.Stop();

  EXPECT_GT(db.stats().flushes, 0u);
  EXPECT_GT(db.stats().compactions, 0u);

  viz::Dashboards dashboards(&store, "rocksdb");
  auto series = dashboards.ThreadTimelineSeries(50 * kMillisecond);
  ASSERT_TRUE(series.ok());
  bool has_client = false;
  bool has_flush = false;
  bool has_compaction = false;
  for (const viz::Series& s : *series) {
    if (s.name == "db_bench") has_client = true;
    if (s.name == "rocksdb:high0") has_flush = true;
    if (s.name.starts_with("rocksdb:low")) has_compaction = true;
  }
  EXPECT_TRUE(has_client);
  EXPECT_TRUE(has_flush);
  EXPECT_TRUE(has_compaction);

  // Only the four configured syscalls (plus none other) were captured.
  auto per_syscall = store.Aggregate("rocksdb", backend::Query::MatchAll(),
                                     backend::Aggregation::Terms("syscall"));
  ASSERT_TRUE(per_syscall.ok());
  for (const backend::AggBucket& bucket : per_syscall->buckets) {
    const std::string name = bucket.key.as_string();
    EXPECT_TRUE(name == "open" || name == "openat" || name == "read" ||
                name == "write" || name == "close")
        << name;
  }
}

// The §V extension: the automated detectors flag the buggy Fluent Bit run
// and stay quiet on the fixed one, end to end.
TEST(PipelineIntegrationTest, DetectorsFlagBuggyRunOnly) {
  const auto run = [&](apps::flb::Mode mode, const std::string& session,
                       backend::ElasticStore* store) {
    TestEnv env;
    backend::BulkClientOptions client_options = FastClient();
    client_options.auto_correlate = true;  // tracer-driven correlation
    backend::BulkClient client(store, session, client_options);
    tracer::DioTracer dio(&env.kernel, &client, FastTracer(session));
    ASSERT_TRUE(dio.Start().ok());
    apps::flb::FluentBitOptions flb_options;
    flb_options.mode = mode;
    flb_options.watch_path = "/data/app.log";
    apps::flb::FluentBit flb(&env.kernel, flb_options);
    apps::flb::LogClient app(&env.kernel);
    {
      os::ScopedTask flb_task(env.kernel, flb.pid(), flb.tid());
      app.WriteLog("/data/app.log", "0123456789012345678901234\n");
      flb.ScanOnce();
      app.RemoveLog("/data/app.log");
      flb.ScanOnce();
      app.WriteLog("/data/app.log", "012345678901234\n");
      flb.ScanOnce();
    }
    dio.Stop();
  };

  backend::ElasticStore store;
  run(apps::flb::Mode::kBuggyV14, "det-buggy", &store);
  run(apps::flb::Mode::kFixedV205, "det-fixed", &store);

  auto buggy = backend::DetectStaleOffsets(&store, "det-buggy");
  ASSERT_TRUE(buggy.ok());
  ASSERT_EQ(buggy->size(), 1u);
  EXPECT_EQ((*buggy)[0].severity, "critical");
  EXPECT_EQ((*buggy)[0].file_path, "/data/app.log");  // auto-correlated

  auto fixed = backend::DetectStaleOffsets(&store, "det-fixed");
  ASSERT_TRUE(fixed.ok());
  EXPECT_TRUE(fixed->empty());
}

// §II-F: multiple tracing sessions coexist in one backend.
TEST(PipelineIntegrationTest, MultipleSessionsIsolated) {
  TestEnv env;
  backend::ElasticStore store;
  for (const std::string session : {"run-1", "run-2"}) {
    backend::BulkClient client(&store, session, FastClient());
    tracer::DioTracer dio(&env.kernel, &client, FastTracer(session));
    ASSERT_TRUE(dio.Start().ok());
    {
      auto task = env.Bind();
      env.kernel.sys_mkdir("/data/" + session, 0755);
    }
    dio.Stop();
  }
  EXPECT_EQ(store.ListIndices(),
            (std::vector<std::string>{"run-1", "run-2"}));
  EXPECT_EQ(*store.Count("run-1", backend::Query::MatchAll()), 1u);
  EXPECT_EQ(*store.Count("run-2", backend::Query::MatchAll()), 1u);
  auto run1 = store.Search("run-1", backend::SearchRequest{});
  EXPECT_EQ(run1->hits[0].source.GetString("path"), "/data/run-1");
}

// Post-mortem analysis (§II): data persists in the store after the tracer
// is gone and can be re-analyzed later.
TEST(PipelineIntegrationTest, PostMortemAnalysis) {
  TestEnv env;
  backend::ElasticStore store;
  {
    backend::BulkClient client(&store, "postmortem", FastClient());
    tracer::DioTracer dio(&env.kernel, &client, FastTracer("postmortem"));
    ASSERT_TRUE(dio.Start().ok());
    auto task = env.Bind();
    const auto fd = static_cast<os::Fd>(env.kernel.sys_creat("/data/pm", 0644));
    env.kernel.sys_write(fd, "data");
    env.kernel.sys_close(fd);
    task.reset();
    dio.Stop();
  }
  // Tracer and client destroyed; analysis still possible.
  backend::FilePathCorrelator correlator(&store);
  auto stats = correlator.Run("postmortem");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->events_updated, 3u);
  viz::Dashboards dashboards(&store, "postmortem");
  auto summary = dashboards.SyscallSummary();
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->row_count(), 3u);
}

}  // namespace
}  // namespace dio
