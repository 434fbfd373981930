// End-to-end tests of the DIO tracer against the OS substrate: entry/exit
// aggregation, enrichment (file type / offset / tag), kernel-side filtering,
// batching, and the §III-D drop behaviour.
#include "tracer/tracer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>

#include "test_util.h"

namespace dio::tracer {

// Pushes raw bytes into the tracer's rings, bypassing the hook path — the
// only way to exercise the consumer's handling of corrupt records (the
// producers always emit well-formed ones).
class DioTracerTestPeer {
 public:
  static bool InjectRaw(DioTracer* tracer, int cpu,
                        std::span<const std::byte> bytes) {
    return tracer->rings_.Output(cpu, bytes);
  }
};

namespace {

using dio::testing::TestEnv;

class CollectingSink : public EventSink {
 public:
  void IndexBatch(std::vector<Json> documents) override {
    std::scoped_lock lock(mu_);
    for (Json& doc : documents) docs_.push_back(std::move(doc));
    ++batches_;
  }

  [[nodiscard]] std::vector<Json> docs() const {
    std::scoped_lock lock(mu_);
    return docs_;
  }
  [[nodiscard]] int batches() const {
    std::scoped_lock lock(mu_);
    return batches_;
  }

  [[nodiscard]] std::vector<Json> DocsFor(std::string_view syscall) const {
    std::scoped_lock lock(mu_);
    std::vector<Json> out;
    for (const Json& doc : docs_) {
      if (doc.GetString("syscall") == syscall) out.push_back(doc);
    }
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Json> docs_;
  int batches_ = 0;
};

class TracerTest : public ::testing::Test {
 protected:
  TracerOptions FastOptions() {
    TracerOptions options;
    options.session_name = "test-session";
    options.flush_interval_ns = kMillisecond;
    options.poll_interval_ns = 100 * kMicrosecond;
    return options;
  }

  TestEnv env_;
  CollectingSink sink_;
};

TEST_F(TracerTest, AggregatesEnterAndExitIntoOneEvent) {
  DioTracer tracer(&env_.kernel, &sink_, FastOptions());
  ASSERT_TRUE(tracer.Start().ok());
  {
    auto task = env_.Bind();
    env_.kernel.sys_mkdir("/data/one", 0755);
  }
  tracer.Stop();

  auto docs = sink_.DocsFor("mkdir");
  ASSERT_EQ(docs.size(), 1u);
  const Json& doc = docs[0];
  EXPECT_EQ(doc.GetInt("ret"), 0);
  EXPECT_EQ(doc.GetString("comm"), "test");
  EXPECT_EQ(doc.GetString("proc_name"), "test");
  EXPECT_EQ(doc.GetString("path"), "/data/one");
  EXPECT_GT(doc.GetInt("time_exit"), doc.GetInt("time_enter"));
  EXPECT_GE(doc.GetInt("duration_ns"), 0);
  EXPECT_EQ(doc.GetString("session"), "test-session");
}

TEST_F(TracerTest, EnrichmentFileTypeOffsetAndTag) {
  DioTracer tracer(&env_.kernel, &sink_, FastOptions());
  ASSERT_TRUE(tracer.Start().ok());
  {
    auto task = env_.Bind();
    os::Kernel& k = env_.kernel;
    const auto fd = static_cast<os::Fd>(k.sys_openat(
        os::kAtFdCwd, "/data/e.log",
        os::openflag::kReadWrite | os::openflag::kCreate));
    k.sys_write(fd, "0123456789");          // offset 0
    k.sys_write(fd, "abc");                 // offset 10
    k.sys_lseek(fd, 2, os::kSeekSet);       // result 2
    std::string buf;
    k.sys_read(fd, &buf, 4);                // offset 2
    k.sys_pread64(fd, &buf, 2, 7);          // arg offset 7
    k.sys_close(fd);
  }
  tracer.Stop();

  auto open_docs = sink_.DocsFor("openat");
  ASSERT_EQ(open_docs.size(), 1u);
  EXPECT_EQ(open_docs[0].GetString("file_type"), "regular");
  const std::string tag = open_docs[0].GetString("file_tag");
  ASSERT_FALSE(tag.empty());
  EXPECT_EQ(open_docs[0].GetInt("tag_dev"), 7340032);

  auto write_docs = sink_.DocsFor("write");
  ASSERT_EQ(write_docs.size(), 2u);
  EXPECT_EQ(write_docs[0].GetInt("file_offset"), 0);
  EXPECT_EQ(write_docs[1].GetInt("file_offset"), 10);
  EXPECT_EQ(write_docs[0].GetString("file_tag"), tag);

  auto lseek_docs = sink_.DocsFor("lseek");
  ASSERT_EQ(lseek_docs.size(), 1u);
  EXPECT_EQ(lseek_docs[0].GetInt("file_offset"), 2);  // the resulting offset

  auto read_docs = sink_.DocsFor("read");
  ASSERT_EQ(read_docs.size(), 1u);
  EXPECT_EQ(read_docs[0].GetInt("file_offset"), 2);  // position before read

  auto pread_docs = sink_.DocsFor("pread64");
  ASSERT_EQ(pread_docs.size(), 1u);
  EXPECT_EQ(pread_docs[0].GetInt("file_offset"), 7);  // explicit argument

  auto close_docs = sink_.DocsFor("close");
  ASSERT_EQ(close_docs.size(), 1u);
  EXPECT_EQ(close_docs[0].GetString("file_tag"), tag);
  EXPECT_FALSE(close_docs[0].Has("file_offset"));  // not a data syscall
}

TEST_F(TracerTest, InodeRecyclingGetsFreshTagTimestamp) {
  // The §III-B disambiguation: same (dev, ino) after unlink+recreate must
  // yield a DIFFERENT file tag (new first-access timestamp).
  DioTracer tracer(&env_.kernel, &sink_, FastOptions());
  ASSERT_TRUE(tracer.Start().ok());
  {
    auto task = env_.Bind();
    os::Kernel& k = env_.kernel;
    auto fd = static_cast<os::Fd>(k.sys_creat("/data/cycle", 0644));
    k.sys_write(fd, "first");
    k.sys_close(fd);
    k.sys_unlink("/data/cycle");
    fd = static_cast<os::Fd>(k.sys_creat("/data/cycle", 0644));
    k.sys_write(fd, "second");
    k.sys_close(fd);
  }
  tracer.Stop();

  auto writes = sink_.DocsFor("write");
  ASSERT_EQ(writes.size(), 2u);
  EXPECT_EQ(writes[0].GetInt("tag_ino"), writes[1].GetInt("tag_ino"));
  EXPECT_NE(writes[0].GetString("file_tag"), writes[1].GetString("file_tag"));
  EXPECT_LT(writes[0].GetInt("tag_ts"), writes[1].GetInt("tag_ts"));

  auto unlinks = sink_.DocsFor("unlink");
  ASSERT_EQ(unlinks.size(), 1u);
  EXPECT_FALSE(unlinks[0].Has("file_tag"));  // path syscalls carry no tag
}

TEST_F(TracerTest, CloseAfterUnlinkKeepsOpenTimeTag) {
  // Fig. 2a row 3: fluent-bit's close AFTER the unlink still shows the tag
  // of the original file generation (tag resolved at open time, per fd).
  DioTracer tracer(&env_.kernel, &sink_, FastOptions());
  ASSERT_TRUE(tracer.Start().ok());
  {
    auto task = env_.Bind();
    os::Kernel& k = env_.kernel;
    const auto fd = static_cast<os::Fd>(k.sys_creat("/data/held", 0644));
    k.sys_write(fd, "x");
    k.sys_unlink("/data/held");
    k.sys_close(fd);  // after unlink
  }
  tracer.Stop();
  auto creats = sink_.DocsFor("creat");
  auto closes = sink_.DocsFor("close");
  ASSERT_EQ(creats.size(), 1u);
  ASSERT_EQ(closes.size(), 1u);
  EXPECT_EQ(closes[0].GetString("file_tag"), creats[0].GetString("file_tag"));
}

TEST_F(TracerTest, SameFileAcrossProcessesSharesTag) {
  DioTracer tracer(&env_.kernel, &sink_, FastOptions());
  ASSERT_TRUE(tracer.Start().ok());
  {
    auto task = env_.Bind();
    auto fd = static_cast<os::Fd>(env_.kernel.sys_creat("/data/shared", 0644));
    env_.kernel.sys_write(fd, "x");
    env_.kernel.sys_close(fd);
  }
  const os::Pid pid2 = env_.kernel.CreateProcess("reader");
  const os::Tid tid2 = env_.kernel.SpawnThread(pid2, "reader");
  {
    os::ScopedTask task(env_.kernel, pid2, tid2);
    auto fd = static_cast<os::Fd>(env_.kernel.sys_openat(
        os::kAtFdCwd, "/data/shared", os::openflag::kReadOnly));
    std::string buf;
    env_.kernel.sys_read(fd, &buf, 1);
    env_.kernel.sys_close(fd);
  }
  tracer.Stop();

  auto writes = sink_.DocsFor("write");
  auto reads = sink_.DocsFor("read");
  ASSERT_EQ(writes.size(), 1u);
  ASSERT_EQ(reads.size(), 1u);
  // Fig. 2: app's and fluent-bit's events carry the SAME tag.
  EXPECT_EQ(writes[0].GetString("file_tag"), reads[0].GetString("file_tag"));
  EXPECT_NE(writes[0].GetString("comm"), reads[0].GetString("comm"));
}

TEST_F(TracerTest, SyscallSelectionOnlyActivatesChosenTracepoints) {
  TracerOptions options = FastOptions();
  options.syscalls = {"openat", "close"};
  DioTracer tracer(&env_.kernel, &sink_, options);
  ASSERT_TRUE(tracer.Start().ok());
  {
    auto task = env_.Bind();
    const auto fd = static_cast<os::Fd>(env_.kernel.sys_openat(
        os::kAtFdCwd, "/data/sel",
        os::openflag::kWriteOnly | os::openflag::kCreate));
    env_.kernel.sys_write(fd, "ignored");
    env_.kernel.sys_close(fd);
  }
  tracer.Stop();
  EXPECT_EQ(sink_.DocsFor("openat").size(), 1u);
  EXPECT_EQ(sink_.DocsFor("close").size(), 1u);
  EXPECT_TRUE(sink_.DocsFor("write").empty());
  // Untraced syscalls never even hit the tracepoint handlers.
  EXPECT_EQ(tracer.stats().filtered_out, 0u);
}

TEST_F(TracerTest, UnknownSyscallNameFailsFromConfig) {
  auto config = Config::ParseString("[tracer]\nsyscalls = read, bogus\n");
  ASSERT_TRUE(config.ok());
  auto options = TracerOptions::FromConfig(*config);
  EXPECT_FALSE(options.ok());
}

TEST_F(TracerTest, OptionsFromConfigParsesEverything) {
  auto config = Config::ParseString(R"(
[tracer]
session = cfg-session
syscalls = read, write
pids = 100, 200
paths = /data/logs, /data/db
ring_bytes_per_cpu = 65536
batch_size = 64
enrich = false
kernel_filtering = false
hook_cost_ns = 1500
first_access_map_entries = 1234
path_cap = 48
)");
  ASSERT_TRUE(config.ok());
  auto options = TracerOptions::FromConfig(*config);
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->session_name, "cfg-session");
  EXPECT_EQ(options->syscalls,
            (std::vector<std::string>{"read", "write"}));
  EXPECT_EQ(options->pids, (std::vector<os::Pid>{100, 200}));
  EXPECT_EQ(options->paths,
            (std::vector<std::string>{"/data/logs", "/data/db"}));
  EXPECT_EQ(options->ring_bytes_per_cpu, 65536u);
  EXPECT_EQ(options->batch_size, 64u);
  EXPECT_FALSE(options->enrich);
  EXPECT_FALSE(options->kernel_filtering);
  EXPECT_EQ(options->hook_cost_ns, 1500);
  EXPECT_EQ(options->first_access_map_entries, 1234u);
  EXPECT_EQ(options->path_cap, 48u);
}

TEST_F(TracerTest, PathCapConfigClampsToWireBuffer) {
  auto config = Config::ParseString(R"(
[tracer]
path_cap = 99999
)");
  ASSERT_TRUE(config.ok());
  auto options = TracerOptions::FromConfig(*config);
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->path_cap, kWirePathCap);
}

// Counts go through GetCount: a negative or non-integer value is rejected
// with an error naming the key, instead of falling back silently or turning
// into ~2^64. Checked at FromConfig only — never build a tracer from them.
TEST_F(TracerTest, OptionsFromConfigRejectsBadCounts) {
  const std::pair<const char*, const char*> cases[] = {
      {"ring_bytes_per_cpu = -1", "tracer.ring_bytes_per_cpu"},
      {"ring_bytes_per_cpu = 0", "tracer.ring_bytes_per_cpu"},
      {"ring_bytes_per_cpu = 64k", "tracer.ring_bytes_per_cpu"},
      {"pending_map_entries = -5", "tracer.pending_map_entries"},
      {"first_access_map_entries = 0", "tracer.first_access_map_entries"},
      {"first_access_map_entries = lots", "tracer.first_access_map_entries"},
      {"batch_size = 0", "tracer.batch_size"},
      {"batch_size = 1.5", "tracer.batch_size"},
      {"consumer_threads = -1", "tracer.consumer_threads"},
      {"consumer_threads = two", "tracer.consumer_threads"},
      {"path_cap = -8", "tracer.path_cap"},
  };
  for (const auto& [line, key] : cases) {
    auto config = Config::ParseString(std::string("[tracer]\n") + line + "\n");
    ASSERT_TRUE(config.ok()) << line;
    auto options = TracerOptions::FromConfig(*config);
    ASSERT_FALSE(options.ok()) << line;
    EXPECT_NE(options.status().message().find(key), std::string::npos)
        << line << " -> " << options.status().message();
  }
  // The minimums themselves are accepted.
  auto config = Config::ParseString(
      "[tracer]\nring_bytes_per_cpu = 1\npending_map_entries = 1\n"
      "first_access_map_entries = 1\nbatch_size = 1\nconsumer_threads = 0\n"
      "path_cap = 0\n");
  ASSERT_TRUE(config.ok());
  auto options = TracerOptions::FromConfig(*config);
  ASSERT_TRUE(options.ok()) << options.status().message();
  EXPECT_EQ(options->batch_size, 1u);
  EXPECT_EQ(options->consumer_threads, 0u);
  EXPECT_EQ(options->path_cap, 0u);
}

TEST_F(TracerTest, PidFilterDropsOtherProcesses) {
  TracerOptions options = FastOptions();
  options.pids = {env_.pid};
  DioTracer tracer(&env_.kernel, &sink_, options);
  ASSERT_TRUE(tracer.Start().ok());

  const os::Pid other_pid = env_.kernel.CreateProcess("other");
  const os::Tid other_tid = env_.kernel.SpawnThread(other_pid, "other");
  {
    auto task = env_.Bind();
    env_.kernel.sys_mkdir("/data/mine", 0755);
  }
  {
    os::ScopedTask task(env_.kernel, other_pid, other_tid);
    env_.kernel.sys_mkdir("/data/theirs", 0755);
  }
  tracer.Stop();

  auto docs = sink_.DocsFor("mkdir");
  ASSERT_EQ(docs.size(), 1u);
  EXPECT_EQ(docs[0].GetString("path"), "/data/mine");
  EXPECT_GT(tracer.stats().filtered_out, 0u);
}

TEST_F(TracerTest, PathFilterKeepsOnlyWatchedFiles) {
  TracerOptions options = FastOptions();
  options.paths = {"/data/watched"};
  DioTracer tracer(&env_.kernel, &sink_, options);
  ASSERT_TRUE(tracer.Start().ok());
  {
    auto task = env_.Bind();
    os::Kernel& k = env_.kernel;
    k.sys_mkdir("/data/watched", 0755);
    auto fd = static_cast<os::Fd>(
        k.sys_creat("/data/watched/a.log", 0644));
    k.sys_write(fd, "in scope");
    k.sys_close(fd);
    auto fd2 = static_cast<os::Fd>(k.sys_creat("/data/other.log", 0644));
    k.sys_write(fd2, "out of scope");
    k.sys_close(fd2);
  }
  tracer.Stop();

  for (const Json& doc : sink_.docs()) {
    const std::string path = doc.GetString("path");
    if (!path.empty()) {
      EXPECT_TRUE(path.starts_with("/data/watched")) << path;
    }
  }
  // The fd-based write to the watched file is kept (fd resolves to the
  // watched path); the unwatched write is dropped.
  auto writes = sink_.DocsFor("write");
  ASSERT_EQ(writes.size(), 1u);
  EXPECT_EQ(writes[0].GetInt("ret"), 8);
}

TEST_F(TracerTest, UserSpaceFilteringMatchesKernelFiltering) {
  auto run = [&](bool kernel_filtering) {
    TestEnv env;
    CollectingSink sink;
    TracerOptions options = FastOptions();
    options.kernel_filtering = kernel_filtering;
    options.syscalls = {"write"};
    options.pids = {env.pid};
    DioTracer tracer(&env.kernel, &sink, options);
    EXPECT_TRUE(tracer.Start().ok());
    {
      auto task = std::make_unique<os::ScopedTask>(env.kernel, env.pid,
                                                   env.tid);
      auto fd = static_cast<os::Fd>(env.kernel.sys_creat("/data/u", 0644));
      env.kernel.sys_write(fd, "abc");
      env.kernel.sys_write(fd, "def");
      env.kernel.sys_close(fd);
    }
    tracer.Stop();
    return sink.DocsFor("write").size();
  };
  EXPECT_EQ(run(true), run(false));
}

TEST_F(TracerTest, TinyRingDropsEventsAndCountsThem) {
  TracerOptions options = FastOptions();
  options.ring_bytes_per_cpu = 256;  // tiny: forces §III-D discards
  options.poll_interval_ns = 50 * kMillisecond;  // slow consumer
  DioTracer tracer(&env_.kernel, &sink_, options);
  ASSERT_TRUE(tracer.Start().ok());
  {
    auto task = env_.Bind();
    os::Kernel& k = env_.kernel;
    const auto fd = static_cast<os::Fd>(k.sys_creat("/data/burst", 0644));
    for (int i = 0; i < 500; ++i) k.sys_write(fd, "x");
    k.sys_close(fd);
  }
  tracer.Stop();
  const TracerStats stats = tracer.stats();
  EXPECT_GT(stats.ring_dropped, 0u);
  EXPECT_GT(stats.drop_ratio(), 0.0);
  EXPECT_EQ(stats.ring_pushed, stats.consumed);
  EXPECT_LT(sink_.docs().size(), 502u);
}

TEST_F(TracerTest, PendingMapOverflowCounted) {
  TracerOptions options = FastOptions();
  options.pending_map_entries = 0;  // every entry insert fails
  DioTracer tracer(&env_.kernel, &sink_, options);
  ASSERT_TRUE(tracer.Start().ok());
  {
    auto task = env_.Bind();
    env_.kernel.sys_mkdir("/data/pmo", 0755);
  }
  tracer.Stop();
  const TracerStats stats = tracer.stats();
  EXPECT_GT(stats.pending_overflow, 0u);
  EXPECT_GT(stats.unmatched_exit, 0u);
  EXPECT_TRUE(sink_.docs().empty());
}

TEST_F(TracerTest, BatchingRespectsBatchSize) {
  TracerOptions options = FastOptions();
  options.batch_size = 10;
  options.flush_interval_ns = 10 * kSecond;  // only size-triggered flushes
  DioTracer tracer(&env_.kernel, &sink_, options);
  ASSERT_TRUE(tracer.Start().ok());
  {
    auto task = env_.Bind();
    const auto fd = static_cast<os::Fd>(env_.kernel.sys_creat("/data/b", 0644));
    for (int i = 0; i < 98; ++i) env_.kernel.sys_write(fd, "y");
    env_.kernel.sys_close(fd);
  }
  tracer.Stop();
  EXPECT_EQ(sink_.docs().size(), 100u);  // creat + 98 writes + close
  EXPECT_GE(sink_.batches(), 10);
}

TEST_F(TracerTest, StatsConsistency) {
  DioTracer tracer(&env_.kernel, &sink_, FastOptions());
  ASSERT_TRUE(tracer.Start().ok());
  {
    auto task = env_.Bind();
    const auto fd = static_cast<os::Fd>(env_.kernel.sys_creat("/data/sc", 0644));
    for (int i = 0; i < 50; ++i) env_.kernel.sys_write(fd, "z");
    env_.kernel.sys_close(fd);
  }
  tracer.Stop();
  const TracerStats stats = tracer.stats();
  EXPECT_EQ(stats.enter_hits, stats.exit_hits);
  EXPECT_EQ(stats.ring_pushed, stats.consumed);
  EXPECT_EQ(stats.consumed, stats.emitted);
  EXPECT_EQ(stats.emitted, 52u);
  EXPECT_EQ(stats.decode_errors, 0u);
}

TEST_F(TracerTest, DoubleStartRejectedAndStopIdempotent) {
  DioTracer tracer(&env_.kernel, &sink_, FastOptions());
  ASSERT_TRUE(tracer.Start().ok());
  EXPECT_FALSE(tracer.Start().ok());
  tracer.Stop();
  tracer.Stop();  // no crash
}

TEST_F(TracerTest, RawModeUserSpacePairingMatchesAggregatedMode) {
  // Ablation A4: raw enter/exit records paired in user space must yield the
  // same final event set (basic fields) as kernel-space aggregation.
  const auto run = [&](bool aggregate) {
    TestEnv env;
    CollectingSink sink;
    TracerOptions options = FastOptions();
    options.aggregate_in_kernel = aggregate;
    DioTracer tracer(&env.kernel, &sink, options);
    EXPECT_TRUE(tracer.Start().ok());
    {
      auto task = std::make_unique<os::ScopedTask>(env.kernel, env.pid,
                                                   env.tid);
      const auto fd =
          static_cast<os::Fd>(env.kernel.sys_creat("/data/agg", 0644));
      env.kernel.sys_write(fd, "0123456789");
      env.kernel.sys_write(fd, "abc");
      env.kernel.sys_close(fd);
    }
    tracer.Stop();
    return std::make_pair(sink.docs(), tracer.stats());
  };

  const auto [agg_docs, agg_stats] = run(true);
  const auto [raw_docs, raw_stats] = run(false);
  ASSERT_EQ(agg_docs.size(), raw_docs.size());
  for (std::size_t i = 0; i < agg_docs.size(); ++i) {
    EXPECT_EQ(agg_docs[i].GetString("syscall"),
              raw_docs[i].GetString("syscall"));
    EXPECT_EQ(agg_docs[i].GetInt("ret"), raw_docs[i].GetInt("ret"));
    EXPECT_EQ(agg_docs[i].GetString("comm"), raw_docs[i].GetString("comm"));
    EXPECT_GE(raw_docs[i].GetInt("duration_ns"), 0);
  }
  // Raw mode pushed ~2x the records across the ring.
  EXPECT_EQ(raw_stats.ring_pushed, 2 * agg_stats.ring_pushed);
  // write offsets still enriched from entry-time state in raw mode.
  for (const Json& doc : raw_docs) {
    if (doc.GetString("syscall") == "write" && doc.GetInt("ret") == 3) {
      EXPECT_EQ(doc.GetInt("file_offset"), 10);
    }
  }
}

TEST_F(TracerTest, EnrichmentDisabledOmitsKernelContext) {
  TracerOptions options = FastOptions();
  options.enrich = false;
  DioTracer tracer(&env_.kernel, &sink_, options);
  ASSERT_TRUE(tracer.Start().ok());
  {
    auto task = env_.Bind();
    const auto fd = static_cast<os::Fd>(env_.kernel.sys_creat("/data/ne", 0644));
    env_.kernel.sys_write(fd, "www");
    env_.kernel.sys_close(fd);
  }
  tracer.Stop();
  for (const Json& doc : sink_.docs()) {
    EXPECT_FALSE(doc.Has("file_tag"));
    EXPECT_FALSE(doc.Has("file_offset"));
    EXPECT_FALSE(doc.Has("file_type"));
  }
  // Raw syscall info is still there.
  EXPECT_EQ(sink_.DocsFor("write").size(), 1u);
}

TEST_F(TracerTest, CorruptRingRecordsCountDecodeErrors) {
  DioTracer tracer(&env_.kernel, &sink_, FastOptions());
  ASSERT_TRUE(tracer.Start().ok());
  // A record of all-0xFF (invalid syscall number) and a short fragment:
  // both must be counted and skipped, never crash the consumer.
  const std::vector<std::byte> garbage(sizeof(WireEvent), std::byte{0xFF});
  ASSERT_TRUE(DioTracerTestPeer::InjectRaw(&tracer, 0, garbage));
  const std::vector<std::byte> fragment(16, std::byte{0});
  ASSERT_TRUE(DioTracerTestPeer::InjectRaw(&tracer, 0, fragment));
  {
    auto task = env_.Bind();
    env_.kernel.sys_mkdir("/data/ok", 0755);
  }
  tracer.Stop();
  const TracerStats stats = tracer.stats();
  EXPECT_EQ(stats.decode_errors, 2u);
  // The real event around the corruption still decodes and ships.
  EXPECT_EQ(sink_.DocsFor("mkdir").size(), 1u);
}

TEST_F(TracerTest, PathTruncationIsCountedPerField) {
  DioTracer tracer(&env_.kernel, &sink_, FastOptions());
  ASSERT_TRUE(tracer.Start().ok());
  const std::string path = "/data/" + std::string(kWirePathCap + 20, 'x');
  {
    auto task = env_.Bind();
    env_.kernel.sys_mkdir(path, 0755);
  }
  tracer.Stop();
  const TracerStats stats = tracer.stats();
  EXPECT_EQ(stats.truncated_path_bytes, path.size() - kWirePathCap);
  EXPECT_EQ(stats.truncated_bytes(), stats.truncated_path_bytes);
  auto docs = sink_.DocsFor("mkdir");
  ASSERT_EQ(docs.size(), 1u);
  EXPECT_EQ(docs[0].GetString("path"), path.substr(0, kWirePathCap));
}

TEST_F(TracerTest, PathCapKnobTightensCapture) {
  TracerOptions options = FastOptions();
  options.path_cap = 8;
  DioTracer tracer(&env_.kernel, &sink_, options);
  ASSERT_TRUE(tracer.Start().ok());
  {
    auto task = env_.Bind();
    env_.kernel.sys_mkdir("/data/verbose", 0755);
  }
  tracer.Stop();
  const TracerStats stats = tracer.stats();
  const std::string full = "/data/verbose";
  EXPECT_EQ(stats.truncated_path_bytes, full.size() - 8);
  auto docs = sink_.DocsFor("mkdir");
  ASSERT_EQ(docs.size(), 1u);
  EXPECT_EQ(docs[0].GetString("path"), full.substr(0, 8));
}

}  // namespace
}  // namespace dio::tracer
