// SyscallIssuer as the replay half of record/replay: capture a workload
// with DIO into a trace (RecordingEventSink), re-issue the trace against a
// fresh substrate, and verify the I/O pattern (operations, sizes, return
// values, final file state) reproduces.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "test_util.h"
#include "trace/reader.h"
#include "trace/replay.h"
#include "trace/writer.h"
#include "tracer/tracer.h"

namespace dio::trace {
namespace {

using dio::testing::TestEnv;

// Downstream of the recording tee: the replay tests only need the file.
class DiscardSink final : public tracer::EventSink {
 public:
  void IndexBatch(std::vector<Json>) override {}
  void IndexEvents(std::string_view, std::vector<tracer::Event>) override {}
  void IndexWire(std::string_view, std::vector<tracer::WireEvent>) override {}
  void Flush() override {}
};

class ReplayTest : public ::testing::Test {
 protected:
  // Traces `workload` on a fresh env into a trace file. `workload` gets the
  // env (with no task bound) so it can create its own processes.
  template <typename Workload>
  void CaptureEnv(Workload&& workload) {
    TestEnv env;
    auto writer = TraceWriter::Open(path_);
    ASSERT_TRUE(writer.ok()) << writer.status().message();
    DiscardSink discard;
    RecordingEventSink recording(writer->get(), &discard);
    tracer::TracerOptions options;
    options.session_name = "capture";
    options.flush_interval_ns = kMillisecond;
    tracer::DioTracer tracer(&env.kernel, &recording, options);
    ASSERT_TRUE(tracer.Start().ok());
    workload(env);
    tracer.Stop();
  }

  // Same, with the env's default task bound around `workload`.
  template <typename Workload>
  void Capture(Workload&& workload) {
    CaptureEnv([&](TestEnv& env) {
      auto task = env.Bind();
      workload(env.kernel);
    });
  }

  // Re-issues the recorded trace, in the order the syscalls entered the
  // kernel, against `kernel`.
  IssueStats Replay(os::Kernel* kernel) {
    auto records = ReadTraceFile(path_);
    EXPECT_TRUE(records.ok()) << records.status().message();
    if (!records.ok()) return {};
    std::stable_sort(records->begin(), records->end(),
                     [](const tracer::WireEvent& a, const tracer::WireEvent& b) {
                       return a.time_enter < b.time_enter;
                     });
    SyscallIssuer issuer(kernel);
    for (const tracer::WireEvent& record : *records) issuer.Issue(record);
    return issuer.stats();
  }

  void TearDown() override { std::remove(path_.c_str()); }

  const std::string path_ =
      (std::filesystem::temp_directory_path() /
       ("dio-issuer-" +
        std::string(::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name()) +
        ".trace"))
          .string();
};

TEST_F(ReplayTest, ReproducesFileStateAndReturnValues) {
  Capture([](os::Kernel& k) {
    k.sys_mkdir("/data/logs", 0755);
    const auto fd = static_cast<os::Fd>(k.sys_openat(
        os::kAtFdCwd, "/data/logs/app.log",
        os::openflag::kWriteOnly | os::openflag::kCreate));
    k.sys_write(fd, std::string(100, 'a'));
    k.sys_write(fd, std::string(50, 'b'));
    k.sys_fsync(fd);
    k.sys_close(fd);
    const auto rfd = static_cast<os::Fd>(k.sys_openat(
        os::kAtFdCwd, "/data/logs/app.log", os::openflag::kReadOnly));
    std::string buf;
    k.sys_read(rfd, &buf, 64);
    k.sys_lseek(rfd, 0, os::kSeekSet);
    k.sys_read(rfd, &buf, 200);
    k.sys_close(rfd);
    k.sys_rename("/data/logs/app.log", "/data/logs/app.old");
  });

  // Fresh substrate with the same mount.
  TestEnv replay_env;
  const IssueStats stats = Replay(&replay_env.kernel);
  EXPECT_EQ(stats.skipped, 0u);
  EXPECT_EQ(stats.issued, 12u);
  EXPECT_EQ(stats.ret_mismatches, 0u);
  EXPECT_EQ(stats.ret_matches, stats.issued);

  // The replayed filesystem has the same shape.
  os::StatBuf st;
  auto task = replay_env.Bind();
  EXPECT_EQ(replay_env.kernel.sys_stat("/data/logs/app.old", &st), 0);
  EXPECT_EQ(st.size, 150u);
  EXPECT_EQ(replay_env.kernel.sys_stat("/data/logs/app.log", &st),
            -os::err::kENOENT);
}

TEST_F(ReplayTest, ReproducesDeleteRecreatePattern) {
  Capture([](os::Kernel& k) {
    auto fd = static_cast<os::Fd>(k.sys_creat("/data/x", 0644));
    k.sys_write(fd, std::string(26, 'x'));
    k.sys_close(fd);
    k.sys_unlink("/data/x");
    fd = static_cast<os::Fd>(k.sys_creat("/data/x", 0644));
    k.sys_write(fd, std::string(16, 'y'));
    k.sys_close(fd);
  });

  TestEnv replay_env;
  const IssueStats stats = Replay(&replay_env.kernel);
  EXPECT_EQ(stats.issued, 7u);
  EXPECT_EQ(stats.ret_mismatches, 0u);
  auto task = replay_env.Bind();
  os::StatBuf st;
  ASSERT_EQ(replay_env.kernel.sys_stat("/data/x", &st), 0);
  EXPECT_EQ(st.size, 16u);  // the second generation
}

TEST_F(ReplayTest, FailedSyscallsReplayAsFailures) {
  Capture([](os::Kernel& k) {
    os::StatBuf st;
    k.sys_stat("/data/missing", &st);       // -ENOENT
    k.sys_unlink("/data/also-missing");     // -ENOENT
    k.sys_mkdir("/data", 0755);             // -EEXIST
  });

  TestEnv replay_env;
  const IssueStats stats = Replay(&replay_env.kernel);
  EXPECT_EQ(stats.ret_mismatches, 0u)
      << "issued=" << stats.issued << " skipped=" << stats.skipped
      << " matches=" << stats.ret_matches;
  EXPECT_EQ(stats.ret_matches, 3u)
      << "issued=" << stats.issued << " skipped=" << stats.skipped
      << " mismatches=" << stats.ret_mismatches;
}

TEST_F(ReplayTest, MultiProcessTraceKeepsFdSpacesSeparate) {
  // Two traced processes interleave on the same file.
  CaptureEnv([](TestEnv& env) {
    const os::Pid p1 = env.kernel.CreateProcess("writer");
    const os::Tid t1 = env.kernel.SpawnThread(p1, "writer");
    const os::Pid p2 = env.kernel.CreateProcess("reader");
    const os::Tid t2 = env.kernel.SpawnThread(p2, "reader");
    os::ScopedTask task(env.kernel, p1, t1);
    const auto fd = static_cast<os::Fd>(env.kernel.sys_creat("/data/m", 0644));
    env.kernel.sys_write(fd, std::string(10, 'w'));
    {
      os::ScopedTask inner(env.kernel, p2, t2);
      const auto rfd = static_cast<os::Fd>(env.kernel.sys_openat(
          os::kAtFdCwd, "/data/m", os::openflag::kReadOnly));
      std::string buf;
      env.kernel.sys_read(rfd, &buf, 10);
      env.kernel.sys_close(rfd);
    }
    env.kernel.sys_write(fd, std::string(5, 'w'));
    env.kernel.sys_close(fd);
  });

  TestEnv replay_env;
  const IssueStats stats = Replay(&replay_env.kernel);
  EXPECT_EQ(stats.skipped, 0u);
  EXPECT_EQ(stats.issued, 7u);
  EXPECT_EQ(stats.ret_mismatches, 0u);
  auto task = replay_env.Bind();
  os::StatBuf st;
  ASSERT_EQ(replay_env.kernel.sys_stat("/data/m", &st), 0);
  EXPECT_EQ(st.size, 15u);
}

TEST_F(ReplayTest, MissingTraceErrors) {
  auto records = ReadTraceFile(path_);
  ASSERT_FALSE(records.ok());
  EXPECT_EQ(records.status().code(), ErrorCode::kNotFound);
}

}  // namespace
}  // namespace dio::trace
