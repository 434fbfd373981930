// Shared helpers for the gtest suites: a ready-made substrate (kernel +
// mounted device with accounting-only disk, so tests run fast) and a bound
// task for issuing syscalls from the test thread.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <memory>
#include <string>

#include "oskernel/kernel.h"

namespace dio::testing {

// A file path of the running test's own under ::testing::TempDir(), named
// from the test and the pid: ctest runs each case as its own process, in
// parallel under -j, so cases that wrote one fixed path would race.
inline std::string TestTempPath(const std::string& suffix) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "." + info->name();
  for (char& c : name) {
    if (c == '/') c = '_';  // parameterized names
  }
  return ::testing::TempDir() + "dio_" + name + "_" +
         std::to_string(::getpid()) + suffix;
}

inline os::BlockDeviceOptions FastDisk() {
  os::BlockDeviceOptions options;
  options.real_sleep = false;  // account, don't sleep
  return options;
}

// Kernel with "/data" mounted on device 7340032 (the dev number visible in
// the paper's Fig. 2) and one bound task named "test".
class TestEnv {
 public:
  explicit TestEnv(os::KernelOptions kernel_options = {})
      : kernel(kernel_options) {
    device = kernel.MountDevice("/data", 7340032, FastDisk()).value();
    pid = kernel.CreateProcess("test");
    tid = kernel.SpawnThread(pid, "test");
  }

  // Binds the calling thread; keep the returned guard alive for the test.
  [[nodiscard]] std::unique_ptr<os::ScopedTask> Bind() {
    return std::make_unique<os::ScopedTask>(kernel, pid, tid);
  }

  os::Kernel kernel;
  os::BlockDevice* device = nullptr;
  os::Pid pid = os::kNoPid;
  os::Tid tid = os::kNoTid;
};

}  // namespace dio::testing
