// DIO as a service (§II-F): one analysis pipeline, multiple named tracing
// sessions owned by different users, with post-mortem analysis after the
// tracers are gone.
//
// Build & run:  ./build/examples/service_mode
#include <cstdio>

#include "backend/store.h"
#include "common/config.h"
#include "oskernel/kernel.h"
#include "service/dio_service.h"

using namespace dio;

int main() {
  os::Kernel kernel;
  (void)kernel.MountDevice("/data", 7340032, {});
  // The shared, dedicated analysis pipeline. The [backend] section tunes the
  // query engine: a two-thread per-shard fan-out and the ES-style paging
  // guard.
  auto config = Config::ParseString(
      "[backend]\n"
      "shards_per_index = 4\n"
      "query_threads = 2\n"
      "max_result_window = 10000\n");
  auto store_options = backend::ElasticStoreOptions::FromConfig(*config);
  if (!store_options.ok()) {
    std::fprintf(stderr, "bad [backend] config: %s\n",
                 store_options.status().message().c_str());
    return 1;
  }
  backend::ElasticStore store(*store_options);
  service::DioService service(&kernel, &store);

  // Alice traces everything; Bob only data syscalls on his directory.
  tracer::TracerOptions alice;
  alice.session_name = "alice-full-trace";
  backend::BulkClientOptions fast;
  fast.network_latency_ns = 0;
  (void)service.StartSession(alice, "alice", fast);

  tracer::TracerOptions bob;
  bob.session_name = "bob-data-only";
  bob.syscalls = {"openat", "read", "write", "close"};
  bob.paths = {"/data/bob"};
  (void)service.StartSession(bob, "bob", fast);

  // Two applications run concurrently.
  const os::Pid pid = kernel.CreateProcess("workload");
  const os::Tid tid = kernel.SpawnThread(pid, "workload");
  {
    os::ScopedTask task(kernel, pid, tid);
    kernel.sys_mkdir("/data/bob", 0755);
    const auto fd1 = static_cast<os::Fd>(kernel.sys_creat("/data/a.log", 0644));
    const auto fd2 = static_cast<os::Fd>(kernel.sys_openat(
        os::kAtFdCwd, "/data/bob/b.log",
        os::openflag::kWriteOnly | os::openflag::kCreate));
    for (int i = 0; i < 200; ++i) {
      kernel.sys_write(fd1, "alice sees this\n");
      kernel.sys_write(fd2, "both see this\n");
    }
    kernel.sys_close(fd1);
    kernel.sys_close(fd2);
  }

  service.StopAll();

  std::printf("sessions registered at the service:\n");
  for (const service::SessionInfo& info : service.ListSessions()) {
    std::printf("  %s\n", info.ToJson().Dump().c_str());
  }

  // Sessions can be snapshotted to disk and reloaded later (post-mortem
  // analysis across restarts).
  if (store.SaveIndex("alice-full-trace", "/tmp/alice-session.jsonl").ok()) {
    backend::ElasticStore later;
    auto loaded = later.LoadIndex("/tmp/alice-session.jsonl");
    std::printf("\nsnapshot round trip: reloaded index '%s' with %zu docs\n",
                loaded.ok() ? loaded->c_str() : "?",
                loaded.ok()
                    ? *later.Count(*loaded, backend::Query::MatchAll())
                    : 0);
  }

  // Post-mortem diagnosis per session.
  for (const std::string session : {"alice-full-trace", "bob-data-only"}) {
    auto findings = service.Diagnose(session);
    std::printf("\ndiagnosis for %s:\n", session.c_str());
    if (findings.ok()) {
      std::printf("%s", backend::RenderFindings(*findings).c_str());
    }
  }
  return 0;
}
