// perfbench: one end-to-end run of the DIO stack on a seeded trace corpus.
//
//   trace::SyscallIssuer (open-loop generator, pinned to a core of its own)
//     -> oskernel -> tracer -> transport -> backend store | cluster router
//     -> FilePathCorrelator + detectors -> viz::Dashboards
//
// One process runs one workload: an untimed warm-up session on another seed,
// then kSessions measured sessions on fresh stacks, each with its diagnosis
// (stop + drain, correlate, every detector) and an exploration phase
// (closed-loop dashboard panels). It checks the outputs and prints one JSON
// line with every metric. With --trace 1 the probes also record spans and
// per-layer samples, and an untraced pass re-issues the same input without
// the tracer.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--spans FILE] [--reference-only 1]
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "backend/bulk_client.h"
#include "backend/correlation.h"
#include "backend/detectors.h"
#include "backend/store.h"
#include "cluster/cluster_sink.h"
#include "cluster/router.h"
#include "common/json.h"
#include "oskernel/kernel.h"
#include "probes.h"
#include "trace/corpus.h"
#include "trace/replay.h"
#include "tracer/tracer.h"
#include "transport/pipeline.h"
#include "viz/dashboard.h"

namespace perfbench {
namespace {

namespace backend = dio::backend;
namespace cluster = dio::cluster;

// ---- workloads --------------------------------------------------------------

struct Workload {
  const char* name;
  dio::trace::CorpusClass corpus;
  double rate;          // syscalls per second, fixed-rate open loop
  bool cluster;         // 3-node router, replicas=1, ack=quorum
  bool live_reader;     // one closed-loop dashboard reader during ingest
  const char* comm;     // the corpus's process name (latency-series panel)
};

// Rates sit below what the pinned generator holds with the substrate cost
// included (see NOTES.md).
constexpr Workload kWorkloads[] = {
    {"live-fluentbit", dio::trace::CorpusClass::kFluentBit, 40000, false, true,
     "fluent-bit"},
    {"postmortem-rocksdb", dio::trace::CorpusClass::kRocksDb, 20000, false,
     false, "db_bench"},
    {"postmortem-walfsync-cluster", dio::trace::CorpusClass::kWalFsync, 20000,
     true, false, "wal-writer"},
};

// Seed of the untimed warm-up session: never the measured seed.
std::uint64_t WarmupSeed(std::uint64_t seed) { return seed ^ 0x5eed5eedULL; }

// ---- cpus and threads -------------------------------------------------------

// The generator gets one allowed cpu to itself; every thread the DIO stack
// starts inherits the remaining cpus from the main thread. Each session moves
// the generator to the next allowed cpu: a shared host slows single vCPUs by
// up to 2x for seconds at a time, each vCPU on its own schedule, so a
// generator kept on one vCPU for a whole run measures that vCPU's luck (see
// NOTES.md).
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  return cpus;
}

// Confines the main thread, and so every DIO thread it starts from now on, to
// the cpus session `session` leaves to DIO, and returns that session's
// generator cpu: the last allowed cpu first, then the others in turn. Returns
// -1 (nothing pinned) with fewer than two cpus.
int PinSession(const std::vector<int>& cpus, int session) {
  const std::size_t n = cpus.size();
  if (n < 2) return -1;
  const int generator = cpus[(n - 1 + static_cast<std::size_t>(session)) % n];
  cpu_set_t dio;
  CPU_ZERO(&dio);
  for (const int cpu : cpus) {
    if (cpu != generator) CPU_SET(cpu, &dio);
  }
  sched_setaffinity(0, sizeof(dio), &dio);
  return generator;
}

void PinCurrentThread(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

// Thread budget, at most one thread per cpu: generator 1 (own cpu) +
// tracer consumer 1 + transport queue sender 1 + the live dashboard reader on
// the workload that has one. Queries run on the calling thread, on the store
// and on the router alike: a pooled cluster scatter waits on cross-cpu
// wake-ups whose latency on a shared VM changes from run to run (explore p99
// 6 vs 16 ms), so the router scatters serially (see NOTES.md).
constexpr std::size_t kConsumerThreads = 1;  // tracer.consumer_threads
constexpr std::size_t kQueryThreads = 0;     // backend.query_threads and
                                             // cluster.query_threads

// ---- /proc ------------------------------------------------------------------

double ProcStatusMb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return 0;
}

// Drops freed heap back to the OS and restarts the peak-RSS mark, so the
// measured session's peak excludes the warm-up.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.close();
  return static_cast<bool>(out);
}

// ---- the stack --------------------------------------------------------------

// One tracing session assembled the way DioService::StartSession does it,
// with the benchmark's probes at the layer boundaries. Members are declared
// so that producers are destroyed before what they feed.
struct Stack {
  std::unique_ptr<dio::os::Kernel> kernel;
  std::unique_ptr<backend::ElasticStore> store;
  std::unique_ptr<cluster::ClusterRouter> router;
  backend::QueryBackend* backend = nullptr;  // store or router
  std::unique_ptr<QueryProbe> query;
  BatchArrivals arrivals;
  std::unique_ptr<dio::transport::Pipeline> pipeline;
  TerminalProbe* terminal = nullptr;  // owned by the pipeline
  std::unique_ptr<HeadProbe> head;
  std::unique_ptr<dio::tracer::DioTracer> tracer;
  std::string index;
};

std::unique_ptr<dio::os::Kernel> MakeKernel() {
  auto kernel = std::make_unique<dio::os::Kernel>();
  dio::os::BlockDeviceOptions device;
  device.real_sleep = false;
  auto mounted = kernel->MountDevice("/data", 7340032, device);
  if (!mounted.ok()) {
    std::fprintf(stderr, "perfbench: mount failed: %s\n",
                 mounted.status().message().c_str());
    std::exit(2);
  }
  return kernel;
}

std::unique_ptr<Stack> BuildStack(const Workload& workload, SpanLog* spans,
                                  const std::string& index) {
  auto stack = std::make_unique<Stack>();
  stack->index = index;
  stack->kernel = MakeKernel();

  backend::ElasticStoreOptions store_options;
  store_options.query_threads = kQueryThreads;
  if (workload.cluster) {
    cluster::ClusterOptions options;
    options.nodes = 3;
    options.replicas = 1;
    options.ack = cluster::AckLevel::kQuorum;
    options.query_threads = kQueryThreads;
    options.store = store_options;
    stack->router = std::make_unique<cluster::ClusterRouter>(options);
    stack->backend = stack->router.get();
  } else {
    stack->store = std::make_unique<backend::ElasticStore>(store_options);
    stack->backend = stack->store.get();
  }
  stack->query = std::make_unique<QueryProbe>(stack->backend, spans);

  Stack* s = stack.get();
  auto make_sink = [s, spans](const std::string& sink_name,
                              const dio::transport::PipelineOptions&)
      -> dio::Expected<std::unique_ptr<dio::transport::Transport>> {
    if (sink_name != "bulk") {
      return dio::InvalidArgument("perfbench: unknown sink: " + sink_name);
    }
    std::unique_ptr<dio::transport::Transport> inner;
    if (s->router != nullptr) {
      inner = std::make_unique<cluster::ClusterBulkSink>(
          s->router.get(), s->index, 200 * dio::kMicrosecond,
          s->kernel->clock());
    } else {
      inner = std::make_unique<backend::BulkClient>(
          s->store.get(), s->index, backend::BulkClientOptions{},
          s->kernel->clock());
    }
    auto terminal = std::make_unique<TerminalProbe>(
        std::move(inner), s->backend, s->index, &s->arrivals, spans);
    s->terminal = terminal.get();
    return std::unique_ptr<dio::transport::Transport>(std::move(terminal));
  };
  auto pipeline = dio::transport::Pipeline::Build(
      index, dio::transport::PipelineOptions{}, make_sink,
      stack->kernel->clock());
  if (!pipeline.ok()) {
    std::fprintf(stderr, "perfbench: pipeline: %s\n",
                 pipeline.status().message().c_str());
    std::exit(2);
  }
  stack->pipeline = std::move(*pipeline);
  stack->head = std::make_unique<HeadProbe>(stack->pipeline.get(),
                                            &stack->arrivals, spans);

  dio::tracer::TracerOptions tracer_options;
  tracer_options.session_name = index;
  tracer_options.consumer_threads = kConsumerThreads;
  stack->tracer = std::make_unique<dio::tracer::DioTracer>(
      stack->kernel.get(), stack->head.get(), tracer_options);
  return stack;
}

// ---- open-loop generator ----------------------------------------------------

struct IssueResult {
  TimedSamples latency_us;         // due time -> return, by due time
  std::vector<double> service_ns;  // call -> return, issued syscalls
  double late_ms_max = 0;          // how far behind schedule a call started
  Nanos ready = 0;  // generator pinned, about to start its schedule
  Nanos first_call = 0;
  Nanos last_return = 0;
  std::uint64_t issued = 0;
};

// Issues `events` as real syscalls at `rate` per second from a thread
// pinned to `cpu`; each call is timed from when it was due.
IssueResult IssueOpenLoop(dio::os::Kernel* kernel,
                          const std::vector<dio::tracer::WireEvent>& events,
                          double rate, int cpu, SpanLog* spans,
                          std::uint32_t parent_span = 0) {
  IssueResult result;
  result.latency_us.at.reserve(events.size());
  result.latency_us.value.reserve(events.size());
  result.service_ns.reserve(events.size());
  std::thread generator([&] {
    PinCurrentThread(cpu);
    dio::trace::SyscallIssuer issuer(kernel);
    const double period_ns = 1e9 / rate;
    result.ready = Now();
    const Nanos t0 = result.ready + dio::kMillisecond;
    ScopedSpan span(spans, "app.issue", parent_span);
    for (std::size_t i = 0; i < events.size(); ++i) {
      const Nanos due = t0 + static_cast<Nanos>(static_cast<double>(i) *
                                                period_ns);
      // Load the record before it is due: the timed call is the syscall,
      // not the benchmark fetching its input from memory.
      const char* record = reinterpret_cast<const char*>(&events[i]);
      for (std::size_t line = 0; line < sizeof(events[i]); line += 64) {
        __builtin_prefetch(record + line);
      }
      Nanos start = Now();
      if (cpu >= 0) {
        while (start < due) start = Now();
      } else {
        while (start < due) {
          std::this_thread::yield();
          start = Now();
        }
      }
      const std::uint64_t before = issuer.stats().issued;
      issuer.Issue(events[i]);
      const Nanos end = Now();
      if (issuer.stats().issued == before) continue;
      if (result.first_call == 0) result.first_call = start;
      result.last_return = end;
      result.latency_us.Add(due, static_cast<double>(end - due) / 1e3);
      result.service_ns.push_back(static_cast<double>(end - start));
      result.late_ms_max =
          std::max(result.late_ms_max, static_cast<double>(start - due) / 1e6);
    }
    result.issued = issuer.stats().issued;
  });
  generator.join();
  return result;
}

// ---- dashboard panels -------------------------------------------------------

struct Panel {
  const char* name;
  std::function<dio::Status(const dio::viz::Dashboards&)> run;
};

template <typename T>
dio::Status StatusOf(const dio::Expected<T>& result) {
  return result.ok() ? dio::Status::Ok() : result.status();
}

std::vector<Panel> MakePanels(const Workload& workload) {
  const std::string comm = workload.comm;
  constexpr std::int64_t kWindow = 100 * dio::kMillisecond;
  return {
      {"syscall_table",
       [](const dio::viz::Dashboards& d) {
         return StatusOf(d.SyscallTable(backend::Query::MatchAll(), 100));
       }},
      {"syscall_summary",
       [](const dio::viz::Dashboards& d) {
         return StatusOf(d.SyscallSummary());
       }},
      {"syscall_share",
       [](const dio::viz::Dashboards& d) {
         return StatusOf(d.SyscallShare());
       }},
      {"thread_timeline",
       [](const dio::viz::Dashboards& d) {
         return StatusOf(d.ThreadTimeline(kWindow));
       }},
      {"latency_series",
       [comm](const dio::viz::Dashboards& d) {
         return StatusOf(d.LatencySeries(comm, kWindow));
       }},
  };
}

struct PanelSamples {
  TimedSamples all_ms;  // every panel call, by start time
  std::map<std::string, std::vector<double>> per_panel_ms;
  std::uint64_t errors = 0;
};

void RunPanel(const Panel& panel, const dio::viz::Dashboards& dashboards,
              SpanLog* spans, PanelSamples* out) {
  const Nanos start = Now();
  dio::Status status = dio::Status::Ok();
  {
    ScopedSpan span(spans, std::string("viz.") + panel.name);
    status = panel.run(dashboards);
  }
  const double ms = static_cast<double>(Now() - start) / 1e6;
  if (!status.ok()) {
    ++out->errors;
    return;
  }
  out->all_ms.Add(start, ms);
  out->per_panel_ms[panel.name].push_back(ms);
}

// Closed-loop reader during ingest: panels back to back until `stop`.
PanelSamples LiveReader(const Stack& stack, const std::vector<Panel>& panels,
                        const std::stop_token& stop, SpanLog* spans,
                        std::uint32_t parent_span) {
  PanelSamples samples;
  const dio::viz::Dashboards dashboards(stack.query.get(), stack.index);
  ScopedSpan span(spans, "live.reader", parent_span);
  // The analyst opens the dashboard once there is something to show.
  while (!stop.stop_requested() &&
         VisibleEvents(*stack.backend, stack.index) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  while (!stop.stop_requested()) {
    for (const Panel& panel : panels) {
      if (stop.stop_requested()) break;
      RunPanel(panel, dashboards, spans, &samples);
    }
  }
  return samples;
}

// Rounds over every panel per session: 5 sessions x 40 rounds x 5 panels
// give the explore p99 ten samples beyond it.
constexpr int kExploreRounds = 40;

PanelSamples Explore(const Stack& stack, const std::vector<Panel>& panels,
                     int rounds, SpanLog* spans) {
  PanelSamples samples;
  const dio::viz::Dashboards dashboards(stack.query.get(), stack.index);
  ScopedSpan span(spans, "explore");
  for (int round = 0; round < rounds; ++round) {
    for (const Panel& panel : panels) {
      RunPanel(panel, dashboards, spans, &samples);
    }
  }
  return samples;
}

// ---- one session ------------------------------------------------------------

using Findings = std::map<std::string, std::uint64_t>;

struct Detector {
  const char* name;  // the Finding::detector label
  std::function<dio::Expected<std::vector<backend::Finding>>(
      backend::QueryBackend*, const std::string&)>
      run;
};

const std::vector<Detector>& Detectors() {
  static const std::vector<Detector> detectors = {
      {"stale-offset",
       [](backend::QueryBackend* b, const std::string& i) {
         return backend::DetectStaleOffsets(b, i);
       }},
      {"io-contention",
       [](backend::QueryBackend* b, const std::string& i) {
         return backend::DetectContention(b, i);
       }},
      {"small-io",
       [](backend::QueryBackend* b, const std::string& i) {
         return backend::DetectSmallIo(b, i);
       }},
      {"random-access",
       [](backend::QueryBackend* b, const std::string& i) {
         return backend::DetectRandomAccess(b, i);
       }},
      {"syscall-errors",
       [](backend::QueryBackend* b, const std::string& i) {
         return backend::DetectSyscallErrors(b, i);
       }},
  };
  return detectors;
}

struct SessionResult {
  IssueResult issue;
  PanelSamples live;
  PanelSamples explore;
  Nanos verdict = 0;
  double stop_drain_s = 0;
  double correlate_s = 0;
  std::map<std::string, double> detect_s;  // traced runs
  backend::CorrelationStats correlation;
  Findings findings;
  dio::tracer::TracerStats tracer;
  std::vector<dio::transport::StageStats> stages;
  backend::IndexStats after_drain;
  backend::IndexStats after_correlate;
  backend::IndexStats at_end;
  std::uint64_t replication_lag_max = 0;
  double rss_after_ingest_mb = 0;
  double rss_after_correlate_mb = 0;
  double rss_peak_mb = 0;
  QueryProbe::Samples queries;
  std::uint64_t searchable = 0;
  std::uint64_t tagged = 0;
  std::vector<std::string> errors;
};

std::uint64_t ReplicationLag(const Stack& stack) {
  if (stack.router == nullptr) return 0;
  const dio::Json health = stack.router->HealthJson();
  const dio::Json* indices = health.Find("indices");
  std::uint64_t lag = 0;
  if (indices == nullptr || !indices->is_array()) return 0;
  for (const dio::Json& entry : indices->as_array()) {
    if (entry.GetString("index") == stack.index) {
      lag = std::max<std::uint64_t>(
          lag, static_cast<std::uint64_t>(entry.GetInt("max_replication_lag")));
    }
  }
  return lag;
}

backend::IndexStats StatsOf(const Stack& stack) {
  auto stats = stack.backend->Stats(stack.index);
  return stats.ok() ? *stats : backend::IndexStats{};
}

SessionResult RunSession(Stack* stack, const Workload& workload,
                         const std::vector<dio::tracer::WireEvent>& events,
                         int generator_cpu, SpanLog* spans,
                         int explore_rounds) {
  SessionResult r;
  const std::vector<Panel> panels = MakePanels(workload);
  ScopedSpan session_span(spans, "session");

  if (auto status = stack->tracer->Start(); !status.ok()) {
    std::fprintf(stderr, "perfbench: tracer start: %s\n",
                 status.message().c_str());
    std::exit(2);
  }
  std::jthread reader;
  if (workload.live_reader) {
    reader = std::jthread([&](const std::stop_token& stop) {
      r.live = LiveReader(*stack, panels, stop, spans, session_span.id());
    });
  }
  r.issue = IssueOpenLoop(stack->kernel.get(), events, workload.rate,
                          generator_cpu, spans, session_span.id());
  if (reader.joinable()) {
    reader.request_stop();
    reader.join();
  }
  r.replication_lag_max = ReplicationLag(*stack);

  // Diagnosis: stop + drain (DioService::StopSession), then
  // DioService::Diagnose (refresh, correlate, every detector).
  {
    ScopedSpan span(spans, "stop.drain");
    const Nanos start = Now();
    stack->tracer->Stop();
    stack->pipeline->Flush();
    r.stop_drain_s = static_cast<double>(Now() - start) / 1e9;
  }
  r.tracer = stack->tracer->stats();
  r.stages = stack->pipeline->Stats();
  r.after_drain = StatsOf(*stack);
  r.replication_lag_max =
      std::max(r.replication_lag_max, ReplicationLag(*stack));
  r.rss_after_ingest_mb = ProcStatusMb("VmRSS");
  {
    ScopedSpan span(spans, "analysis.correlate");
    const Nanos start = Now();
    stack->query->Refresh(stack->index);
    backend::FilePathCorrelator correlator(stack->query.get());
    auto correlation = correlator.Run(stack->index);
    if (correlation.ok()) {
      r.correlation = *correlation;
    } else {
      r.errors.push_back("correlate: " + correlation.status().message());
    }
    r.correlate_s = static_cast<double>(Now() - start) / 1e9;
  }
  std::vector<backend::Finding> findings;
  if (spans->enabled()) {
    // Traced: one span per detector (RunAllDetectors runs the same five).
    for (const Detector& detector : Detectors()) {
      ScopedSpan span(spans, std::string("analysis.detect.") + detector.name);
      const Nanos start = Now();
      auto found = detector.run(stack->query.get(), stack->index);
      r.detect_s[detector.name] = static_cast<double>(Now() - start) / 1e9;
      if (!found.ok()) {
        r.errors.push_back(std::string(detector.name) + ": " +
                           found.status().message());
        continue;
      }
      for (auto& f : *found) findings.push_back(std::move(f));
    }
  } else {
    auto found = backend::RunAllDetectors(stack->query.get(), stack->index);
    if (found.ok()) {
      findings = std::move(*found);
    } else {
      r.errors.push_back("detectors: " + found.status().message());
    }
  }
  r.verdict = Now();
  for (const Detector& detector : Detectors()) r.findings[detector.name] = 0;
  for (const backend::Finding& f : findings) r.findings[f.detector] += 1;
  r.after_correlate = StatsOf(*stack);
  r.rss_after_correlate_mb = ProcStatusMb("VmRSS");

  r.explore = Explore(*stack, panels, explore_rounds, spans);
  r.rss_peak_mb = ProcStatusMb("VmHWM");
  r.at_end = StatsOf(*stack);
  r.replication_lag_max =
      std::max(r.replication_lag_max, ReplicationLag(*stack));
  r.queries = stack->query->samples();

  // Output checks read the store directly, outside the timed phases.
  auto searchable =
      stack->backend->Count(stack->index, backend::Query::MatchAll());
  r.searchable = searchable.ok() ? *searchable : 0;
  auto tagged =
      stack->backend->Count(stack->index, backend::Query::Exists("file_tag"));
  r.tagged = tagged.ok() ? *tagged : 0;
  return r;
}

// ---- one run: warm-up, K measured sessions, report --------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
  // Records the outputs the correctness reference holds, quickly: one
  // session, no warm-up, no exploration.
  bool reference_only = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--spans") {
      args->spans_path = value;
    } else if (key == "--reference-only") {
      args->reference_only = value == "1";
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0;
}

// The measured seconds are split over this many identical sessions, each on
// a fresh stack and with the generator on another cpu; per-session figures
// are reported as their median or as the best session, so a session
// disturbed by the machine does not move the result.
constexpr int kSessions = 5;
// Windows for the latency percentiles of the open-loop phases: a percentile
// per window, reported as the median over windows, so a rare stall of the
// machine moves a few windows, not the result. Syscall
// windows hold 1000-2000 calls at the workload rates, so a window's p99 has
// at least ten samples beyond it.
constexpr Nanos kSyscallWindow = 50 * dio::kMillisecond;
constexpr Nanos kFreshnessWindow = 250 * dio::kMillisecond;
constexpr Nanos kQueryWindow = 250 * dio::kMillisecond;

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

// The best session's figure. A shared host slows a vCPU by up to 2x for
// seconds to minutes at a time; the least-disturbed of the sessions is the
// steadiest estimate of what the code costs (see NOTES.md).
double Best(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : *std::min_element(values.begin(), values.end());
}

// Everything one session contributes to the report (medians are taken
// across sessions). Per-layer figures that only a traced run records are
// added when `traced`.
std::map<std::string, double> SessionMetrics(const SessionResult& r,
                                             const Stack& stack, bool traced) {
  std::map<std::string, double> m;
  const TerminalProbe::Samples& terminal = stack.terminal->samples();
  m["rss_peak_mb"] = r.rss_peak_mb;

  std::uint64_t dropped = 0, dead = 0, max_depth = 0;
  for (const auto& stage : r.stages) {
    dropped += stage.dropped_events;
    dead += stage.dead_letter_events;
    max_depth = std::max<std::uint64_t>(max_depth, stage.max_queue_depth);
  }
  m["tracer.ring_dropped"] = static_cast<double>(r.tracer.ring_dropped);
  m["tracer.pending_overflow"] = static_cast<double>(r.tracer.pending_overflow);
  m["transport.dropped_events"] = static_cast<double>(dropped);
  m["transport.dead_letter_events"] = static_cast<double>(dead);
  m["transport.max_queue_depth"] = static_cast<double>(max_depth);
  std::vector<double> pauses_ms;
  for (const std::uint64_t ns : r.after_drain.refresh_pause_ns) {
    pauses_ms.push_back(static_cast<double>(ns) / 1e6);
  }
  m["backend.refresh_pause_ms_p99"] = Percentile(pauses_ms, 99);
  m["backend.correlate_s"] = r.correlate_s;
  m["backend.correlate_eps"] =
      static_cast<double>(r.correlation.events_updated) /
      std::max(1e-9, r.correlate_s);
  m["backend.typed_rows_after_correlate"] =
      static_cast<double>(r.after_correlate.typed_rows);
  const std::uint64_t lookups =
      r.at_end.filter_cache_hits + r.at_end.filter_cache_misses;
  m["backend.filter_cache_lookups"] = static_cast<double>(lookups);
  m["backend.filter_cache_hit_ratio"] =
      lookups == 0 ? 0.0
                   : static_cast<double>(r.at_end.filter_cache_hits) /
                         static_cast<double>(lookups);
  m["mem.rss_after_ingest_mb"] = r.rss_after_ingest_mb;
  m["mem.rss_after_correlate_mb"] = r.rss_after_correlate_mb;
  m["cluster.fanout_shard_tasks"] =
      static_cast<double>(r.at_end.fanout_shard_tasks);
  m["cluster.replication_lag_batches_max"] =
      static_cast<double>(r.replication_lag_max);
  m["trace.generator_late_ms_max"] = r.issue.late_ms_max;
  m["diagnosis.stop_drain_s"] = r.stop_drain_s;
  if (!traced) return m;

  for (const auto& [name, samples] : r.explore.per_panel_ms) {
    m["viz." + name + "_ms_p50"] = Percentile(samples, 50);
  }
  const std::vector<double> waits = stack.head->batch_wait_ms();
  m["tracer.batch_wait_ms_p50"] = Percentile(waits, 50);
  m["tracer.batch_wait_ms_p99"] = Percentile(waits, 99);
  m["transport.queue_ms_p50"] = Percentile(terminal.queue_ms, 50);
  m["transport.queue_ms_p99"] = Percentile(terminal.queue_ms, 99);
  m["backend.submit_ms_p50"] = Percentile(terminal.submit_ms, 50);
  m["backend.submit_ms_p99"] = Percentile(terminal.submit_ms, 99);
  m["backend.refresh_ms_p99"] = Percentile(terminal.refresh_ms, 99);
  m["backend.ingest_eps"] = static_cast<double>(terminal.submitted_events) /
                            std::max(1e-9, terminal.submit_busy_s);
  m["cluster.ingest_ms_p99"] = Percentile(terminal.terminal_call_ms, 99);
  m["cluster.settle_s"] = terminal.flush_s;
  m["backend.search_ms_p50"] = Percentile(r.queries.search_ms, 50);
  m["backend.count_ms_p50"] = Percentile(r.queries.count_ms, 50);
  m["backend.aggregate_ms_p50"] = Percentile(r.queries.aggregate_ms, 50);
  m["backend.search_hits"] = static_cast<double>(r.queries.search_hits);
  m["backend.update_by_query_s"] = r.queries.update_by_query_s;
  for (const auto& [name, seconds] : r.detect_s) {
    m["backend.detect." + name + "_s"] = seconds;
  }
  m["app.service_ns_mean"] = Mean(r.issue.service_ns);
  return m;
}

// Output identity of one session: what the correctness reference records.
dio::Json ReferenceOf(const SessionResult& r) {
  dio::Json reference = dio::Json::MakeObject();
  reference.Set("issued", static_cast<std::int64_t>(r.issue.issued));
  reference.Set("tagged", static_cast<std::int64_t>(r.tagged));
  reference.Set("events_updated",
                static_cast<std::int64_t>(r.correlation.events_updated));
  dio::Json findings = dio::Json::MakeObject();
  for (const auto& [name, n] : r.findings) {
    findings.Set(name, static_cast<std::int64_t>(n));
  }
  reference.Set("findings", findings);
  return reference;
}

class Report {
 public:
  void Metric(const std::string& name, double value) {
    metrics_.Set(name, value);
  }
  void Check(const std::string& name, bool ok) {
    checks_.Set(name, checks_.Has(name) ? checks_.Find(name)->as_bool() && ok
                                        : ok);
    correct_ = correct_ && ok;
  }
  [[nodiscard]] bool correct() const { return correct_; }

  [[nodiscard]] dio::Json ToJson(dio::Json head) const {
    head.Set("correct", correct_);
    head.Set("checks", checks_);
    head.Set("metrics", metrics_);
    return head;
  }

 private:
  dio::Json metrics_ = dio::Json::MakeObject();
  dio::Json checks_ = dio::Json::MakeObject();
  bool correct_ = true;
};

void CheckSession(const SessionResult& r, Report* report) {
  bool ledgers = !r.stages.empty();
  for (const auto& stage : r.stages) {
    ledgers = ledgers &&
              stage.batches_in == stage.batches_out + stage.dropped_batches +
                                      stage.dead_letter_batches &&
              stage.events_in == stage.events_out + stage.dropped_events +
                                     stage.dead_letter_events;
  }
  report->Check("no_errors", r.errors.empty() && r.live.errors == 0 &&
                                 r.explore.errors == 0);
  report->Check("every_syscall_searchable",
                r.issue.issued > 0 && r.searchable == r.issue.issued &&
                    r.tracer.enter_hits == r.issue.issued);
  report->Check("stage_ledgers_balance", ledgers);
  report->Check("correlation_accounts_for_tagged",
                r.correlation.events_resolved +
                        r.correlation.events_unresolved ==
                    r.tagged);
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "perfbench: %s\n", e.c_str());
  }
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  out << "id,parent,name,start_ns,end_ns\n";
  for (const Span& s : spans) {
    out << s.id << ',' << s.parent << ',' << s.name << ',' << s.start << ','
        << s.end << '\n';
  }
}

int Run(const Args& args) {
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const std::vector<int> cpus = AllowedCpus();
  const auto session_events = static_cast<std::size_t>(
      workload->rate * args.seconds / kSessions);

  const int sessions = args.reference_only ? 1 : kSessions;
  const int explore_rounds = args.reference_only ? 0 : kExploreRounds;

  // Warm-up: the whole path once, on another seed, untimed.
  if (!args.reference_only) {
    SpanLog off(false);
    const auto events = dio::trace::GenerateCorpusEvents(
        workload->corpus, session_events / 2, WarmupSeed(args.seed));
    const int generator_cpu = PinSession(cpus, 0);
    auto stack = BuildStack(*workload, &off, "session");
    (void)RunSession(stack.get(), *workload, events, generator_cpu, &off, 2);
  }

  const auto events = dio::trace::GenerateCorpusEvents(
      workload->corpus, session_events, args.seed);
  SpanLog spans(args.trace);
  Report report;
  std::uint64_t attempted = 0, failed = 0;
  // One figure per session, reported as the median (set-up) or the best
  // session (timings of the program's work).
  std::vector<double> setup_s, app_p50, diagnosis_s, explore_p50, live_p50;
  // Pooled over the sessions: every window's percentile, every panel call.
  // Without a live reader no dashboard is open during ingest; the analyst's
  // panels are then the post-session ones (see NOTES.md).
  std::vector<double> app_p99, fresh_p50, fresh_p99, explore_ms, live_ms;
  std::map<std::string, std::vector<double>> per_session;
  dio::Json reference;
  dio::Json generator_cpus = dio::Json::MakeArray();
  for (int k = 0; k < sessions; ++k) {
    report.Check("peak_rss_reset", ResetPeakRss());
    const int generator_cpu = PinSession(cpus, k);
    generator_cpus.Append(static_cast<std::int64_t>(generator_cpu));
    const Nanos setup_start = Now();
    auto stack = BuildStack(*workload, &spans, "session");
    const SessionResult r =
        RunSession(stack.get(), *workload, events, generator_cpu, &spans,
                   explore_rounds);
    setup_s.push_back(static_cast<double>(r.issue.ready - setup_start) / 1e9);
    diagnosis_s.push_back(
        static_cast<double>(r.verdict - r.issue.last_return) / 1e9);
    if (k == 0) reference = ReferenceOf(r);
    CheckSession(r, &report);
    // Same input, same outputs: every session must match the first.
    report.Check("sessions_agree",
                 ReferenceOf(r).Dump() == reference.Dump());
    attempted += r.issue.issued;
    failed += r.issue.issued > r.searchable ? r.issue.issued - r.searchable : 0;

    const TerminalProbe::Samples& terminal = stack->terminal->samples();
    std::vector<double> windows;
    r.issue.latency_us.WindowPercentiles(kSyscallWindow, 50, 1000, &windows);
    app_p50.push_back(Median(windows));
    r.issue.latency_us.WindowPercentiles(kSyscallWindow, 99, 1000, &app_p99);
    terminal.freshness_ms.WindowPercentiles(kFreshnessWindow, 50, 1000,
                                            &fresh_p50);
    terminal.freshness_ms.WindowPercentiles(kFreshnessWindow, 99, 1000,
                                            &fresh_p99);
    const std::vector<double>& explored = r.explore.all_ms.value;
    explore_p50.push_back(Percentile(explored, 50));
    explore_ms.insert(explore_ms.end(), explored.begin(), explored.end());
    const PanelSamples& looked = workload->live_reader ? r.live : r.explore;
    live_ms.insert(live_ms.end(), looked.all_ms.value.begin(),
                   looked.all_ms.value.end());
    // A closed-loop reader samples a small index more often than a large
    // one; the median over time windows weighs every moment the same.
    windows.clear();
    looked.all_ms.WindowPercentiles(kQueryWindow, 50, 1, &windows);
    live_p50.push_back(Median(windows));
    for (const auto& [name, value] : SessionMetrics(r, *stack, args.trace)) {
      per_session[name].push_back(value);
    }
  }

  // End-to-end.
  report.Metric("setup_s", Median(setup_s));
  report.Metric("app_syscall_us_p50", Best(app_p50));
  report.Metric("app_syscall_us_p99", Median(app_p99));
  report.Metric("freshness_ms_p50", Median(fresh_p50));
  report.Metric("freshness_ms_p99", Median(fresh_p99));
  report.Metric("live_query_ms_p50", Best(live_p50));
  report.Metric("live_query_ms_p99", Percentile(live_ms, 99));
  report.Metric("diagnosis_s", Best(diagnosis_s));
  report.Metric("explore_ms_p50", Best(explore_p50));
  report.Metric("explore_ms_p99", Percentile(explore_ms, 99));
  report.Metric("delivered_ratio",
                static_cast<double>(attempted - failed) /
                    static_cast<double>(std::max<std::uint64_t>(1, attempted)));
  for (const auto& [name, values] : per_session) {
    if (name != "app.service_ns_mean") report.Metric(name, Median(values));
  }

  if (args.trace) {
    const std::vector<Span> all = spans.Snapshot();
    std::fprintf(stderr, "%-40s %8s %12s %12s  (per session)\n", "span",
                 "count", "total_ms", "self_ms");
    for (const auto& [name, totals] : SummarizeSpans(all)) {
      report.Metric("self_ms." + name, totals.self_ms / sessions);
      std::fprintf(stderr, "%-40s %8.0f %12.3f %12.3f\n", name.c_str(),
                   static_cast<double>(totals.count) / sessions,
                   totals.total_ms / sessions, totals.self_ms / sessions);
    }
    if (!args.spans_path.empty()) WriteSpans(args.spans_path, all);
    // The same input re-issued with no tracer attached.
    auto kernel = MakeKernel();
    SpanLog off(false);
    const IssueResult untraced = IssueOpenLoop(
        kernel.get(), events, workload->rate, PinSession(cpus, 0), &off);
    report.Metric("oskernel.syscall_ns_p50",
                  Percentile(untraced.service_ns, 50));
    report.Metric("tracer.hook_ns_per_syscall",
                  Median(per_session["app.service_ns_mean"]) -
                      Mean(untraced.service_ns));
  }

  dio::Json head = dio::Json::MakeObject();
  head.Set("workload", std::string(workload->name));
  head.Set("seed", static_cast<std::int64_t>(args.seed));
  head.Set("sessions", static_cast<std::int64_t>(sessions));
  head.Set("session_events", static_cast<std::int64_t>(session_events));
  head.Set("rate", workload->rate);
  head.Set("attempted", static_cast<std::int64_t>(attempted));
  head.Set("failed", static_cast<std::int64_t>(failed));
  dio::Json threads = dio::Json::MakeObject();
  threads.Set("generator_cpus", std::move(generator_cpus));
  const std::size_t dio_cpus = cpus.size() < 2 ? cpus.size() : cpus.size() - 1;
  threads.Set("dio_cpus", static_cast<std::int64_t>(dio_cpus));
  threads.Set("tracer.consumer_threads",
              static_cast<std::int64_t>(kConsumerThreads));
  threads.Set("backend.query_threads",
              static_cast<std::int64_t>(kQueryThreads));
  threads.Set("cluster.query_threads",
              static_cast<std::int64_t>(kQueryThreads));
  head.Set("threads", threads);
  head.Set("reference", reference);
  std::printf("%s\n", report.ToJson(std::move(head)).Dump().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans FILE] [--reference-only 1]\n");
    return 2;
  }
  return perfbench::Run(args);
}
