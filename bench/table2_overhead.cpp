// Table II: average execution time and standard deviation for independent
// runs of the RocksDB workload under each tracer.
//
//   paper:  vanilla 03h48m (1.00x) | sysdig 03h56m (1.04x) |
//           DIO 05h12m (1.37x)     | strace 06h30m (1.71x)
//
// The workload is the same scaled YCSB-A run with a FIXED operation count,
// so execution time is comparable across tracers. Absolute times are seconds
// instead of hours; the ordering and rough ratios are the reproduced shape.
#include <cstdio>
#include <cstdlib>

#include "backend/store.h"
#include "baselines/dio_adapter.h"
#include "baselines/strace_sim.h"
#include "baselines/sysdig_sim.h"
#include "baselines/vanilla.h"
#include "bench/harness_util.h"
#include "common/histogram.h"
#include "common/string_util.h"

using namespace dio;

namespace {

struct Row {
  std::string name;
  Histogram seconds;  // one sample per run (stored in ms for precision)
  double pathless = 0.0;
  std::uint64_t dropped = 0;
};

double RunOnce(const std::string& tracer_name, std::uint64_t ops,
               double* pathless, std::uint64_t* dropped) {
  os::Kernel kernel;
  // Overhead/discard runs use the fast-NVMe profile: tracer costs must be
  // measured against a device quick enough that instrumentation is a
  // meaningful fraction of syscall time (as on the paper's NVMe testbed).
  os::BlockDeviceOptions disk = bench::PaperDisk();
  disk.bandwidth_bytes_per_sec = 250.0 * 1024 * 1024;
  (void)kernel.MountDevice("/data", 7340032, disk);

  // The store must outlive the tracer: DioAdapter's bulk client flushes
  // into it on destruction.
  backend::ElasticStore store;
  std::unique_ptr<baselines::TracerBaseline> tracer;
  if (tracer_name == "vanilla") {
    tracer = std::make_unique<baselines::Vanilla>();
  } else if (tracer_name == "sysdig") {
    tracer = std::make_unique<baselines::SysdigSim>(&kernel);
  } else if (tracer_name == "strace") {
    tracer = std::make_unique<baselines::StraceSim>(&kernel);
  } else {
    tracer::TracerOptions options;
    options.session_name = "table2-dio";
    options.ring_bytes_per_cpu = 32u << 20;
    // Modeled in-kernel BPF execution cost on top of the real handler work
    // (map ops, string copies, serialization, ring commit) actually
    // performed here — see the calibration note in EXPERIMENTS.md.
    options.hook_cost_ns = 1500;
    // The paper's analysis pipeline (Elasticsearch indexing) runs on
    // SEPARATE SERVERS; only tracing + shipping burden the workload
    // machine. Defer index refresh out of the measured window so backend
    // indexing does not steal this machine's CPU (it happens at Stop()).
    backend::BulkClientOptions client_options;
    client_options.refresh_interval_ms = 0;
    tracer = std::make_unique<baselines::DioAdapter>(&kernel, &store,
                                                     options, client_options);
  }
  if (!tracer->Start().ok()) return -1;

  auto bench_options = bench::PaperBench();
  bench_options.ops_limit = ops;
  bench_options.duration = 0;
  const bench::WorkloadResult result =
      bench::RunYcsbA(kernel, bench_options);
  tracer->Stop();
  if (pathless != nullptr) *pathless = tracer->pathless_ratio();
  if (dropped != nullptr) *dropped = tracer->events_dropped();
  return result.wall_seconds;
}

}  // namespace

int main(int argc, char** argv) {
  const int runs = argc > 1 ? std::atoi(argv[1]) : 3;
  const std::uint64_t ops = argc > 2
                                ? static_cast<std::uint64_t>(std::atoll(argv[2]))
                                : 48'000;

  std::printf("TABLE II: %d runs each, %llu ops/run (paper: 3 runs of a "
              "~4h workload)\n\n",
              runs, static_cast<unsigned long long>(ops));

  std::vector<Row> rows;
  for (const std::string name : {"vanilla", "sysdig", "DIO", "strace"}) {
    Row row;
    row.name = name;
    for (int run = 0; run < runs; ++run) {
      double pathless = 0.0;
      std::uint64_t dropped = 0;
      const double seconds = RunOnce(name, ops, &pathless, &dropped);
      std::printf("  %-8s run %d: %.2fs\n", name.c_str(), run + 1, seconds);
      std::fflush(stdout);
      row.seconds.Record(static_cast<std::int64_t>(seconds * 1000.0));
      row.pathless = pathless;
      row.dropped += dropped;
    }
    rows.push_back(std::move(row));
  }

  const double vanilla_ms = rows[0].seconds.mean();
  std::printf("\n%-26s %-10s %-10s %-10s %-10s\n", "", "vanilla", "sysdig",
              "DIO", "strace");
  std::printf("%-26s", "Average execution time");
  for (const Row& row : rows) {
    std::printf(" %-10s", (FormatFixed(row.seconds.mean() / 1000.0, 2) + "s").c_str());
  }
  std::printf("\n%-26s", "Standard deviation");
  for (const Row& row : rows) {
    std::printf(" %-10s",
                ("±" + FormatFixed(row.seconds.stddev() / 1000.0, 2) + "s").c_str());
  }
  std::printf("\n%-26s %-10s", "Overhead", "-");
  for (std::size_t i = 1; i < rows.size(); ++i) {
    std::printf(" %-10s",
                (FormatFixed(rows[i].seconds.mean() / vanilla_ms, 2) + "x").c_str());
  }
  std::printf("\n\npaper-vs-measured (shape): paper overheads 1.04x (sysdig) "
              "< 1.37x (DIO) < 1.71x (strace)\n");
  const double sysdig_x = rows[1].seconds.mean() / vanilla_ms;
  const double dio_x = rows[2].seconds.mean() / vanilla_ms;
  const double strace_x = rows[3].seconds.mean() / vanilla_ms;
  std::printf("  measured ordering: sysdig %.2fx %s DIO %.2fx %s strace %.2fx"
              " -> %s\n",
              sysdig_x, sysdig_x < dio_x ? "<" : ">=", dio_x,
              dio_x < strace_x ? "<" : ">=", strace_x,
              (sysdig_x < dio_x && dio_x < strace_x) ? "ORDER REPRODUCED"
                                                     : "ORDER NOT REPRODUCED");
  std::printf("  §III-D context: DIO pathless %.1f%% (paper: <=5%%)\n",
              rows[2].pathless * 100.0);

  bench::BenchReport report("table2_overhead");
  report.SetConfig("runs", runs);
  report.SetConfig("ops_per_run", ops);
  report.SetConfig("paper_overheads",
                   "sysdig 1.04x < DIO 1.37x < strace 1.71x");
  report.SetConfig("order_reproduced",
                   sysdig_x < dio_x && dio_x < strace_x);
  for (const Row& row : rows) {
    Json entry = Json::MakeObject();
    entry.Set("tracer", row.name);
    entry.Set("mean_seconds", row.seconds.mean() / 1000.0);
    entry.Set("stddev_seconds", row.seconds.stddev() / 1000.0);
    entry.Set("overhead_x", row.seconds.mean() / vanilla_ms);
    entry.Set("pathless_ratio", row.pathless);
    entry.Set("events_dropped", row.dropped);
    report.AddRow(std::move(entry));
  }
  report.Write();
  return 0;
}
