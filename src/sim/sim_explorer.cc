// sim_explorer: seed-sweep driver for the deterministic simulation.
//
//   sim_explorer [--seeds=N] [--seed=X] [--ops=N] [--fault-plan=SPEC]
//                [--spool-dir=DIR] [--trace] [--json-ingest]
//                [--segment-docs=N] [--replay-trace=FILE]
//                [--cluster=N] [--replicas=R] [--ack=LEVEL]
//
// --replay-trace=FILE replaces the seeded random workload with a recorded
// binary trace (see `dio-replay record`): every task replays FILE through
// a trace::SyscallIssuer into its own directory, and --ops is ignored.
// (--trace, by contrast, keeps the scheduler's step trace in memory.)
//
// --json-ingest sweeps the same seeds over the JSON-oracle ingest route
// (backend.typed_ingest=false) instead of the default typed wire->column
// route; every invariant must hold identically on both.
//
// --segment-docs=N sets the sealed-segment size of the run's stores
// (backend.segment_docs, N >= 1; a large N keeps every row in one unsealed
// tail). The sim default is deliberately tiny (32) so seal boundaries fall
// mid-run; in cluster mode the restore oracle always keeps one never-sealed
// tail, making the scattered-vs-restored parity a sealed-vs-unsealed
// oracle.
//
// --cluster=N runs every seed against an N-node ClusterRouter backend
// (--replicas and --ack pick the replication factor and ack level): the
// fault space gains nodecrash/partition and the invariant suite gains
// cluster-wide ledger conservation, replica convergence, and scattered
// vs single-store query parity.
//
// Runs RunSimulation for each seed (1..N, or exactly X), prints one summary
// line per seed, and on any invariant violation prints the minimal repro
// line (`--seed=X --fault-plan=Y`) plus every violated invariant and exits
// non-zero. On success it reports, per fault class, the first seed whose
// plan included the class and the first seed where the fault's loss effect
// actually fired — the coverage table EXPERIMENTS.md records.
//
// Tier-1 runs this with --seeds=25 (the sim_explorer_smoke ctest); the
// nightly sweep is --seeds=2000.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulation.h"

namespace {

bool ParseFlag(std::string_view arg, std::string_view name,
               std::string_view* value) {
  if (arg.substr(0, name.size()) != name) return false;
  arg.remove_prefix(name.size());
  if (arg.empty() || arg[0] != '=') return false;
  *value = arg.substr(1);
  return true;
}

std::uint64_t ParseCount(std::string_view text, const char* flag) {
  std::uint64_t value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(),
                                   value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    std::fprintf(stderr, "sim_explorer: bad value for %s: '%.*s'\n", flag,
                 static_cast<int>(text.size()), text.data());
    std::exit(2);
  }
  return value;
}

struct Coverage {
  std::uint64_t first_planned = 0;  // 0 = never
  std::uint64_t first_fired = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seeds = 25;
  std::uint64_t only_seed = 0;
  std::size_t ops = 120;
  std::string fault_spec;
  std::string spool_dir;
  std::string replay_trace;
  bool keep_trace = false;
  bool json_ingest = false;
  std::size_t segment_docs = dio::sim::SimOptions{}.segment_docs;
  std::size_t cluster_nodes = 0;
  std::size_t cluster_replicas = 1;
  std::string cluster_ack = "quorum";

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string_view value;
    if (ParseFlag(arg, "--seeds", &value)) {
      seeds = ParseCount(value, "--seeds");
    } else if (ParseFlag(arg, "--seed", &value)) {
      only_seed = ParseCount(value, "--seed");
    } else if (ParseFlag(arg, "--ops", &value)) {
      ops = static_cast<std::size_t>(ParseCount(value, "--ops"));
    } else if (ParseFlag(arg, "--fault-plan", &value)) {
      fault_spec = std::string(value);
    } else if (ParseFlag(arg, "--spool-dir", &value)) {
      spool_dir = std::string(value);
    } else if (ParseFlag(arg, "--replay-trace", &value)) {
      replay_trace = std::string(value);
    } else if (ParseFlag(arg, "--cluster", &value)) {
      cluster_nodes = static_cast<std::size_t>(ParseCount(value, "--cluster"));
    } else if (ParseFlag(arg, "--replicas", &value)) {
      cluster_replicas =
          static_cast<std::size_t>(ParseCount(value, "--replicas"));
    } else if (ParseFlag(arg, "--ack", &value)) {
      cluster_ack = std::string(value);
    } else if (arg == "--trace") {
      keep_trace = true;
    } else if (ParseFlag(arg, "--segment-docs", &value)) {
      segment_docs =
          static_cast<std::size_t>(ParseCount(value, "--segment-docs"));
      if (segment_docs == 0) {
        std::fprintf(stderr, "sim_explorer: --segment-docs must be >= 1\n");
        return 2;
      }
    } else if (arg == "--json-ingest") {
      json_ingest = true;
    } else {
      std::fprintf(stderr, "sim_explorer: unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }

  std::error_code ec;
  bool owns_spool_dir = false;
  if (spool_dir.empty()) {
    const std::filesystem::path base =
        std::filesystem::temp_directory_path(ec);
    if (ec) {
      std::fprintf(stderr, "sim_explorer: no temp directory: %s\n",
                   ec.message().c_str());
      return 2;
    }
    spool_dir = (base / "dio-sim-explorer").string();
    owns_spool_dir = true;
  }
  std::filesystem::create_directories(spool_dir, ec);
  if (ec) {
    std::fprintf(stderr, "sim_explorer: cannot create %s: %s\n",
                 spool_dir.c_str(), ec.message().c_str());
    return 2;
  }

  std::vector<std::pair<std::uint32_t, const char*>> kClasses = {
      {dio::sim::kFaultRingOverflow, "overflow"},
      {dio::sim::kFaultQueueDrop, "queue"},
      {dio::sim::kFaultTransport, "fault"},
      {dio::sim::kFaultCrashRestart, "crash"},
      {dio::sim::kFaultDuplicateAck, "dupack"},
  };
  if (cluster_nodes > 0) {
    kClasses.emplace_back(dio::sim::kFaultNodeCrash, "nodecrash");
    kClasses.emplace_back(dio::sim::kFaultPartition, "partition");
    kClasses.emplace_back(dio::sim::kFaultLag, "lag");
  }
  std::map<std::string, Coverage> coverage;

  const std::uint64_t first = only_seed != 0 ? only_seed : 1;
  const std::uint64_t last = only_seed != 0 ? only_seed : seeds;
  int failures = 0;
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    dio::sim::SimOptions options;
    options.seed = seed;
    options.ops_per_task = ops;
    options.trace_path = replay_trace;
    options.fault_spec = fault_spec;
    options.spool_dir = spool_dir;
    options.keep_trace = keep_trace;
    options.typed_ingest = !json_ingest;
    options.segment_docs = segment_docs;
    options.cluster_nodes = cluster_nodes;
    options.cluster_replicas = cluster_replicas;
    options.cluster_ack = cluster_ack;

    auto result = dio::sim::RunSimulation(options);
    if (!result.ok()) {
      std::fprintf(stderr, "seed %llu: infrastructure error: %s\n",
                   static_cast<unsigned long long>(seed),
                   std::string(result.status().message()).c_str());
      return 2;
    }

    const bool fired[] = {result->saw_ring_drop,
                          result->saw_queue_drop,
                          result->saw_transport_fault || result->saw_dead_letter,
                          result->saw_crash,
                          result->saw_ack_drop,
                          result->saw_node_crash,
                          result->saw_partition,
                          result->saw_lag};
    for (std::size_t c = 0; c < kClasses.size(); ++c) {
      Coverage& cov = coverage[kClasses[c].second];
      if (result->plan.Has(kClasses[c].first) && cov.first_planned == 0) {
        cov.first_planned = seed;
      }
      if (fired[c] && cov.first_fired == 0) cov.first_fired = seed;
    }

    std::string cluster_note;
    if (cluster_nodes > 0) {
      cluster_note = " cluster_docs=" + std::to_string(result->cluster_docs) +
                     " cluster_dups=" +
                     std::to_string(result->cluster_duplicates) +
                     " log=" + std::to_string(result->cluster_log_compacted) +
                     "c/" + std::to_string(result->cluster_log_retained) +
                     "r catchups=" +
                     std::to_string(result->cluster_snapshot_catchups);
    }
    std::printf(
        "seed %llu route=%s plan=%s steps=%llu digest=%016llx spool=%llu/%llu "
        "restored=%llu%s%s\n",
        static_cast<unsigned long long>(seed),
        json_ingest ? "json" : "typed", result->plan_spec.c_str(),
        static_cast<unsigned long long>(result->steps),
        static_cast<unsigned long long>(result->schedule_digest),
        static_cast<unsigned long long>(result->spool_unique),
        static_cast<unsigned long long>(result->spool_lines),
        static_cast<unsigned long long>(result->restored_docs),
        cluster_note.c_str(), result->ok() ? "" : " VIOLATION");
    if (!result->ok()) {
      ++failures;
      std::printf("repro: %s\n", result->ReproLine(seed).c_str());
      for (const std::string& violation : result->violations) {
        std::printf("  invariant violated: %s\n", violation.c_str());
      }
    }
  }

  std::printf("fault-class coverage (first seed planned / first seed fired):\n");
  for (const auto& [cls, name] : kClasses) {
    (void)cls;
    const Coverage& cov = coverage[name];
    std::printf("  %-8s planned=%llu fired=%llu\n", name,
                static_cast<unsigned long long>(cov.first_planned),
                static_cast<unsigned long long>(cov.first_fired));
  }

  if (owns_spool_dir) std::filesystem::remove_all(spool_dir, ec);

  if (failures > 0) {
    std::printf("%d seed(s) violated invariants\n", failures);
    return 1;
  }
  std::printf("all %llu seed(s) passed\n",
              static_cast<unsigned long long>(last - first + 1));
  return 0;
}
