// DioTracer: the paper's tracer component (§II-B).
//
// Kernel side ("eBPF programs", attached to syscall tracepoints):
//   * sys_enter: apply kernel-side filters (PID/TID/path), snapshot the
//     arguments and the fd's kernel state (type/offset/dentry path), and
//     stash it in a bounded pending map keyed by TID.
//   * sys_exit: pop the pending entry, aggregate entry+exit into ONE event,
//     enrich it (file type, file offset, file tag = dev|ino|first-access-ts),
//     and reserve+commit it into the per-CPU ring buffer. Full ring => the
//     event is dropped and counted (§III-D).
//
// User side: N consumer threads (consumer_threads option) each own a
// disjoint stripe of the per-CPU rings and drain them in zero-copy batches,
// decode events, and ship them to the backend in batches ("buckets ... sent
// and indexed in batches", §II-B) — asynchronously, off the application's
// critical path. JSON materialization is deferred to the sink so the drain
// loops never allocate documents.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/config.h"
#include "common/status.h"
#include "ebpf/maps.h"
#include "ebpf/program.h"
#include "ebpf/ringbuf.h"
#include "oskernel/kernel.h"
#include "tracer/event.h"
#include "tracer/filters.h"
#include "tracer/sink.h"

namespace dio::tracer {

struct TracerOptions {
  // Labels this tracing execution; multiple sessions can coexist in one
  // backend (§II-F "deploy DIO as a service").
  std::string session_name = "dio-session";

  // Empty = all 42 supported syscalls; otherwise names like "openat".
  std::vector<std::string> syscalls;
  std::vector<os::Pid> pids;
  std::vector<os::Tid> tids;
  std::vector<std::string> paths;

  // Paper: 256 MiB per CPU core. Experiments here are scaled down; the
  // ab_ringsize bench sweeps this knob against the drop rate.
  std::size_t ring_bytes_per_cpu = 8u << 20;
  std::size_t pending_map_entries = 16384;
  std::size_t first_access_map_entries = 1u << 16;

  // Bulk emission ("buckets").
  std::size_t batch_size = 512;
  Nanos flush_interval_ns = 50 * kMillisecond;
  Nanos poll_interval_ns = kMillisecond;

  // User-space drain parallelism: number of consumer threads, each owning a
  // disjoint stripe of the per-CPU rings (SPSC per ring). 0 = auto:
  // min(num_cpus, hardware_concurrency). Values above num_cpus are clamped
  // (extra threads would have no ring to drain).
  std::size_t consumer_threads = 0;

  // Enrichment on/off (ablation; §II-B says Sysdig-style tracers skip it).
  bool enrich = true;
  // DIO's design: aggregate a syscall's entry and exit into ONE event in
  // kernel space (the pending map). When false (ablation A4), the raw enter
  // and exit records are shipped separately and paired by the user-space
  // consumer — twice the ring traffic, and open/close tag fidelity is lost
  // (tags can only be derived from entry-time state).
  bool aggregate_in_kernel = true;
  // When false, PID/TID/path filters run in user-space instead of in the
  // kernel hook — the ab_filters ablation.
  bool kernel_filtering = true;

  // Simulation seam (programmatic only, never read from config): no
  // consumer threads are spawned. The owner drives the drain loops
  // explicitly via PumpConsumer(worker), so a seeded cooperative scheduler
  // fully determines when each stripe of rings is drained. Stop() performs
  // a final serial drain, preserving the drains-everything guarantee.
  bool manual_consumers = false;

  // Modeled fixed in-kernel instrumentation cost per tracepoint hit, split
  // between entry and exit. Stands in for BPF program execution overhead we
  // cannot reproduce natively (see DESIGN.md calibration note). Zero by
  // default: the real map/copy/ring work is always performed and measured.
  Nanos hook_cost_ns = 0;

  // Soft cap on path bytes captured per event (<= kWirePathCap, the wire
  // buffer size). Lowering it trims the per-event copy cost for workloads
  // with deep paths — the same trade a real tracer makes when sizing its
  // bpf_probe_read_str bound. Cut bytes are counted in the truncation
  // stats either way.
  std::size_t path_cap = kWirePathCap;

  // Reads the `[tracer]` section. Rejects, naming the key, a count that is
  // not an integer or is below its minimum: 1 for ring_bytes_per_cpu,
  // pending_map_entries, first_access_map_entries and batch_size, 0 for
  // consumer_threads and path_cap.
  static Expected<TracerOptions> FromConfig(const Config& config);
};

struct TracerStats {
  std::uint64_t enter_hits = 0;       // enter tracepoint invocations
  std::uint64_t exit_hits = 0;        // exit tracepoint invocations
  std::uint64_t filtered_out = 0;     // rejected by kernel-side filters
  std::uint64_t pending_overflow = 0; // pending map full at entry
  std::uint64_t unmatched_exit = 0;   // exit without a pending entry
  std::uint64_t ring_pushed = 0;      // events committed to ring buffers
  std::uint64_t ring_dropped = 0;     // §III-D discards (ring full)
  std::uint64_t consumed = 0;         // decoded by the user-space consumer
  std::uint64_t user_filtered = 0;    // rejected by user-space filters
  std::uint64_t emitted = 0;          // documents shipped to the sink
  std::uint64_t batches = 0;          // bulk requests issued
  std::uint64_t decode_errors = 0;
  std::uint64_t ring_discarded = 0;   // reserved then abandoned (Discard)

  // Bytes cut by the fixed wire-format buffers (kWireCommCap etc.), per
  // field. Nothing is truncated silently: every cut byte of an emitted
  // record lands in exactly one of these counters.
  std::uint64_t truncated_comm_bytes = 0;
  std::uint64_t truncated_proc_name_bytes = 0;
  std::uint64_t truncated_path_bytes = 0;
  std::uint64_t truncated_path2_bytes = 0;
  std::uint64_t truncated_xattr_bytes = 0;

  [[nodiscard]] std::uint64_t truncated_bytes() const {
    return truncated_comm_bytes + truncated_proc_name_bytes +
           truncated_path_bytes + truncated_path2_bytes +
           truncated_xattr_bytes;
  }

  [[nodiscard]] double drop_ratio() const {
    const double total =
        static_cast<double>(ring_pushed) + static_cast<double>(ring_dropped);
    return total == 0 ? 0.0 : static_cast<double>(ring_dropped) / total;
  }
};

class DioTracer {
 public:
  DioTracer(os::Kernel* kernel, EventSink* sink, TracerOptions options);
  ~DioTracer();

  DioTracer(const DioTracer&) = delete;
  DioTracer& operator=(const DioTracer&) = delete;

  // Attaches the eBPF programs and starts the user-space consumer.
  Status Start();
  // Detaches, drains the rings, flushes the final batch. Idempotent.
  void Stop();

  [[nodiscard]] TracerStats stats() const;
  [[nodiscard]] const std::string& session() const {
    return options_.session_name;
  }
  [[nodiscard]] const TracerOptions& options() const { return options_; }

  // Manual mode (options.manual_consumers): runs one drain pass of worker
  // `worker`'s ring stripe on the calling thread — the body of one
  // ConsumerLoop iteration, minus the poll sleep. Returns the number of
  // ring records consumed. Valid after Start(), for workers in
  // [0, manual_workers()).
  std::size_t PumpConsumer(std::size_t worker);
  [[nodiscard]] std::size_t manual_workers() const {
    return manual_states_.size();
  }

 private:
  friend class DioTracerTestPeer;  // injects raw ring records in tests

  // Per-TID entry-hook snapshot, the value type of the pending map. Like a
  // real BPF map value it is a fixed-layout POD: syscall argument strings
  // live in inline bounded buffers (wire-format caps, truncation counted at
  // capture time), so stashing and popping an entry never touches the heap.
  // The fd's dentry path is deliberately NOT stored — it is only needed
  // transiently for the kernel-side path filter, and OnEnter reads it into
  // a stack buffer (see SnapshotFd).
  struct PendingEntry {
    Nanos enter_ts = 0;
    os::Fd fd = os::kNoFd;
    std::uint64_t count = 0;
    std::int64_t arg_offset = -1;
    int whence = -1;
    std::uint32_t flags = 0;
    std::uint32_t mode = 0;
    bool have_fd_view = false;
    bool have_path_view = false;
    os::FdSnapshot fd_state;
    os::PathView path_view;
    std::uint16_t comm_len = 0, comm_trunc = 0;
    std::uint16_t path_len = 0, path_trunc = 0;
    std::uint16_t path2_len = 0, path2_trunc = 0;
    std::uint16_t xattr_len = 0, xattr_trunc = 0;
    char comm[kWireCommCap];
    char path[kWirePathCap];
    char path2[kWirePathCap];
    char xattr_name[kWireXattrCap];
  };

  // Per-worker drain-loop state, stack-local in thread mode and owned by
  // the tracer in manual mode (so pumps can resume where the last left
  // off). `half_events` is the raw-mode pairing map: tid -> pending enter
  // half; safe per worker because cpu_of(tid) is stable, so both halves of
  // a syscall land on the same ring and therefore on the same stripe.
  // `batch` holds raw-mode (enter/exit-paired) events; `wire` holds
  // aggregate-mode records copied verbatim off the ring — typed ingest ships
  // them binary, so the consumer thread never allocates a Json or an Event
  // for them.
  struct ConsumerState {
    std::vector<Event> batch;
    std::vector<WireEvent> wire;
    Nanos last_flush = 0;
    std::unordered_map<os::Tid, Event> half_events;
  };

  void OnEnter(const os::SysEnterContext& ctx);
  void OnExit(const os::SysExitContext& ctx);
  void EmitEnterHalf(const os::SysEnterContext& ctx,
                     const PendingEntry& entry);
  void EmitExitHalf(const os::SysExitContext& ctx);
  // One of `num_workers` drain loops; worker w owns rings w, w+N, w+2N, …
  void ConsumerLoop(const std::stop_token& stop, std::size_t worker,
                    std::size_t num_workers);
  // One pass over worker `worker`'s stripe: drain each owned ring once,
  // then flush the local batch if the flush interval elapsed. Returns ring
  // records consumed.
  std::size_t DrainStripeOnce(ConsumerState* state, std::size_t worker,
                              std::size_t num_workers);
  // Decodes one drained ring record into `state` (shared by the thread and
  // manual drain paths).
  void HandleRecord(ConsumerState* state, std::span<const std::byte> bytes);
  // Ships the state's pending wire and event batches to the sink.
  void FlushBatch(ConsumerState* state);
  [[nodiscard]] std::size_t ResolveConsumerThreads() const;
  // Copies the entry's scalars and inline strings into the reserved wire
  // record (everything except the per-site header fields).
  static void FillWireFromEntry(WireEvent* out, const PendingEntry& entry);
  void Enrich(WireEvent* out, const PendingEntry& entry,
              const os::SysExitContext& ctx);
  // Folds a committed record's per-field truncation counters into the
  // tracer-wide stats.
  void AccountTruncation(const WireEvent& wire);
  [[nodiscard]] bool PassesFilters(os::Pid pid, os::Tid tid,
                                   std::string_view path) const;

  os::Kernel* kernel_;
  EventSink* sink_;
  TracerOptions options_;
  Filters filters_;
  std::set<os::SyscallNr> enabled_;

  ebpf::BpfHashMap<os::Tid, PendingEntry> pending_;
  // (dev, ino) -> first-access timestamp; retired on unlink so recycled
  // inode numbers get fresh tags.
  ebpf::BpfHashMap<std::uint64_t, Nanos> first_access_;
  // (pid, fd) -> tag resolved at open time; close-after-unlink therefore
  // still reports the original file's tag (as in the paper's Fig. 2a).
  ebpf::BpfHashMap<std::uint64_t, FileTag> fd_tags_;
  ebpf::PerCpuRingBuffer rings_;
  std::vector<ebpf::BpfLink> links_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::vector<std::jthread> consumers_;
  // Manual mode: per-worker drain state, allocated by Start().
  std::vector<std::unique_ptr<ConsumerState>> manual_states_;

  // Stats counters (relaxed atomics; aggregated in stats()).
  std::atomic<std::uint64_t> enter_hits_{0};
  std::atomic<std::uint64_t> exit_hits_{0};
  std::atomic<std::uint64_t> filtered_out_{0};
  std::atomic<std::uint64_t> pending_overflow_{0};
  std::atomic<std::uint64_t> unmatched_exit_{0};
  std::atomic<std::uint64_t> consumed_{0};
  std::atomic<std::uint64_t> user_filtered_{0};
  std::atomic<std::uint64_t> emitted_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> decode_errors_{0};
  std::atomic<std::uint64_t> trunc_comm_{0};
  std::atomic<std::uint64_t> trunc_proc_name_{0};
  std::atomic<std::uint64_t> trunc_path_{0};
  std::atomic<std::uint64_t> trunc_path2_{0};
  std::atomic<std::uint64_t> trunc_xattr_{0};
};

}  // namespace dio::tracer
