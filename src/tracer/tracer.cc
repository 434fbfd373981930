#include "tracer/tracer.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <span>
#include <tuple>
#include <unordered_map>

#include "common/logging.h"
#include "tracer/keys.h"

namespace dio::tracer {

namespace {

// Busy-wait standing in for modeled fixed instrumentation cost.
void SpinFor(Clock* clock, Nanos duration) {
  if (duration <= 0) return;
  const Nanos deadline = clock->NowNanos() + duration;
  while (clock->NowNanos() < deadline) {
  }
}

template <typename T>
std::vector<T> ParseIntList(const std::vector<std::string>& items) {
  std::vector<T> out;
  for (const std::string& item : items) {
    T value{};
    auto [ptr, ec] =
        std::from_chars(item.data(), item.data() + item.size(), value);
    if (ec == std::errc() && ptr == item.data() + item.size()) {
      out.push_back(value);
    }
  }
  return out;
}

}  // namespace

Expected<TracerOptions> TracerOptions::FromConfig(const Config& config) {
  (void)WarnUnknownKeys(
      config, "tracer",
      {"session", "syscalls", "pids", "tids", "paths", "ring_bytes_per_cpu",
       "pending_map_entries", "first_access_map_entries", "batch_size",
       "flush_interval_ns", "poll_interval_ns", "consumer_threads", "enrich",
       "aggregate_in_kernel", "kernel_filtering", "hook_cost_ns",
       "path_cap"});
  TracerOptions options;
  options.session_name =
      config.GetString("tracer.session", options.session_name);
  options.syscalls = config.GetList("tracer.syscalls");
  for (const std::string& name : options.syscalls) {
    if (!os::SyscallFromName(name).has_value()) {
      return InvalidArgument("unknown syscall in config: " + name);
    }
  }
  options.pids = ParseIntList<os::Pid>(config.GetList("tracer.pids"));
  options.tids = ParseIntList<os::Tid>(config.GetList("tracer.tids"));
  options.paths = config.GetList("tracer.paths");
  // Counts: a non-integer value, or one below the key's minimum, is an
  // error naming the key.
  for (auto [key, field, min] :
       {std::tuple{"tracer.ring_bytes_per_cpu", &options.ring_bytes_per_cpu, 1},
        std::tuple{"tracer.pending_map_entries", &options.pending_map_entries,
                   1},
        std::tuple{"tracer.first_access_map_entries",
                   &options.first_access_map_entries, 1},
        std::tuple{"tracer.batch_size", &options.batch_size, 1},
        std::tuple{"tracer.consumer_threads", &options.consumer_threads, 0},
        std::tuple{"tracer.path_cap", &options.path_cap, 0}}) {
    auto value = GetCount(config, key, *field, min);
    if (!value.ok()) return value.status();
    *field = *value;
  }
  options.flush_interval_ns =
      config.GetInt("tracer.flush_interval_ns", options.flush_interval_ns);
  options.poll_interval_ns =
      config.GetInt("tracer.poll_interval_ns", options.poll_interval_ns);
  options.enrich = config.GetBool("tracer.enrich", options.enrich);
  options.aggregate_in_kernel = config.GetBool(
      "tracer.aggregate_in_kernel", options.aggregate_in_kernel);
  options.kernel_filtering =
      config.GetBool("tracer.kernel_filtering", options.kernel_filtering);
  options.hook_cost_ns =
      config.GetInt("tracer.hook_cost_ns", options.hook_cost_ns);
  // The wire record's path buffers are fixed at kWirePathCap; the knob can
  // only tighten the capture, not widen it.
  options.path_cap = std::min<std::size_t>(options.path_cap, kWirePathCap);
  return options;
}

DioTracer::DioTracer(os::Kernel* kernel, EventSink* sink,
                     TracerOptions options)
    : kernel_(kernel),
      sink_(sink),
      options_(std::move(options)),
      filters_([&] {
        FilterConfig fc;
        for (const std::string& name : options_.syscalls) {
          if (auto nr = os::SyscallFromName(name)) fc.syscalls.insert(*nr);
        }
        fc.pids.insert(options_.pids.begin(), options_.pids.end());
        fc.tids.insert(options_.tids.begin(), options_.tids.end());
        fc.path_prefixes = options_.paths;
        return fc;
      }()),
      pending_(options_.pending_map_entries),
      first_access_(options_.first_access_map_entries),
      fd_tags_(options_.first_access_map_entries),
      rings_(kernel->num_cpus(), options_.ring_bytes_per_cpu) {
  if (filters_.config().syscalls.empty()) {
    for (const os::SyscallDescriptor& desc : os::SyscallTable()) {
      enabled_.insert(desc.nr);
    }
  } else {
    enabled_ = filters_.config().syscalls;
  }
}

DioTracer::~DioTracer() { Stop(); }

Status DioTracer::Start() {
  if (started_.exchange(true)) {
    return FailedPrecondition("tracer already started");
  }
  ebpf::BpfLoader loader(&kernel_->tracepoints());
  // "By default, DIO's tracer enables tracepoints for the full set of
  // supported syscalls. However, users can specify a list of syscalls to
  // observe, and the tracer will only activate tracepoints for those."
  for (os::SyscallNr nr : enabled_) {
    ebpf::ProgramSpec enter_spec;
    enter_spec.name = "dio_enter";
    enter_spec.type = ebpf::ProgramType::kTracepointSysEnter;
    enter_spec.syscall = nr;
    auto enter_link = loader.AttachSysEnter(
        enter_spec, [this](const os::SysEnterContext& ctx) { OnEnter(ctx); });
    if (!enter_link.ok()) return enter_link.status();
    links_.push_back(std::move(enter_link.value()));

    ebpf::ProgramSpec exit_spec;
    exit_spec.name = "dio_exit";
    exit_spec.type = ebpf::ProgramType::kTracepointSysExit;
    exit_spec.syscall = nr;
    auto exit_link = loader.AttachSysExit(
        exit_spec, [this](const os::SysExitContext& ctx) { OnExit(ctx); });
    if (!exit_link.ok()) return exit_link.status();
    links_.push_back(std::move(exit_link.value()));
  }
  const std::size_t num_workers = ResolveConsumerThreads();
  if (options_.manual_consumers) {
    manual_states_.reserve(num_workers);
    for (std::size_t w = 0; w < num_workers; ++w) {
      auto state = std::make_unique<ConsumerState>();
      state->batch.reserve(options_.batch_size);
      state->wire.reserve(options_.batch_size);
      state->last_flush = kernel_->clock()->NowNanos();
      manual_states_.push_back(std::move(state));
    }
    return Status::Ok();
  }
  consumers_.reserve(num_workers);
  for (std::size_t w = 0; w < num_workers; ++w) {
    consumers_.emplace_back([this, w, num_workers](std::stop_token st) {
      ConsumerLoop(st, w, num_workers);
    });
  }
  return Status::Ok();
}

std::size_t DioTracer::ResolveConsumerThreads() const {
  std::size_t n = options_.consumer_threads;
  if (n == 0) {
    const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
    n = std::min<std::size_t>(
        static_cast<std::size_t>(kernel_->num_cpus()), hw);
  }
  // More workers than rings would leave threads idle; fewer than one is
  // meaningless.
  return std::clamp<std::size_t>(
      n, 1, static_cast<std::size_t>(kernel_->num_cpus()));
}

void DioTracer::Stop() {
  if (!started_.load() || stopped_.exchange(true)) return;
  // Deterministic drain order: detach first so no new events are produced,
  // join the consumers so every ring record has been decoded and emitted,
  // and only then flush the sink — for a transport pipeline that drains its
  // queues into the terminal sinks, so nothing in flight is abandoned.
  for (ebpf::BpfLink& link : links_) link.Detach();
  links_.clear();
  for (std::jthread& consumer : consumers_) consumer.request_stop();
  for (std::jthread& consumer : consumers_) {
    if (consumer.joinable()) consumer.join();
  }
  consumers_.clear();
  if (!manual_states_.empty()) {
    // Manual mode: serial final drain, rounds until no worker moves, then
    // flush every worker's tail batch — the same everything-drained
    // guarantee the joined threads provide.
    const std::size_t num_workers = manual_states_.size();
    bool moved = true;
    while (moved) {
      moved = false;
      for (std::size_t w = 0; w < num_workers; ++w) {
        if (DrainStripeOnce(manual_states_[w].get(), w, num_workers) > 0) {
          moved = true;
        }
      }
    }
    for (auto& state : manual_states_) {
      FlushBatch(state.get());
    }
    manual_states_.clear();
  }
  sink_->Flush();
}

bool DioTracer::PassesFilters(os::Pid pid, os::Tid tid,
                              std::string_view path) const {
  if (!filters_.MatchTask(pid, tid)) return false;
  if (filters_.has_path_filter() && !filters_.MatchPath(path)) return false;
  return true;
}

void DioTracer::OnEnter(const os::SysEnterContext& ctx) {
  enter_hits_.fetch_add(1, std::memory_order_relaxed);
  SpinFor(kernel_->clock(), options_.hook_cost_ns / 2);

  // The kernel-side task filter runs before anything else: a filtered event
  // must cost neither kernel-state snapshots nor string copies.
  if (options_.kernel_filtering && !filters_.MatchTask(ctx.pid, ctx.tid)) {
    filtered_out_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  const os::SyscallDescriptor& desc = os::Describe(ctx.nr);
  const os::SyscallArgs& args = *ctx.args;

  // Snapshot the fd's kernel state at entry: for data syscalls the offset
  // must be read *before* the kernel advances it. The dentry path is only
  // ever consumed by the kernel-side path filter below, so its copy into
  // the stack buffer is skipped entirely when no path filter will read it.
  os::FdSnapshot fd_state;
  os::PathView path_view;
  bool have_fd_view = false;
  bool have_path_view = false;
  char fd_path[kWirePathCap];
  const bool want_fd_path =
      options_.kernel_filtering && filters_.has_path_filter();
  if (desc.takes_fd) {
    have_fd_view = ctx.kernel->SnapshotFd(
        ctx.pid, args.fd,
        want_fd_path ? std::span<char>(fd_path) : std::span<char>(),
        &fd_state);
  } else if (desc.takes_path) {
    if (auto view = ctx.kernel->ResolvePath(args.path)) {
      path_view = *view;
      have_path_view = true;
    }
  }

  if (want_fd_path) {
    const std::string_view path =
        have_fd_view ? std::string_view(fd_path, fd_state.path_len)
                     : std::string_view(args.path);
    if (!filters_.MatchPath(path)) {
      filtered_out_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }

  // Only filter survivors pay the string copies into the inline buffers.
  // The fill runs directly against the map node (UpdateWith), so the entry
  // is written exactly once — never staged on the stack and copied in. A
  // recycled node keeps stale bytes, so every field is assigned here.
  const std::size_t path_cap = std::min(options_.path_cap, kWirePathCap);
  const auto fill = [&](PendingEntry& entry) {
    entry.enter_ts = ctx.timestamp;
    entry.fd = args.fd;
    entry.count = args.count;
    entry.arg_offset = args.offset;
    entry.whence = args.whence;
    entry.flags = args.flags;
    entry.mode = args.mode;
    entry.have_fd_view = have_fd_view;
    entry.have_path_view = have_path_view;
    entry.fd_state = fd_state;
    entry.path_view = path_view;
    entry.comm_len = WireEvent::FillString(entry.comm, kWireCommCap, ctx.comm,
                                           &entry.comm_trunc);
    entry.path_len = WireEvent::FillString(entry.path, path_cap, args.path,
                                           &entry.path_trunc);
    entry.path2_len = WireEvent::FillString(entry.path2, path_cap, args.path2,
                                            &entry.path2_trunc);
    entry.xattr_len = WireEvent::FillString(entry.xattr_name, kWireXattrCap,
                                            args.name, &entry.xattr_trunc);
  };

  if (!options_.aggregate_in_kernel) {
    PendingEntry entry;
    fill(entry);
    EmitEnterHalf(ctx, entry);
    return;
  }
  if (!pending_.UpdateWith(ctx.tid, fill)) {
    pending_overflow_.fetch_add(1, std::memory_order_relaxed);
  }
}

// Copies the entry's scalars and inline strings into the reserved record.
// Per-site header fields (phase, nr, pid/tid/cpu, exit-side values,
// proc_name, enrichment) are the caller's job — every remaining field must
// be assigned explicitly rather than inherited from ring memory.
void DioTracer::FillWireFromEntry(WireEvent* out, const PendingEntry& entry) {
  out->time_enter = entry.enter_ts;
  out->count = entry.count;
  out->arg_offset = entry.arg_offset;
  out->fd = entry.fd;
  out->whence = entry.whence;
  out->flags = entry.flags;
  out->mode = entry.mode;
  out->comm_len = entry.comm_len;
  out->comm_trunc = entry.comm_trunc;
  out->path_len = entry.path_len;
  out->path_trunc = entry.path_trunc;
  out->path2_len = entry.path2_len;
  out->path2_trunc = entry.path2_trunc;
  out->xattr_len = entry.xattr_len;
  out->xattr_trunc = entry.xattr_trunc;
  if (entry.comm_len > 0) std::memcpy(out->comm, entry.comm, entry.comm_len);
  if (entry.path_len > 0) std::memcpy(out->path, entry.path, entry.path_len);
  if (entry.path2_len > 0) {
    std::memcpy(out->path2, entry.path2, entry.path2_len);
  }
  if (entry.xattr_len > 0) {
    std::memcpy(out->xattr_name, entry.xattr_name, entry.xattr_len);
  }
}

void DioTracer::AccountTruncation(const WireEvent& wire) {
  if (wire.truncated_bytes() == 0) return;  // common case: nothing cut
  if (wire.comm_trunc != 0) {
    trunc_comm_.fetch_add(wire.comm_trunc, std::memory_order_relaxed);
  }
  if (wire.proc_name_trunc != 0) {
    trunc_proc_name_.fetch_add(wire.proc_name_trunc,
                               std::memory_order_relaxed);
  }
  if (wire.path_trunc != 0) {
    trunc_path_.fetch_add(wire.path_trunc, std::memory_order_relaxed);
  }
  if (wire.path2_trunc != 0) {
    trunc_path2_.fetch_add(wire.path2_trunc, std::memory_order_relaxed);
  }
  if (wire.xattr_trunc != 0) {
    trunc_xattr_.fetch_add(wire.xattr_trunc, std::memory_order_relaxed);
  }
}

// Ablation A4 (aggregate_in_kernel = false): ship the raw enter record.
// Enrichment is limited to entry-time kernel state — open/creat tags (which
// need the returned fd) and close-time tag retirement are unavailable,
// which is part of why DIO aggregates in kernel space.
void DioTracer::EmitEnterHalf(const os::SysEnterContext& ctx,
                              const PendingEntry& entry) {
  const int cpu = ctx.kernel->cpu_of(ctx.tid);
  auto reservation = rings_.Reserve(cpu, sizeof(WireEvent));
  if (!reservation.valid()) {
    // Same rule as the aggregate path: a lost record must not lose the
    // first-access map update, or tag timestamps depend on ring pressure.
    if (options_.enrich) {
      const os::SyscallDescriptor& desc = os::Describe(ctx.nr);
      if (desc.takes_fd && entry.have_fd_view) {
        first_access_.Insert(TagKey(entry.fd_state.dev, entry.fd_state.ino),
                             entry.enter_ts);
      }
    }
    return;
  }
  auto* wire = reinterpret_cast<WireEvent*>(reservation.data());
  FillWireFromEntry(wire, entry);
  wire->phase = static_cast<std::uint8_t>(EventPhase::kEnter);
  wire->nr = static_cast<std::uint8_t>(ctx.nr);
  wire->pid = ctx.pid;
  wire->tid = ctx.tid;
  wire->cpu = cpu;
  wire->time_exit = 0;
  wire->ret = 0;
  wire->file_offset = -1;
  wire->file_type = static_cast<std::uint8_t>(os::FileType::kUnknown);
  wire->tag_valid = 0;
  wire->tag_dev = 0;
  wire->tag_ino = 0;
  wire->tag_ts = 0;
  const std::size_t name_full = ctx.kernel->CopyProcessName(
      ctx.pid, std::span<char>(wire->proc_name, kWireCommCap));
  const std::size_t name_copied = std::min(name_full, kWireCommCap);
  wire->proc_name_len = static_cast<std::uint16_t>(name_copied);
  wire->proc_name_trunc = static_cast<std::uint16_t>(
      std::min<std::size_t>(name_full - name_copied, 0xFFFF));
  if (options_.enrich) {
    const os::SyscallDescriptor& desc = os::Describe(ctx.nr);
    if (desc.takes_fd && entry.have_fd_view) {
      wire->file_type = static_cast<std::uint8_t>(entry.fd_state.type);
      if (desc.data_related) {
        wire->file_offset = static_cast<std::int64_t>(entry.fd_state.offset);
      }
      const std::uint64_t key =
          TagKey(entry.fd_state.dev, entry.fd_state.ino);
      first_access_.Insert(key, entry.enter_ts);
      if (auto ts = first_access_.Lookup(key)) {
        wire->tag_valid = 1;
        wire->tag_dev = entry.fd_state.dev;
        wire->tag_ino = entry.fd_state.ino;
        wire->tag_ts = *ts;
      }
    } else if (desc.takes_path && entry.have_path_view) {
      wire->file_type = static_cast<std::uint8_t>(entry.path_view.type);
    }
  }
  AccountTruncation(*wire);
  rings_.Commit(cpu, reservation);
}

void DioTracer::EmitExitHalf(const os::SysExitContext& ctx) {
  const int cpu = ctx.kernel->cpu_of(ctx.tid);
  auto reservation = rings_.Reserve(cpu, sizeof(WireEvent));
  if (!reservation.valid()) return;
  auto* wire = reinterpret_cast<WireEvent*>(reservation.data());
  wire->phase = static_cast<std::uint8_t>(EventPhase::kExit);
  wire->nr = static_cast<std::uint8_t>(ctx.nr);
  wire->pid = ctx.pid;
  wire->tid = ctx.tid;
  wire->cpu = cpu;
  wire->time_enter = 0;
  wire->time_exit = ctx.timestamp;
  wire->ret = ctx.ret;
  wire->count = 0;
  wire->arg_offset = -1;
  wire->file_offset = -1;
  wire->fd = os::kNoFd;
  wire->whence = -1;
  wire->flags = 0;
  wire->mode = 0;
  wire->comm_len = 0;
  wire->proc_name_len = 0;
  wire->path_len = 0;
  wire->path2_len = 0;
  wire->xattr_len = 0;
  wire->comm_trunc = 0;
  wire->proc_name_trunc = 0;
  wire->path_trunc = 0;
  wire->path2_trunc = 0;
  wire->xattr_trunc = 0;
  wire->file_type = static_cast<std::uint8_t>(os::FileType::kUnknown);
  wire->tag_valid = 0;
  wire->tag_dev = 0;
  wire->tag_ino = 0;
  wire->tag_ts = 0;
  rings_.Commit(cpu, reservation);
}

void DioTracer::Enrich(WireEvent* out, const PendingEntry& entry,
                       const os::SysExitContext& ctx) {
  const auto nr = static_cast<os::SyscallNr>(out->nr);
  const os::SyscallDescriptor& desc = os::Describe(nr);

  // File type + file tag for fd-handling syscalls. open/openat/creat return
  // the fd, so their kernel state is read at exit via the return value; the
  // resolved tag is remembered per (pid, fd) so later syscalls on the fd —
  // including a close after the file was unlinked — report the tag of the
  // file generation the fd was opened against (Fig. 2a).
  const auto resolve_tag = [this](os::DeviceNum dev, os::InodeNum ino,
                                  Nanos enter_ts) {
    const std::uint64_t key = TagKey(dev, ino);
    // First-access timestamp: insert-if-absent, then read. Disambiguates
    // recycled inode numbers (§III-B).
    first_access_.Insert(key, enter_ts);
    FileTag tag;
    if (auto ts = first_access_.Lookup(key)) {
      tag.valid = true;
      tag.dev = dev;
      tag.ino = ino;
      tag.first_access_ts = *ts;
    }
    return tag;
  };
  const auto set_tag = [](WireEvent* w, const FileTag& tag) {
    w->tag_valid = tag.valid ? 1 : 0;
    w->tag_dev = tag.dev;
    w->tag_ino = tag.ino;
    w->tag_ts = tag.first_access_ts;
  };

  if ((nr == os::SyscallNr::kOpen || nr == os::SyscallNr::kOpenat ||
       nr == os::SyscallNr::kCreat) &&
      ctx.ret >= 0) {
    // Allocation-free read of the just-opened fd's state; the dentry path
    // is not needed here, so no buffer is passed.
    os::FdSnapshot opened;
    if (ctx.kernel->SnapshotFd(ctx.pid, static_cast<os::Fd>(ctx.ret),
                               std::span<char>(), &opened)) {
      out->file_type = static_cast<std::uint8_t>(opened.type);
      const FileTag tag =
          resolve_tag(opened.dev, opened.ino, entry.enter_ts);
      set_tag(out, tag);
      fd_tags_.Update(FdKey(ctx.pid, static_cast<os::Fd>(ctx.ret)), tag);
    }
  } else if (desc.takes_fd) {
    // Prefer the tag resolved at open time; fall back to kernel state for
    // fds opened before tracing started.
    if (auto tag = fd_tags_.Lookup(FdKey(ctx.pid, entry.fd))) {
      set_tag(out, *tag);
      if (entry.have_fd_view) {
        out->file_type = static_cast<std::uint8_t>(entry.fd_state.type);
      }
    } else if (entry.have_fd_view) {
      out->file_type = static_cast<std::uint8_t>(entry.fd_state.type);
      const FileTag tag = resolve_tag(entry.fd_state.dev,
                                      entry.fd_state.ino, entry.enter_ts);
      set_tag(out, tag);
      fd_tags_.Update(FdKey(ctx.pid, entry.fd), tag);
    }
    if (nr == os::SyscallNr::kClose && ctx.ret == 0) {
      fd_tags_.Delete(FdKey(ctx.pid, entry.fd));
    }
  } else if (desc.takes_path && entry.have_path_view) {
    // Path-based syscalls get the file type but no tag (the paper tags
    // "syscalls handling file descriptors").
    out->file_type = static_cast<std::uint8_t>(entry.path_view.type);
  }

  // File offset for data-related syscalls (§II-B): the position being
  // accessed, even for syscalls that do not carry it as an argument.
  if (desc.data_related) {
    switch (nr) {
      case os::SyscallNr::kPread64:
      case os::SyscallNr::kPwrite64:
        out->file_offset = entry.arg_offset;
        break;
      case os::SyscallNr::kLseek:
        // The resulting position.
        if (ctx.ret >= 0) out->file_offset = ctx.ret;
        break;
      case os::SyscallNr::kRead:
      case os::SyscallNr::kReadv:
      case os::SyscallNr::kWrite:
      case os::SyscallNr::kWritev:
        if (entry.have_fd_view) {
          out->file_offset =
              static_cast<std::int64_t>(entry.fd_state.offset);
        }
        break;
      default:
        break;
    }
  }

  // A successful unlink retires the (dev, ino) first-access entry so a
  // recycled inode number gets a fresh tag timestamp.
  if ((nr == os::SyscallNr::kUnlink || nr == os::SyscallNr::kUnlinkat) &&
      ctx.ret == 0 && entry.have_path_view) {
    first_access_.Delete(TagKey(entry.path_view.dev, entry.path_view.ino));
  }
}

void DioTracer::OnExit(const os::SysExitContext& ctx) {
  exit_hits_.fetch_add(1, std::memory_order_relaxed);
  SpinFor(kernel_->clock(), options_.hook_cost_ns - options_.hook_cost_ns / 2);

  if (!options_.aggregate_in_kernel) {
    // In raw mode the exit passes filters implicitly: if the enter was
    // filtered the user-space pairer drops the orphan exit record.
    if (options_.kernel_filtering &&
        !filters_.MatchTask(ctx.pid, ctx.tid)) {
      return;
    }
    EmitExitHalf(ctx);
    return;
  }
  // Pop the pending entry and consume it IN PLACE under its shard lock
  // (TakeWith) — the lookup_and_delete + inline processing a real exit hook
  // does, without copying the entry out of the map first. The callback only
  // takes locks the pending map never nests inside (ring internals,
  // fd-tag/first-access shards, the process registry), so the ordering is
  // acyclic. Aggregates entry+exit into ONE record, built in place inside
  // the ring reservation (bpf_ringbuf_reserve/submit) — the hook path's
  // only wire-event copy.
  const bool matched = pending_.TakeWith(ctx.tid, [&](
                                             const PendingEntry& entry) {
    const int cpu = ctx.kernel->cpu_of(ctx.tid);
    auto reservation = rings_.Reserve(cpu, sizeof(WireEvent));
    if (!reservation.valid()) {
      // Ring full: the record is lost (counted by the ring), but the map
      // state a real BPF program updates unconditionally — fd tags,
      // first-access timestamps, unlink retirement — must still advance.
      // Skipping it leaves a stale tag on the fd slot, and the next file
      // opened with the same fd number inherits the previous file's tag.
      if (options_.enrich) {
        WireEvent scratch{};
        scratch.nr = static_cast<std::uint8_t>(ctx.nr);
        Enrich(&scratch, entry, ctx);
      }
      return;
    }
    auto* wire = reinterpret_cast<WireEvent*>(reservation.data());
    FillWireFromEntry(wire, entry);
    wire->phase = static_cast<std::uint8_t>(EventPhase::kFull);
    wire->nr = static_cast<std::uint8_t>(ctx.nr);
    wire->pid = ctx.pid;
    wire->tid = ctx.tid;
    wire->cpu = cpu;
    wire->time_exit = ctx.timestamp;
    wire->ret = ctx.ret;
    wire->file_offset = -1;
    wire->file_type = static_cast<std::uint8_t>(os::FileType::kUnknown);
    wire->tag_valid = 0;
    wire->tag_dev = 0;
    wire->tag_ino = 0;
    wire->tag_ts = 0;
    const std::size_t name_full = ctx.kernel->CopyProcessName(
        ctx.pid, std::span<char>(wire->proc_name, kWireCommCap));
    const std::size_t name_copied = std::min(name_full, kWireCommCap);
    wire->proc_name_len = static_cast<std::uint16_t>(name_copied);
    wire->proc_name_trunc = static_cast<std::uint16_t>(
        std::min<std::size_t>(name_full - name_copied, 0xFFFF));

    if (options_.enrich) Enrich(wire, entry, ctx);

    AccountTruncation(*wire);
    rings_.Commit(cpu, reservation);
  });
  if (!matched) {
    // Filtered at entry, or the pending map was full.
    unmatched_exit_.fetch_add(1, std::memory_order_relaxed);
  }
}

void DioTracer::HandleRecord(ConsumerState* state,
                             std::span<const std::byte> bytes) {
  // `consumed` counts every record drained from a ring, including the
  // ones that fail to decode — stats() keeps
  // consumed == emitted + user_filtered + decode_errors (+ any raw-mode
  // halves still being paired).
  consumed_.fetch_add(1, std::memory_order_relaxed);
  // Lazy decode: validate once, read fields straight out of ring memory,
  // and materialize an Event (string allocations) only for records that
  // survive user-space filtering. The view dies with this callback.
  auto decoded = WireEventView::FromBytes(bytes);
  if (!decoded.ok()) {
    decode_errors_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const WireEventView& view = decoded.value();
  const auto phase = static_cast<EventPhase>(view.phase());
  if (phase == EventPhase::kEnter) {
    // Raw-mode pairing needs the half to outlive the callback.
    state->half_events[view.tid()] = MaterializeEvent(view);
    return;
  }
  if (phase == EventPhase::kExit) {
    auto it = state->half_events.find(view.tid());
    if (it == state->half_events.end() || it->second.nr != view.nr()) {
      unmatched_exit_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Event merged = std::move(it->second);
    state->half_events.erase(it);
    merged.phase = EventPhase::kFull;
    merged.time_exit = view.raw().time_exit;
    merged.ret = view.raw().ret;
    if (!options_.kernel_filtering) {
      const std::string_view path = merged.path.empty() && merged.tag.valid
                                        ? std::string_view()
                                        : std::string_view(merged.path);
      if (!PassesFilters(merged.pid, merged.tid, path)) {
        user_filtered_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    state->batch.push_back(std::move(merged));
  } else {
    if (!options_.kernel_filtering) {
      // Tagged events with an empty path are fd-based syscalls whose path
      // was never captured; they pass the path filter (as before).
      const std::string_view path =
          view.path().empty() && view.tag_valid() ? std::string_view()
                                                  : view.path();
      if (!PassesFilters(view.pid(), view.tid(), path)) {
        user_filtered_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    // Aggregate-mode survivor: copy the record off the ring verbatim and
    // ship it binary (typed ingest). No Event, no std::string, no Json on
    // this thread — materialization happens only if a JSON-consuming sink
    // (the oracle store route) asks for it downstream.
    state->wire.push_back(view.raw());
  }
  if (state->batch.size() + state->wire.size() >= options_.batch_size) {
    FlushBatch(state);
  }
}

std::size_t DioTracer::DrainStripeOnce(ConsumerState* state,
                                       std::size_t worker,
                                       std::size_t num_workers) {
  // Drain this worker's stripe of rings; each ring is drained by exactly
  // one worker (SPSC), in zero-copy batches.
  const auto handle = [this, state](std::span<const std::byte> bytes) {
    HandleRecord(state, bytes);
  };
  const int num_cpus = rings_.num_cpus();
  std::size_t n = 0;
  for (int cpu = static_cast<int>(worker); cpu < num_cpus;
       cpu += static_cast<int>(num_workers)) {
    n += rings_.DrainRing(cpu, handle, 4096);
  }
  const Nanos now = kernel_->clock()->NowNanos();
  if ((!state->batch.empty() || !state->wire.empty()) &&
      now - state->last_flush >= options_.flush_interval_ns) {
    FlushBatch(state);
    state->last_flush = now;
  }
  return n;
}

std::size_t DioTracer::PumpConsumer(std::size_t worker) {
  if (worker >= manual_states_.size()) return 0;
  return DrainStripeOnce(manual_states_[worker].get(), worker,
                         manual_states_.size());
}

void DioTracer::ConsumerLoop(const std::stop_token& stop, std::size_t worker,
                             std::size_t num_workers) {
  ConsumerState state;
  state.batch.reserve(options_.batch_size);
  state.wire.reserve(options_.batch_size);
  state.last_flush = kernel_->clock()->NowNanos();

  while (true) {
    const std::size_t n = DrainStripeOnce(&state, worker, num_workers);
    if (n == 0) {
      if (stop.stop_requested()) break;  // drained after detach
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(options_.poll_interval_ns));
    }
  }
  FlushBatch(&state);
}

void DioTracer::FlushBatch(ConsumerState* state) {
  if (!state->wire.empty()) {
    emitted_.fetch_add(state->wire.size(), std::memory_order_relaxed);
    batches_.fetch_add(1, std::memory_order_relaxed);
    sink_->IndexWire(options_.session_name, std::move(state->wire));
    state->wire.clear();
    state->wire.reserve(options_.batch_size);
  }
  if (!state->batch.empty()) {
    emitted_.fetch_add(state->batch.size(), std::memory_order_relaxed);
    batches_.fetch_add(1, std::memory_order_relaxed);
    sink_->IndexEvents(options_.session_name, std::move(state->batch));
    state->batch.clear();
    state->batch.reserve(options_.batch_size);
  }
}

TracerStats DioTracer::stats() const {
  TracerStats s;
  s.enter_hits = enter_hits_.load(std::memory_order_relaxed);
  s.exit_hits = exit_hits_.load(std::memory_order_relaxed);
  s.filtered_out = filtered_out_.load(std::memory_order_relaxed);
  s.pending_overflow = pending_overflow_.load(std::memory_order_relaxed);
  s.unmatched_exit = unmatched_exit_.load(std::memory_order_relaxed);
  s.ring_pushed = rings_.TotalPushed();
  s.ring_dropped = rings_.TotalDropped();
  s.consumed = consumed_.load(std::memory_order_relaxed);
  s.user_filtered = user_filtered_.load(std::memory_order_relaxed);
  s.emitted = emitted_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.decode_errors = decode_errors_.load(std::memory_order_relaxed);
  s.ring_discarded = rings_.TotalDiscarded();
  s.truncated_comm_bytes = trunc_comm_.load(std::memory_order_relaxed);
  s.truncated_proc_name_bytes =
      trunc_proc_name_.load(std::memory_order_relaxed);
  s.truncated_path_bytes = trunc_path_.load(std::memory_order_relaxed);
  s.truncated_path2_bytes = trunc_path2_.load(std::memory_order_relaxed);
  s.truncated_xattr_bytes = trunc_xattr_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace dio::tracer
