// BulkClient: the terminal bulk-indexing sink for the backend (the
// go-elasticsearch bulk API stand-in, §II-E). Delivery is synchronous: one
// Submit = one simulated network hop + one store bulk request. Queueing,
// backpressure, retry, and fan-out all live ABOVE this sink in the
// transport layer (transport/pipeline.h) — wiring a session through a
// transport::Pipeline restores the paper's asynchronous shipping while
// keeping this client a dumb wire.
//
// The tracer::EventSink facade remains for direct (synchronous) use in
// small tools and tests; DioService and DioAdapter always go through a
// pipeline.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "backend/store.h"
#include "common/clock.h"
#include "common/config.h"
#include "tracer/sink.h"
#include "transport/transport.h"

namespace dio::backend {

struct BulkClientOptions {
  static constexpr std::int64_t kDefaultRefreshIntervalMs = 50;

  // Simulated one-way network latency to the backend server (the paper runs
  // the pipeline on separate machines).
  Nanos network_latency_ns = 200 * kMicrosecond;
  // Near-real-time refresh deadline, like ES's index.refresh_interval: after
  // a successful Submit the sink refreshes once this long has passed on its
  // Clock since its last refresh. The default matches the tracer's
  // flush_interval, so an event is searchable within about one tracer
  // batch. 0 = refresh only on Flush.
  std::int64_t refresh_interval_ms = kDefaultRefreshIntervalMs;
  // §II-E: "The file path correlation algorithm can be automatically
  // executed by the tracer or on-demand by users." When true, Flush() runs
  // the correlation algorithm after refreshing, so file_path is populated
  // without user intervention.
  bool auto_correlate = false;

  [[nodiscard]] Nanos refresh_interval() const {
    return refresh_interval_ms * kMillisecond;
  }

  // Reads the bulk-sink keys of the [transport] section
  // (network_latency_ns, refresh_interval_ms, auto_correlate). Rejects a
  // negative or non-integer network_latency_ns or refresh_interval_ms,
  // naming the key.
  static Expected<BulkClientOptions> FromConfig(const Config& config);
};

// The refresh policy both terminal sinks share (this client and
// cluster::ClusterBulkSink): Due() is true, and restarts the interval, once
// `interval` has passed on `clock` since the last refresh. It is polled
// after each accepted batch, so there is no timer thread; an interval of 0
// is never due. Thread-safe.
class RefreshDeadline {
 public:
  RefreshDeadline(Nanos interval, Clock* clock)
      : interval_(interval), clock_(clock), last_(clock->NowNanos()) {}

  [[nodiscard]] bool Due() {
    if (interval_ <= 0) return false;
    const Nanos now = clock_->NowNanos();
    std::scoped_lock lock(mu_);
    if (now - last_ < interval_) return false;
    last_ = now;
    return true;
  }
  // A refresh happened anyway (Flush): the interval restarts now.
  void Restart() {
    const Nanos now = clock_->NowNanos();
    std::scoped_lock lock(mu_);
    last_ = now;
  }

 private:
  const Nanos interval_;
  Clock* clock_;
  std::mutex mu_;
  Nanos last_;
};

class BulkClient final : public transport::Transport,
                         public tracer::EventSink {
 public:
  BulkClient(ElasticStore* store, std::string index,
             BulkClientOptions options = {},
             Clock* clock = SteadyClock::Instance());

  BulkClient(const BulkClient&) = delete;
  BulkClient& operator=(const BulkClient&) = delete;

  // transport::Transport (terminal stage): synchronous delivery.
  Status Submit(transport::EventBatch batch) override;
  void CollectStats(std::vector<transport::StageStats>* out) const override;
  [[nodiscard]] std::string_view name() const override { return "bulk"; }

  // Shared by both interfaces: refreshes the index (and optionally runs
  // the correlation algorithm). Synchronous, so there is nothing to drain.
  void Flush() override;

  // tracer::EventSink facade for direct use without a pipeline.
  void IndexBatch(std::vector<Json> documents) override;
  void IndexEvents(std::string_view session,
                   std::vector<tracer::Event> events) override;

  [[nodiscard]] std::uint64_t batches_sent() const {
    std::scoped_lock lock(mu_);
    return stats_.batches_in;
  }
  [[nodiscard]] const std::string& index() const { return index_; }

 private:
  ElasticStore* store_;
  std::string index_;
  BulkClientOptions options_;
  Clock* clock_;
  RefreshDeadline refresh_;

  mutable std::mutex mu_;
  transport::StageStats stats_;
};

}  // namespace dio::backend
