// Terminal sink that lives in the transport layer itself:
//
//  * CollectorSink — in-memory terminal sink for tests and benches, with a
//    configurable per-delivery latency (to exercise backpressure) and a
//    scriptable failure budget (to exercise retry/dead-letter paths).
//
// The other terminal sinks live with what they depend on: the backend's
// BulkClient (backend/), the cluster's ClusterBulkSink (cluster/), and the
// trace file sink TraceRecordSink (trace/writer.h).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "transport/transport.h"

namespace dio::transport {

struct CollectorOptions {
  // Simulated delivery latency per batch (stands in for the network +
  // index hop; lets benches create a slow sink deterministically).
  Nanos deliver_latency_ns = 0;
  // The latency is waited out through this clock, so a ManualClock turns it
  // into deterministic virtual time under the sim harness.
  Clock* clock = nullptr;  // null = SteadyClock
};

class CollectorSink final : public Transport {
 public:
  explicit CollectorSink(CollectorOptions options = {}) : options_(options) {
    stats_.stage = "collector";
  }

  Status Submit(EventBatch batch) override;
  void Flush() override {}
  void CollectStats(std::vector<StageStats>* out) const override;
  [[nodiscard]] std::string_view name() const override { return "collector"; }

  // The next `n` Submit calls fail with Unavailable (before storing).
  void FailNext(std::size_t n);
  [[nodiscard]] std::vector<Json> documents() const;
  [[nodiscard]] std::size_t document_count() const;

 private:
  CollectorOptions options_;
  mutable std::mutex mu_;
  std::vector<Json> documents_;
  StageStats stats_;
  std::size_t fail_next_ = 0;
};

}  // namespace dio::transport
