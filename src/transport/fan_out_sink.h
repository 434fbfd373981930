// FanOutSink: tees one event stream to N downstream sinks (e.g. the
// backend bulk client plus a replayable trace file). Each child gets its
// own copy of every batch; one child failing does not starve the others,
// and the first error is reported upstream so a retry stage above the fan
// re-drives delivery (children must tolerate duplicate batches in that
// configuration — the bulk store and the trace file both do, append-only).
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "transport/transport.h"

namespace dio::transport {

class FanOutSink final : public Transport {
 public:
  explicit FanOutSink(std::vector<std::unique_ptr<Transport>> children);

  Status Submit(EventBatch batch) override;
  void Flush() override;
  void CollectStats(std::vector<StageStats>* out) const override;
  [[nodiscard]] std::string_view name() const override { return "fanout"; }

 private:
  std::vector<std::unique_ptr<Transport>> children_;
  mutable std::mutex mu_;
  StageStats stats_;
};

}  // namespace dio::transport
