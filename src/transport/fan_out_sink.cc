#include "transport/fan_out_sink.h"

#include <utility>

namespace dio::transport {

FanOutSink::FanOutSink(std::vector<std::unique_ptr<Transport>> children)
    : children_(std::move(children)) {
  stats_.stage = "fanout";
}

Status FanOutSink::Submit(EventBatch batch) {
  const std::size_t batch_events = batch.size();
  {
    std::scoped_lock lock(mu_);
    stats_.batches_in += 1;
    stats_.events_in += batch_events;
  }
  // Batches fan out in the form they arrived: each child converts what it
  // needs (the bulk client materializes deferred events; the trace sink
  // records events and wire records as binary).
  Status first_error = Status::Ok();
  for (std::size_t i = 0; i < children_.size(); ++i) {
    // Move into the last child, copy into the others.
    Status status = i + 1 == children_.size()
                        ? children_[i]->Submit(std::move(batch))
                        : children_[i]->Submit(batch);
    if (!status.ok() && first_error.ok()) first_error = std::move(status);
  }
  {
    std::scoped_lock lock(mu_);
    if (first_error.ok()) {
      stats_.batches_out += 1;
      stats_.events_out += batch_events;
    }
    // On failure the in/out delta records that this batch did not clear all
    // branches; the retry stage above decides whether it becomes a dead
    // letter, so abandonment is counted exactly once in the chain.
  }
  return first_error;
}

void FanOutSink::Flush() {
  for (auto& child : children_) child->Flush();
}

void FanOutSink::CollectStats(std::vector<StageStats>* out) const {
  {
    std::scoped_lock lock(mu_);
    out->push_back(stats_);
  }
  for (const auto& child : children_) child->CollectStats(out);
}

}  // namespace dio::transport
