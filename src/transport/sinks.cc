#include "transport/sinks.h"

#include <memory>
#include <utility>

namespace dio::transport {

Status CollectorSink::Submit(EventBatch batch) {
  const std::size_t batch_events = batch.size();
  if (options_.deliver_latency_ns > 0) {
    Clock* clock =
        options_.clock != nullptr ? options_.clock : SteadyClock::Instance();
    clock->SleepFor(options_.deliver_latency_ns);
  }
  batch.Materialize();
  std::scoped_lock lock(mu_);
  // A rejected batch never enters this stage's ledger: the caller (retry
  // stage) owns the failure accounting, so in == out holds here.
  if (fail_next_ > 0) {
    --fail_next_;
    return Unavailable("collector sink scripted failure");
  }
  stats_.batches_in += 1;
  stats_.events_in += batch_events;
  for (Json& doc : batch.documents) documents_.push_back(std::move(doc));
  stats_.batches_out += 1;
  stats_.events_out += batch_events;
  return Status::Ok();
}

void CollectorSink::FailNext(std::size_t n) {
  std::scoped_lock lock(mu_);
  fail_next_ = n;
}

std::vector<Json> CollectorSink::documents() const {
  std::scoped_lock lock(mu_);
  return documents_;
}

std::size_t CollectorSink::document_count() const {
  std::scoped_lock lock(mu_);
  return documents_.size();
}

void CollectorSink::CollectStats(std::vector<StageStats>* out) const {
  std::scoped_lock lock(mu_);
  out->push_back(stats_);
}

}  // namespace dio::transport
