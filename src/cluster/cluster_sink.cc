#include "cluster/cluster_sink.h"

#include <utility>

namespace dio::cluster {

ClusterBulkSink::ClusterBulkSink(ClusterRouter* router, std::string index,
                                 Nanos network_latency_ns, Clock* clock,
                                 Nanos refresh_interval)
    : router_(router),
      index_(std::move(index)),
      network_latency_ns_(network_latency_ns),
      clock_(clock),
      refresh_(refresh_interval, clock) {
  stats_.stage = "cluster";
}

Status ClusterBulkSink::Submit(transport::EventBatch batch) {
  if (batch.empty()) return Status::Ok();
  // Network hop to the routing tier (virtual time under a ManualClock).
  clock_->SleepFor(network_latency_ns_);
  const std::size_t batch_events = batch.size();
  const Status status = router_->Ingest(index_, std::move(batch));
  {
    std::scoped_lock lock(mu_);
    stats_.batches_in += 1;
    stats_.events_in += batch_events;
    if (status.ok()) {
      stats_.batches_out += 1;
      stats_.events_out += batch_events;
    } else {
      // Refused, not lost: the batch stays with the retry stage above, which
      // re-drives it once the cluster can satisfy the ack level again.
      rejected_batches_ += 1;
      rejected_events_ += batch_events;
    }
  }
  if (status.ok() && refresh_.Due()) router_->Refresh(index_);
  return status;
}

void ClusterBulkSink::Flush() {
  (void)router_->Settle();
  // A settled cluster has every live owner at the log head — reclaim the
  // fully-applied prefix before the session goes quiescent.
  (void)router_->CompactLogs();
  router_->Refresh(index_);
  refresh_.Restart();
}

void ClusterBulkSink::IndexBatch(std::vector<Json> documents) {
  if (documents.empty()) return;
  transport::EventBatch batch;
  batch.documents = std::move(documents);
  (void)Submit(std::move(batch));
}

void ClusterBulkSink::IndexEvents(std::string_view session,
                                  std::vector<tracer::Event> events) {
  if (events.empty()) return;
  transport::EventBatch batch;
  batch.session = std::string(session);
  batch.events = std::move(events);
  (void)Submit(std::move(batch));
}

void ClusterBulkSink::CollectStats(
    std::vector<transport::StageStats>* out) const {
  std::scoped_lock lock(mu_);
  out->push_back(stats_);
}

std::uint64_t ClusterBulkSink::rejected_batches() const {
  std::scoped_lock lock(mu_);
  return rejected_batches_;
}

std::uint64_t ClusterBulkSink::rejected_events() const {
  std::scoped_lock lock(mu_);
  return rejected_events_;
}

}  // namespace dio::cluster
