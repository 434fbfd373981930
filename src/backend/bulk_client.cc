#include "backend/bulk_client.h"

#include <utility>

#include "backend/correlation.h"

namespace dio::backend {

Expected<BulkClientOptions> BulkClientOptions::FromConfig(
    const Config& config) {
  BulkClientOptions options;
  for (auto [key, field] :
       {std::pair{"transport.network_latency_ns", &options.network_latency_ns},
        std::pair{"transport.refresh_interval_ms",
                  &options.refresh_interval_ms}}) {
    auto value = GetCount(config, key, static_cast<std::size_t>(*field), 0);
    if (!value.ok()) return value.status();
    *field = static_cast<std::int64_t>(*value);
  }
  options.auto_correlate =
      config.GetBool("transport.auto_correlate", options.auto_correlate);
  return options;
}

BulkClient::BulkClient(ElasticStore* store, std::string index,
                       BulkClientOptions options, Clock* clock)
    : store_(store),
      index_(std::move(index)),
      options_(options),
      clock_(clock),
      refresh_(options.refresh_interval(), clock) {
  stats_.stage = "bulk";
}

Status BulkClient::Submit(transport::EventBatch batch) {
  if (batch.empty()) return Status::Ok();
  // Network hop to the backend server (virtual time under a ManualClock).
  clock_->SleepFor(options_.network_latency_ns);
  const std::size_t batch_events = batch.size();
  if (!batch.wire.empty()) {
    // Typed route: the wire records go to the store as-is; whether they
    // become columns directly or JSON documents is the store's
    // backend.typed_ingest decision. Any Event/document payload riding the
    // same batch still takes the JSON route below.
    store_->BulkWire(index_, batch.session, std::move(batch.wire));
    batch.wire.clear();
  }
  if (!batch.events.empty() || !batch.documents.empty()) {
    // Deferred materialization: binary events become JSON documents only
    // here, on the far side of the wire — never on a tracer drain loop.
    batch.Materialize();
    store_->Bulk(index_, std::move(batch.documents));
  }
  {
    std::scoped_lock lock(mu_);
    stats_.batches_in += 1;
    stats_.events_in += batch_events;
    stats_.batches_out += 1;
    stats_.events_out += batch_events;
  }
  if (refresh_.Due()) store_->Refresh(index_);
  return Status::Ok();
}

void BulkClient::Flush() {
  store_->Refresh(index_);
  refresh_.Restart();
  if (options_.auto_correlate) {
    FilePathCorrelator correlator(store_);
    (void)correlator.Run(index_);
  }
}

void BulkClient::IndexBatch(std::vector<Json> documents) {
  if (documents.empty()) return;
  transport::EventBatch batch;
  batch.documents = std::move(documents);
  (void)Submit(std::move(batch));
}

void BulkClient::IndexEvents(std::string_view session,
                             std::vector<tracer::Event> events) {
  if (events.empty()) return;
  transport::EventBatch batch;
  batch.session = std::string(session);
  batch.events = std::move(events);
  (void)Submit(std::move(batch));
}

void BulkClient::CollectStats(
    std::vector<transport::StageStats>* out) const {
  std::scoped_lock lock(mu_);
  out->push_back(stats_);
}

}  // namespace dio::backend
