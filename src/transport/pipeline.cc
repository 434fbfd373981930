#include "transport/pipeline.h"

#include <utility>

#include "transport/fan_out_sink.h"

namespace dio::transport {

Expected<PipelineOptions> PipelineOptions::FromConfig(const Config& config) {
  (void)WarnUnknownKeys(
      config, "transport",
      {"queue_depth", "backpressure", "retry", "retry_max_attempts",
       "retry_initial_backoff_ns", "retry_backoff_multiplier",
       "retry_max_backoff_ns", "retry_jitter", "retry_deadline_ns",
       "fault_rate", "fault_seed", "sinks", "trace_path",
       "network_latency_ns", "refresh_every_batches", "auto_correlate"});

  PipelineOptions options;
  options.queue.max_queued_batches = static_cast<std::size_t>(
      config.GetInt("transport.queue_depth",
                    static_cast<std::int64_t>(
                        options.queue.max_queued_batches)));
  if (config.Has("transport.backpressure")) {
    auto policy =
        BackpressureFromString(config.GetString("transport.backpressure"));
    if (!policy.ok()) return policy.status();
    options.queue.policy = *policy;
  }
  options.retry_enabled =
      config.GetBool("transport.retry", options.retry_enabled);
  options.retry.max_attempts = static_cast<std::size_t>(
      config.GetInt("transport.retry_max_attempts",
                    static_cast<std::int64_t>(options.retry.max_attempts)));
  options.retry.initial_backoff_ns = config.GetInt(
      "transport.retry_initial_backoff_ns", options.retry.initial_backoff_ns);
  options.retry.backoff_multiplier = config.GetDouble(
      "transport.retry_backoff_multiplier", options.retry.backoff_multiplier);
  options.retry.max_backoff_ns = config.GetInt(
      "transport.retry_max_backoff_ns", options.retry.max_backoff_ns);
  options.retry.jitter =
      config.GetDouble("transport.retry_jitter", options.retry.jitter);
  options.retry.deadline_ns = config.GetInt("transport.retry_deadline_ns",
                                            options.retry.deadline_ns);
  options.retry.fault_rate =
      config.GetDouble("transport.fault_rate", options.retry.fault_rate);
  options.retry.fault_seed = static_cast<std::uint64_t>(config.GetInt(
      "transport.fault_seed",
      static_cast<std::int64_t>(options.retry.fault_seed)));
  if (config.Has("transport.sinks")) {
    options.sinks = config.GetList("transport.sinks");
    if (options.sinks.empty()) {
      return InvalidArgument("transport.sinks must name at least one sink");
    }
  }
  options.trace_path =
      config.GetString("transport.trace_path", options.trace_path);
  if (options.retry.fault_rate < 0.0 || options.retry.fault_rate > 1.0) {
    return InvalidArgument("transport.fault_rate must be in [0, 1]");
  }
  return options;
}

Expected<std::unique_ptr<Pipeline>> Pipeline::Build(
    std::string session, const PipelineOptions& options,
    const SinkFactory& make_sink, Clock* clock) {
  std::vector<std::unique_ptr<Transport>> sinks;
  sinks.reserve(options.sinks.size());
  for (const std::string& name : options.sinks) {
    if (!make_sink) {
      return InvalidArgument("no sink factory for transport sink: " + name);
    }
    auto sink = make_sink(name, options);
    if (!sink.ok()) return sink.status();
    if (sink.value() == nullptr) {
      return InvalidArgument("sink factory returned null for: " + name);
    }
    sinks.push_back(std::move(sink.value()));
  }

  std::unique_ptr<Transport> chain;
  if (sinks.size() == 1) {
    chain = std::move(sinks.front());
  } else {
    chain = std::make_unique<FanOutSink>(std::move(sinks));
  }

  RetryingTransport* retry = nullptr;
  if (options.retry_enabled || options.retry.fault_rate > 0.0) {
    auto retrying = std::make_unique<RetryingTransport>(std::move(chain),
                                                        options.retry, clock);
    retry = retrying.get();
    chain = std::move(retrying);
  }

  chain = std::make_unique<QueueTransport>(std::move(chain), options.queue);
  return std::unique_ptr<Pipeline>(
      new Pipeline(std::move(session), std::move(chain), retry));
}

void Pipeline::IndexBatch(std::vector<Json> documents) {
  if (documents.empty()) return;
  EventBatch batch;
  batch.session = session_;
  batch.documents = std::move(documents);
  (void)head_->Submit(std::move(batch));
}

void Pipeline::IndexEvents(std::string_view session,
                           std::vector<tracer::Event> events) {
  if (events.empty()) return;
  EventBatch batch;
  batch.session = std::string(session);
  batch.events = std::move(events);
  (void)head_->Submit(std::move(batch));
}

void Pipeline::IndexWire(std::string_view session,
                         std::vector<tracer::WireEvent> records) {
  if (records.empty()) return;
  EventBatch batch;
  batch.session = std::string(session);
  batch.wire = std::move(records);
  (void)head_->Submit(std::move(batch));
}

void Pipeline::Flush() { head_->Flush(); }

std::vector<StageStats> Pipeline::Stats() const {
  std::vector<StageStats> stats;
  head_->CollectStats(&stats);
  return stats;
}

Json Pipeline::StatsJson() const {
  Json out = Json::MakeArray();
  for (const StageStats& stage : Stats()) out.Append(stage.ToJson());
  return out;
}

}  // namespace dio::transport
