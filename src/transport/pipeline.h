// Pipeline: the configured transport chain, presented to the tracer as its
// EventSink. The per-CPU consumer threads emit batches into the head stage
// (a bounded QueueTransport); the chain below is assembled from config:
//
//   consumers -> queue[policy,depth] -> (retry[backoff,faults])? ->
//     sink | fanout{ sink, sink, ... }
//
// Config keys (section [transport]; all optional, defaults in
// PipelineOptions):
//   queue_depth               bounded queue size, in batches
//   backpressure              block | drop_newest | drop_oldest
//   retry                     enable the retry decorator
//   retry_max_attempts        delivery attempts per batch
//   retry_initial_backoff_ns  first backoff
//   retry_backoff_multiplier  exponential factor
//   retry_max_backoff_ns      backoff cap
//   retry_jitter              +/- fraction applied to each backoff
//   retry_deadline_ns         overall per-batch timeout (0 = unlimited)
//   fault_rate                injected delivery-failure probability [0,1]
//   fault_seed                PRNG seed for fault injection / jitter
//   sinks                     comma list of terminal sinks (bulk, trace, ...)
//   trace_path                trace v1 file for the "trace" sink
//   network_latency_ns        (bulk sink) simulated one-way hop latency
//   refresh_interval_ms       (bulk sink) near-real-time refresh deadline,
//                             checked after each accepted batch (0 = flush)
//   auto_correlate            (bulk sink) run correlation on flush
//
// Unrecognized [transport] keys are warned about at parse time so typos in
// bench configs are caught instead of silently reverting to defaults.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/config.h"
#include "tracer/sink.h"
#include "transport/queue_transport.h"
#include "transport/retrying_transport.h"
#include "transport/transport.h"

namespace dio::transport {

struct PipelineOptions {
  QueueTransportOptions queue;
  bool retry_enabled = false;
  RetryOptions retry;
  // Terminal sinks by name; >1 means fan-out. Names resolve through the
  // SinkFactory the caller passes to Build (the service maps "bulk" to a
  // backend BulkClient and "trace" to a trace::TraceRecordSink).
  std::vector<std::string> sinks = {"bulk"};
  // Output file for the "trace" sink: the on-disk event stream (trace v1),
  // replayable and loadable into a store with trace::LoadTrace.
  std::string trace_path;

  // Parses [transport] keys and warns (via logging) on unrecognized ones.
  // Keys consumed by the bulk sink (network_latency_ns, ...) are part of
  // the recognized set but interpreted by backend::BulkClientOptions.
  // Rejects, naming the key, a queue_depth or retry_max_attempts that is
  // not an integer or is below 1.
  static Expected<PipelineOptions> FromConfig(const Config& config);
};

class Pipeline final : public tracer::EventSink {
 public:
  // Resolves a terminal sink name to a transport. `options` is passed so
  // factories can read carried-through sink knobs.
  using SinkFactory = std::function<Expected<std::unique_ptr<Transport>>(
      const std::string& sink_name, const PipelineOptions& options)>;

  // `session` labels batches entering via IndexBatch (documents carry their
  // session inline; binary events are tagged by the tracer's IndexEvents
  // call). Every sink name resolves through `make_sink`; a name it does not
  // know fails the build.
  static Expected<std::unique_ptr<Pipeline>> Build(
      std::string session, const PipelineOptions& options,
      const SinkFactory& make_sink = nullptr,
      Clock* clock = SteadyClock::Instance());

  // EventSink: the tracer-facing head of the chain.
  void IndexBatch(std::vector<Json> documents) override;
  void IndexEvents(std::string_view session,
                   std::vector<tracer::Event> events) override;
  // Typed-ingest fast path: the batch enters the chain as tagged binary wire
  // records and stays binary through to the sinks: the store's typed route
  // ingests it directly (bulk sink) and the trace sink records it as is.
  void IndexWire(std::string_view session,
                 std::vector<tracer::WireEvent> records) override;
  // Drains the chain deterministically: queue first, then retry, then
  // sinks. After it returns, every accepted batch is delivered or counted.
  void Flush() override;

  // Per-stage accounting, head to sinks.
  [[nodiscard]] std::vector<StageStats> Stats() const;
  [[nodiscard]] Json StatsJson() const;  // array of StageStats::ToJson

  // Non-null when the chain has a retry stage; tests install fault hooks
  // through it.
  [[nodiscard]] RetryingTransport* retry_stage() { return retry_; }

 private:
  Pipeline(std::string session, std::unique_ptr<Transport> head,
           RetryingTransport* retry)
      : session_(std::move(session)),
        head_(std::move(head)),
        retry_(retry) {}

  std::string session_;
  std::unique_ptr<Transport> head_;  // owns the whole chain
  RetryingTransport* retry_;         // borrowed pointer into the chain
};

}  // namespace dio::transport
